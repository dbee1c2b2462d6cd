"""Fixture: the flight event family is registered.

Every literal name here belongs to the ``flight.`` prefix family of the
phase registry, so the span-hygiene rule must produce zero findings for
this module.  Linted by tests, never imported.
"""


def run(tracer):
    tracer.event("flight.divergence")  # registered flight.* event
    tracer.event("flight.retry_budget", step=3)  # registered flight.* event
