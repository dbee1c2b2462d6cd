"""Fixture: the resilience event family is registered.

Every literal name here belongs to the ``resilience.`` or ``sim.`` prefix
family of the phase registry, so the span-hygiene rule must produce zero
findings for this module.  Linted by tests, never imported.
"""


def run(tracer):
    tracer.event("resilience.rollback")  # registered resilience.* event
    tracer.event("resilience.retry_budget", step=3)  # registered resilience.* event
    tracer.event("sim.divergence", step=3)  # registered sim.* event
