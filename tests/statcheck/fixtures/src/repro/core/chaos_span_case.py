"""Fixture: the chaos-harness span family is registered.

Every literal name here belongs to the ``chaos.`` prefix family added to
the phase registry by the chaos-testing harness, so the span-hygiene rule
must produce zero findings for this module.  Linted by tests, never
imported.
"""


def run(tracer, scenario):
    with tracer.span("chaos.campaign", scenarios=12):  # registered chaos.* span
        with tracer.span("chaos.scenario", scenario=scenario):  # registered chaos.* span
            pass
