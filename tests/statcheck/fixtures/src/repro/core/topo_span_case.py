"""Fixture: the krylov/resilience/cache span+metric families are registered.

Every literal name here belongs to the ``krylov.``, ``resilience.`` or
``cache.`` prefix families of the phase registry, so the span-hygiene
rule must produce zero findings for this module.  Linted by tests, never
imported.
"""


def run(tracer, metrics, solver):
    with tracer.span(f"krylov.{solver}", maxiter=50):  # registered krylov.* span
        pass
    with tracer.span("resilience.rollback", step=4):  # registered resilience.* span
        tracer.event("cache.build", key="hsmg")  # registered cache.* event
    metrics.counter("resilience.retries").inc()  # registered resilience.* metric
    metrics.gauge("cache.hit_rate").set(1.0)  # registered cache.* metric
    metrics.histogram("cache.entries").record(2.0)  # registered cache.* metric
