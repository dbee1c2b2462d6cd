"""Fixture: the krylov span and sim sample families are registered.

Every literal name here is a Fig. 4 phase or belongs to the ``krylov.`` or
``sim.`` prefix families of the phase registry, so the span-hygiene rule
must produce zero findings for this module.  Linted by tests, never
imported.
"""


def run(tracer, solver, result):
    with tracer.span(f"krylov.{solver}", maxiter=50):  # registered krylov.* span
        pass
    tracer.record_span("gather_scatter", 0.1)  # registered Fig. 4 phase
    tracer.sample("sim.cfl", result.cfl)  # registered sim.* sample
    tracer.sample("sim.dt", result.dt)  # registered sim.* sample
