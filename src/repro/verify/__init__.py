"""Verification subsystem: manufactured solutions and order checks.

Code verification in the sense of Roache: before any physics claim (Nusselt
numbers, boundary-layer statistics) can be trusted, the discrete operators,
solvers and time integrators must demonstrably converge at their *design*
rates on problems with known closed-form solutions.  This package provides

* :mod:`repro.verify.manufactured` -- symbolic-free manufactured solutions
  (closed-form field + forcing callables) for the Poisson and Helmholtz
  operators, the advection--diffusion scalar and the coupled Boussinesq
  step;
* :mod:`repro.verify.convergence` -- a study runner that sweeps polynomial
  order (p-refinement), element count (h-refinement) or time step and fits
  the observed convergence rate against the theoretical one;
* ``python -m repro.verify`` -- a CLI emitting a JSON + text-table report,
  consumed by the CI ``verify`` job.

The thresholds asserted here were calibrated against the implementation
(see EXPERIMENTS.md): spectral p-convergence reaches machine precision by
``lx = 10`` on both affine and randomly deformed meshes, h-convergence
observes ~``lx + 0.8``, and BDFk/EXTk time integration observes its design
order ``k`` once the multistep history is primed with exact data.
"""

from repro.verify.convergence import (
    ConvergenceStudy,
    StudyResult,
    fit_algebraic_order,
    fit_exponential_rate,
)
from repro.verify.manufactured import (
    BoussinesqMMS,
    ScalarAdvectionDiffusionMMS,
    SteadyMMS,
    polynomial_mms,
    trig_mms,
)
from repro.verify.report import VerificationReport

__all__ = [
    "ConvergenceStudy",
    "StudyResult",
    "fit_algebraic_order",
    "fit_exponential_rate",
    "SteadyMMS",
    "ScalarAdvectionDiffusionMMS",
    "BoussinesqMMS",
    "polynomial_mms",
    "trig_mms",
    "VerificationReport",
]
