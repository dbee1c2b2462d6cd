"""Property tests for the float32 Schwarz/FDM smoother inside float64 flexible CG.

The mixed-precision design (NekRS precedent: single-precision
preconditioning inside a double-precision Krylov solve) is only admissible
if (a) the outer solve still converges to the float64 tolerance, (b) the
iteration count stays within a small band of the float64-smoothed count,
and (c) the answers agree to the outer tolerance.  Hypothesis drives
random smooth mesh deformations and polynomial orders p in {3..8} through
a pure-Neumann pressure-like Poisson solve and checks all three, plus the
trip/fallback state machine of the :class:`IterationGuard`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.precond import HybridSchwarzMultigrid, IterationGuard, reset_global_cache
from repro.sem.mesh import box_mesh
from repro.sem.operators import ax_poisson
from repro.sem.space import FunctionSpace
from repro.solvers.fcg import FlexibleCG
from repro.solvers.projection import MeanProjector

TOL = 1e-8
# The ISSUE's acceptance band: float32 smoothing may cost at most +20%
# iterations (plus 1 to absorb integer rounding on small counts).
ITER_BAND = 0.20


def deformed_space(seed: int, lx: int, amplitude: float = 0.04) -> FunctionSpace:
    mesh = box_mesh((2, 2, 2))
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(3, 3))
    cc = mesh.corner_coords
    x, y, z = cc[..., 0].copy(), cc[..., 1].copy(), cc[..., 2].copy()
    for d in range(3):
        cc[..., d] += (
            amplitude
            * np.sin(np.pi * x + phases[d, 0])
            * np.sin(np.pi * y + phases[d, 1])
            * np.sin(np.pi * z + phases[d, 2])
        )
    space = FunctionSpace(mesh, lx)
    assert np.all(space.coef.jac > 0.0)
    return space


def poisson_solve(space: FunctionSpace, dtype: str, seed: int):
    """Pure-Neumann Poisson solve mirroring the pressure path; returns
    (solution, monitor, residual_norm)."""

    def amul(u: np.ndarray) -> np.ndarray:
        return space.gs.add(ax_poisson(u, space.coef, space.dx))

    project = MeanProjector.counting(space.gs)
    precond = HybridSchwarzMultigrid(space, smoother_dtype=dtype, cache=False)
    solver = FlexibleCG(
        amul,
        space.gs.inv_multiplicity,
        precond=precond,
        tol=TOL,
        maxiter=500,
        project_out=project,
    )
    rng = np.random.default_rng(seed)
    b = space.gs.add(space.coef.mass * rng.normal(size=space.shape))
    project(b)
    x, mon = solver.solve(b)
    res = b - amul(x)
    project(res)
    rnorm = float(np.sqrt(max(space.gs.dot(res, res), 0.0)))
    return x, mon, rnorm


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), p=st.integers(3, 8))
def test_f32_smoother_converges_within_iteration_band(seed, p):
    """float32 smoothing converges to the same tolerance within +20% iters."""
    space = deformed_space(seed, lx=p + 1)
    x64, mon64, r64 = poisson_solve(space, "float64", seed)
    x32, mon32, r32 = poisson_solve(space, "float32", seed)

    assert mon64.converged and mon32.converged
    allowed = int(np.ceil(mon64.iterations * (1.0 + ITER_BAND))) + 1
    assert mon32.iterations <= allowed, (
        f"p={p}: f32 smoother took {mon32.iterations} iters vs f64 "
        f"{mon64.iterations} (band allows {allowed})"
    )

    # Both true residuals meet the outer tolerance against the same RHS.
    bnorm = mon64.residuals[0]
    assert r64 <= 10.0 * TOL * bnorm
    assert r32 <= 10.0 * TOL * bnorm

    # The two solutions agree to the outer tolerance (up to the nullspace,
    # which both projections removed).
    diff = x64 - x32
    dnorm = float(np.sqrt(space.gs.dot(diff, diff)))
    xnorm = float(np.sqrt(space.gs.dot(x64, x64)))
    assert dnorm <= 100.0 * TOL * max(xnorm, 1.0)


def test_f32_smoother_is_actually_single_precision():
    """The f32 build really stores float32 factors (not silently f64)."""
    space = deformed_space(1, lx=5)
    pc = HybridSchwarzMultigrid(space, smoother_dtype="float32", cache=False)
    fdm = pc.smoothers[0].fdm if hasattr(pc, "smoothers") else pc.schwarz.fdm
    assert fdm.s.dtype == np.float32
    assert fdm.st.dtype == np.float32
    assert fdm.inv_d3.dtype == np.float32
    # And the guard exists only for the reduced-precision build.
    assert pc.guard is not None
    assert HybridSchwarzMultigrid(space, cache=False).guard is None


def test_f32_smoother_output_is_float64():
    """The smoother casts back up: the Krylov solver always sees float64 vectors."""
    space = deformed_space(2, lx=5)
    pc = HybridSchwarzMultigrid(space, smoother_dtype="float32", cache=False)
    rng = np.random.default_rng(2)
    z = pc(space.gs.add(rng.normal(size=space.shape)))
    assert z.dtype == np.float64


# -- the iteration-count fallback guard --------------------------------------


def test_guard_trips_after_patience_consecutive_strikes():
    g = IterationGuard(band=0.2, patience=3)
    assert g.observe(10) is False  # establishes reference
    assert g.observe(13) is False  # strike 1 (>12)
    assert g.observe(13) is False  # strike 2
    assert g.observe(13) is True  # strike 3 -> trip
    assert g.tripped


def test_guard_strikes_reset_on_good_solve():
    g = IterationGuard(band=0.2, patience=3)
    g.observe(10)
    g.observe(13)
    g.observe(13)
    assert g.observe(10) is False  # back in band: strikes reset
    assert g.observe(13) is False
    assert g.observe(13) is False
    assert g.observe(13) is True


def test_guard_reference_is_minimum_seen():
    g = IterationGuard(band=0.5, patience=1)
    g.observe(20)
    assert g.observe(8) is False  # better solve lowers the reference
    assert g.reference == 8
    assert g.observe(13) is True  # 13 > 8 * 1.5


def test_guard_trips_exactly_once():
    g = IterationGuard(band=0.0, patience=1)
    g.observe(10)
    assert g.observe(11) is True
    assert g.observe(50) is False  # stays tripped, reports only once
    assert g.tripped


def test_hsmg_falls_back_to_f64_when_guard_trips():
    """observe_iterations rebuilds the smoothers in float64 on a trip."""
    space = deformed_space(3, lx=4)
    pc = HybridSchwarzMultigrid(
        space, smoother_dtype="float32", cache=False, guard_band=0.0, guard_patience=1
    )
    assert pc.smoother_dtype == np.dtype(np.float32)
    assert pc.observe_iterations(10) is False  # reference
    assert pc.observe_iterations(11) is True  # trip -> rebuild
    assert pc.smoother_dtype == np.dtype(np.float64)
    assert pc.schwarz.fdm.s.dtype == np.float64
    # After the fallback there is nothing left to observe.
    assert pc.observe_iterations(500) is False


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Keep the process-wide cache out of cross-test interference."""
    reset_global_cache()
    yield
    reset_global_cache()
