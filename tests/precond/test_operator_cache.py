"""Correctness suite for the process-wide operator/factorization cache.

The cache is only admissible if a hit is *bitwise* identical to a cold
build, keys cannot collide across meaningfully different setups, and
eviction can never corrupt a solve that still holds references to an
evicted entry (numpy arrays are kept alive by the reference, so eviction
only drops the cache's own handle).
"""

import numpy as np
import pytest

from repro.precond import (
    CacheKey,
    FastDiagonalization,
    HybridSchwarzMultigrid,
    OperatorCache,
    global_cache,
    reset_global_cache,
)
from repro.precond.cache import (
    array_signature,
    mask_fingerprint,
    resolve_cache,
    space_signature,
)
from repro.precond.coarse import CoarseGridSolver
from repro.sem.mesh import box_mesh
from repro.sem.operators import ax_poisson
from repro.sem.space import FunctionSpace
from repro.solvers.fcg import FlexibleCG
from repro.solvers.projection import MeanProjector


@pytest.fixture(autouse=True)
def _fresh_cache():
    reset_global_cache()
    yield
    reset_global_cache()


def make_space(lx: int = 5, shift: float = 0.0) -> FunctionSpace:
    mesh = box_mesh((2, 2, 2))
    if shift:
        mesh.corner_coords[..., 0] += shift * mesh.corner_coords[..., 0] ** 2
    return FunctionSpace(mesh, lx)


# -- hit identity -------------------------------------------------------------


def test_fdm_cache_hit_is_bitwise_identical():
    space = make_space()
    cache = OperatorCache()
    cold = FastDiagonalization(space, cache=cache)
    warm = FastDiagonalization(space, cache=cache)
    assert cache.misses == 1 and cache.hits == 1
    assert float(np.max(np.abs(cold.s - warm.s))) == 0.0
    assert float(np.max(np.abs(cold.st - warm.st))) == 0.0
    assert float(np.max(np.abs(cold.inv_d3 - warm.inv_d3))) == 0.0
    # Same storage, not merely equal values.
    assert cold.s is warm.s


def test_cache_hit_equals_cold_build_through_a_solve():
    """A full HSMG application from cached parts equals the cold result."""
    space = make_space()
    rng = np.random.default_rng(0)
    r = space.gs.add(rng.normal(size=space.shape))

    cold = HybridSchwarzMultigrid(space, cache=False)(r)
    reset_global_cache()
    first = HybridSchwarzMultigrid(space)(r)  # populates the global cache
    second = HybridSchwarzMultigrid(space)(r)  # all hits
    assert global_cache().hits > 0
    assert float(np.max(np.abs(first - cold))) == 0.0
    assert float(np.max(np.abs(second - cold))) == 0.0


def test_coarse_direct_cache_hit_reuses_factorization():
    space = make_space()
    cache = OperatorCache()
    a = CoarseGridSolver(space, cache=cache)
    b = CoarseGridSolver(space, cache=cache)
    assert cache.hits >= 1
    assert a._lu is b._lu
    rng = np.random.default_rng(1)
    r = space.gs.add(rng.normal(size=space.shape))
    np.testing.assert_array_equal(a(r), b(r))


# -- key separation -----------------------------------------------------------


def test_keys_differ_under_mesh_perturbation():
    """Any nodal coordinate change must miss the cache, however small."""
    sig0 = space_signature(make_space())
    sig1 = space_signature(make_space(shift=1e-12))
    sig2 = space_signature(make_space(shift=0.1))
    assert sig0 != sig1
    assert sig0 != sig2
    assert sig1 != sig2


def test_keys_differ_across_order_operator_mask():
    space = make_space()
    base = CacheKey.for_space(space, "fdm")
    assert base != CacheKey.for_space(space, "schwarz_weight")
    assert base != CacheKey.for_space(make_space(lx=6), "fdm")
    mask = np.ones(space.shape)
    other = mask.copy()
    other.flat[0] = 0.0
    assert CacheKey.for_space(space, f"coarse[mask={mask_fingerprint(mask)}]") != (
        CacheKey.for_space(space, f"coarse[mask={mask_fingerprint(other)}]")
    )


def test_key_is_stable_across_equal_spaces():
    """Two independently built identical spaces share cache entries."""
    cache = OperatorCache()
    FastDiagonalization(make_space(), cache=cache)
    FastDiagonalization(make_space(), cache=cache)
    assert cache.hits == 1 and cache.misses == 1


def test_array_signature_distinguishes_dtype_shape_content():
    a = np.arange(12.0)
    assert array_signature(a) == array_signature(a.copy())
    assert array_signature(a) != array_signature(a.astype(np.float32))
    assert array_signature(a) != array_signature(a.reshape(3, 4))
    b = a.copy()
    b[5] = np.nextafter(b[5], np.inf)  # one ULP: smallest representable change
    assert array_signature(a) != array_signature(b)


# -- eviction safety ----------------------------------------------------------


def test_eviction_never_corrupts_inflight_user():
    """An evicted entry stays valid for holders of the reference."""
    space = make_space()
    cache = OperatorCache(capacity=1)
    fdm = FastDiagonalization(space, cache=cache)
    s_before = fdm.s.copy()
    # Force eviction of the fdm entry by inserting other keys.
    for lx in (4, 6):
        FastDiagonalization(make_space(lx=lx), cache=cache)
    assert cache.evictions >= 2
    # The in-flight object still solves correctly with its arrays.
    rng = np.random.default_rng(3)
    r = rng.normal(size=space.shape)
    out = fdm.solve(r)
    assert np.all(np.isfinite(out))
    np.testing.assert_array_equal(fdm.s, s_before)


def test_eviction_preserves_lru_order():
    cache = OperatorCache(capacity=2)
    cache.get_or_build(CacheKey("m", 1, "a"), lambda: np.ones(3))
    cache.get_or_build(CacheKey("m", 1, "b"), lambda: np.ones(3))
    cache.get_or_build(CacheKey("m", 1, "a"), lambda: np.zeros(3))  # refresh a
    cache.get_or_build(CacheKey("m", 1, "c"), lambda: np.ones(3))  # evicts b
    assert cache.evictions == 1
    # b rebuilds (miss) and evicts a, the least recently used of {a, c}.
    calls = []
    cache.get_or_build(CacheKey("m", 1, "b"), lambda: calls.append(1) or np.ones(3))
    assert calls == [1]
    # c was inserted after a's refresh, so it survived both evictions.
    before = cache.hits
    cache.get_or_build(CacheKey("m", 1, "c"), lambda: np.zeros(3))
    assert cache.hits == before + 1


def test_adaptive_stepping_does_not_evict_the_pressure_preconditioner():
    # One Jacobi entry per distinct (b0, dt), twice per change, used to
    # push the FDM and coarse factorizations out of the process-wide LRU:
    # 18 evictions in this run, and a cold preconditioner build for the next
    # Simulation on the mesh (a rollback, a restart).  The cached diagonal
    # is now independent of the coefficients.
    from repro.core import Simulation, rbc_box_case

    cache = reset_global_cache(capacity=8)
    sim = Simulation(rbc_box_case(1e5, n=(2, 2, 2), lx=5, dt=0.01, adaptive_cfl=0.3))

    def jacobi_entries():
        return [k for k in cache.report()["keys"] if k["operator"].startswith("jacobi")]

    sim.run(n_steps=5)
    early = len(jacobi_entries())
    sim.run(n_steps=35)
    assert len({r.dt for r in sim.history}) >= 8
    assert cache.evictions == 0
    operators = [k["operator"] for k in cache.report()["keys"]]
    assert "fdm" in operators
    assert any(op.startswith("coarse[") for op in operators)
    assert len(jacobi_entries()) == early == 1


def test_cached_arrays_are_read_only():
    """Shared entries must be immutable: a write through one user would
    silently corrupt every other holder."""
    space = make_space()
    fdm = FastDiagonalization(space)  # global cache
    with pytest.raises((ValueError, RuntimeError)):
        fdm.s[0] = 0.0


def test_solve_unaffected_by_concurrent_eviction():
    """A flexible-CG solve keeps converging while its preconditioner's entries
    are evicted mid-flight by other builds."""
    space = make_space()
    reset_global_cache(capacity=1)
    pc = HybridSchwarzMultigrid(space)

    def amul(u):
        return space.gs.add(ax_poisson(u, space.coef, space.dx))

    project = MeanProjector.counting(space.gs)
    evicted = {"n": 0}

    def noisy_precond(r):
        # Thrash the capacity-1 cache on every application.
        FastDiagonalization(make_space(lx=4))
        evicted["n"] += 1
        return pc(r)

    solver = FlexibleCG(
        amul, space.gs.inv_multiplicity, precond=noisy_precond, tol=1e-8,
        maxiter=300, project_out=project,
    )
    rng = np.random.default_rng(4)
    b = space.gs.add(space.coef.mass * rng.normal(size=space.shape))
    project(b)
    _, mon = solver.solve(b)
    assert mon.converged
    assert evicted["n"] > 0
    assert global_cache().evictions > 0


# -- bookkeeping --------------------------------------------------------------


def test_hit_rate_and_report():
    cache = OperatorCache()
    cache.get_or_build(CacheKey("m", 1, "a"), lambda: 1)
    cache.get_or_build(CacheKey("m", 1, "a"), lambda: 1)
    assert cache.hit_rate() == pytest.approx(0.5)
    rep = cache.report()
    assert rep["hits"] == 1 and rep["misses"] == 1 and rep["entries"] == 1


def test_disabled_cache_always_cold_builds():
    space = make_space()
    a = FastDiagonalization(space, cache=False)
    b = FastDiagonalization(space, cache=False)
    assert a.s is not b.s
    np.testing.assert_array_equal(a.s, b.s)
    assert global_cache().hits == 0 and global_cache().misses == 0


def test_resolve_cache_convention():
    cache = OperatorCache()
    assert resolve_cache(cache) is cache
    assert resolve_cache(None) is global_cache()
    throwaway = resolve_cache(False)
    assert throwaway is not global_cache()
    assert resolve_cache(False) is not throwaway  # private: shared with nobody
    assert len(throwaway) == 0


# -- statcheck gate on the new modules ----------------------------------------


def test_new_modules_pass_statcheck_determinism():
    """The cache module introduces no nondeterminism findings
    (perf_counter timing is allowed; wall-clock/RNG calls are not)."""
    from pathlib import Path

    from repro.statcheck import check_paths, get_rules

    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    targets = [src / "precond" / "cache.py"]
    findings, errors = check_paths(targets, get_rules(["determinism"]))
    assert errors == []
    assert findings == [], [f.message for f in findings]
