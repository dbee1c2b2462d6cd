"""Tests for the gather--scatter operation and global numbering."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rbc_box_case, rbc_cylinder_case
from repro.sem import gather_scatter
from repro.sem.gather_scatter import GatherScatter, build_global_numbering
from repro.sem.mesh import box_mesh, cylinder_mesh


def mesh_coords(mesh, lx):
    x, y, z = mesh.gll_coordinates(lx)
    return np.stack([x.reshape(-1), y.reshape(-1), z.reshape(-1)], axis=1)


def make_gs(mesh, lx):
    return GatherScatter(
        mesh_coords(mesh, lx), (mesh.nelv, lx, lx, lx), periodic_image=mesh.periodic_image
    )


class TestGlobalNumbering:
    def test_single_element(self):
        m = box_mesh((1, 1, 1))
        x, y, z = m.gll_coordinates(4)
        coords = np.stack([x.reshape(-1), y.reshape(-1), z.reshape(-1)], axis=1)
        ids, n = build_global_numbering(coords)
        assert n == 64
        assert len(np.unique(ids)) == 64

    def test_two_elements_share_face(self):
        m = box_mesh((2, 1, 1))
        lx = 4
        x, y, z = m.gll_coordinates(lx)
        coords = np.stack([x.reshape(-1), y.reshape(-1), z.reshape(-1)], axis=1)
        _, n = build_global_numbering(coords)
        assert n == 2 * lx**3 - lx**2

    def test_periodic_wrapping_reduces_count(self):
        lx = 4
        m_per = box_mesh((2, 1, 1), periodic=(True, False, False))
        m_nop = box_mesh((2, 1, 1))
        gs_p = make_gs(m_per, lx)
        gs_n = make_gs(m_nop, lx)
        # Periodicity merges the two x-extreme faces.
        assert gs_p.n_global == gs_n.n_global - lx**2

    def test_mismatched_shape_raises(self):
        m = box_mesh((1, 1, 1))
        x, y, z = m.gll_coordinates(4)
        coords = np.stack([x.reshape(-1), y.reshape(-1), z.reshape(-1)], axis=1)
        with pytest.raises(ValueError):
            GatherScatter(coords, (1, 3, 3, 3))


def unique_rows_numbering(coords, periodic_image=None, tol=None):
    """Oracle: the row sort ``build_global_numbering`` replaced."""
    quant = gather_scatter._quantised(coords, periodic_image, tol)
    _, inverse = np.unique(quant, axis=0, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64), int(inverse.max()) + 1


# Duplicated rows of a small integer lattice, scaled so coordinates go
# negative; one column may be constant.
point_clouds = st.tuples(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=200),
    st.sampled_from([None, 0, 1, 2]),
)


class TestNumberingOracle:
    """The lexsort numbering equals ``np.unique(quant, axis=0)`` id for id."""

    @pytest.mark.parametrize(
        "config",
        [
            # The spine's periodic box (scalar_transport_p7).
            rbc_box_case(1e7, n=(6, 6, 6), lx=8, aspect=2.0, dt=0.01),
            rbc_cylinder_case(1e5, aspect=1.0, n_square=2, n_ring=2, n_z=2, lx=5),
        ],
        ids=["spine_periodic_box", "cylinder_lx5"],
    )
    def test_mesh(self, config):
        coords = mesh_coords(config.mesh, config.lx)
        ids, n = build_global_numbering(coords, config.mesh.periodic_image)
        want_ids, want_n = unique_rows_numbering(coords, config.mesh.periodic_image)
        assert n == want_n
        assert ids.dtype == np.int64
        np.testing.assert_array_equal(ids, want_ids)

    @settings(max_examples=60, deadline=None)
    @given(cloud=point_clouds, tol=st.sampled_from([None, 0.05, 0.3]))
    def test_point_cloud(self, cloud, tol):
        seed, n_distinct, n_points, constant = cloud
        rng = np.random.default_rng(seed)
        lattice = rng.integers(-20, 21, size=(n_distinct, 3)) * 0.25
        if constant is not None:
            lattice[:, constant] = -1.5
        coords = lattice[rng.integers(0, n_distinct, size=n_points)]
        ids, n = build_global_numbering(coords, tol=tol)
        want_ids, want_n = unique_rows_numbering(coords, tol=tol)
        assert n == want_n
        np.testing.assert_array_equal(ids, want_ids)


class TestGatherScatterOps:
    @pytest.fixture(scope="class")
    def gs(self):
        return make_gs(box_mesh((2, 2, 1)), 4)

    def test_add_on_continuous_multiplies_by_multiplicity(self, gs):
        u = np.ones(gs.shape)
        v = gs.add(u)
        assert np.allclose(v, gs.multiplicity)

    def test_average_identity_on_continuous(self, gs):
        rng = np.random.default_rng(1)
        ug = rng.normal(size=gs.n_global)
        u = gs.scatter_unique(ug)
        assert np.allclose(gs.average(u), u, atol=1e-13)

    def test_add_is_linear(self, gs):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=gs.shape), rng.normal(size=gs.shape)
        assert np.allclose(gs.add(a + 2 * b), gs.add(a) + 2 * gs.add(b), atol=1e-12)

    def test_add_idempotent_structure(self, gs):
        # gs.add(gs.average(u)) == gs.add(u) restructured: average then add
        # equals add (both produce the assembled value at every duplicate).
        rng = np.random.default_rng(3)
        u = rng.normal(size=gs.shape)
        assert np.allclose(gs.add(gs.average(u)), gs.add(u), atol=1e-12)

    def test_add_of_non_contiguous_field(self, gs):
        u = np.random.default_rng(3).normal(size=gs.shape)
        np.testing.assert_array_equal(gs.add(np.asfortranarray(u)), gs.add(u))

    def test_min_max(self, gs):
        u = np.ones(gs.shape)
        flat = u.reshape(-1)
        # Last node of element 0 is the interior corner shared by all four
        # elements of the 2x2x1 box (multiplicity 4).
        k = 4**3 - 1
        flat[k] = -5.0
        dup = gs.global_ids == gs.global_ids[k]
        assert np.count_nonzero(dup) == 4
        v = gs.min(u)
        assert np.all(v.reshape(-1)[dup] == -5.0)
        w = gs.max(u)
        assert np.all(w.reshape(-1)[dup] == 1.0)

    def test_multiplicity_counts(self, gs):
        # Interior nodes multiplicity 1; face nodes 2; edge nodes 4 for 2x2x1.
        m = gs.multiplicity
        assert np.all(m[:, :, 1:-1, 1:-1][:, 1:-1] == 1.0)
        assert m.max() == 4.0

    def test_gather_scatter_unique_roundtrip(self, gs):
        rng = np.random.default_rng(4)
        ug = rng.normal(size=gs.n_global)
        assert np.allclose(gs.gather_unique(gs.scatter_unique(ug)), ug)

    def test_gather_unique_reduce(self, gs):
        u = np.ones(gs.shape)
        red = gs.gather_unique(u, reduce_duplicates=True)
        mult_unique = gs.gather_unique(gs.multiplicity)
        assert np.allclose(red, mult_unique)

    def test_dot_counts_unique_once(self, gs):
        u = np.ones(gs.shape)
        assert gs.dot(u, u) == pytest.approx(gs.n_global)

    def test_cylinder_gs_consistency(self):
        gs = make_gs(cylinder_mesh(n_square=2, n_ring=2, n_z=2), 4)
        rng = np.random.default_rng(5)
        ug = rng.normal(size=gs.n_global)
        u = gs.scatter_unique(ug)
        assert np.allclose(gs.average(u), u, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_average_is_projection(seed):
    """Property: averaging twice equals averaging once (projection onto C^0)."""
    gs = make_gs(box_mesh((2, 1, 1)), 3)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=gs.shape)
    once = gs.average(u)
    twice = gs.average(once)
    assert np.allclose(once, twice, atol=1e-12)


def test_counters_exact_under_concurrent_adds(monkeypatch):
    """Threads adding at once lose no counter update.

    A step's worker thread calls ``add`` beside the stepping thread; each
    counter update is a read-modify-write.  A very short switch interval
    makes the interpreter switch threads inside an unguarded update.  The
    clock advances 1 s per read on each thread, so every add lasts exactly
    1 s and ``seconds`` is exact too.
    """
    local = threading.local()

    def clock():
        local.now = getattr(local, "now", 0.0) + 1.0
        return local.now

    monkeypatch.setattr(gather_scatter, "perf_counter", clock)
    gs = make_gs(box_mesh((1, 1, 1)), 2)
    u = np.ones(gs.shape)
    n_threads, n_adds = 8, 2_000
    start = threading.Barrier(n_threads)

    def worker():
        start.wait(timeout=30)
        for _ in range(n_adds):
            gs.add(u)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert gs.calls == n_threads * n_adds
    assert gs.bytes_moved == n_threads * n_adds * 2 * u.nbytes
    assert gs.seconds == n_threads * n_adds
