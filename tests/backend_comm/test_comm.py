"""Tests for the rank simulator, partitioning and distributed gather-scatter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    BatchedGatherScatter,
    DistributedGatherScatter,
    SimWorld,
    linear_partition,
    partition_quality,
    rcb_partition,
)
from repro.sem.mesh import box_mesh, cylinder_mesh
from repro.sem.space import FunctionSpace


class TestSimWorld:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SimWorld(0)

    def test_allreduce_scalar_ops(self):
        w = SimWorld(3)
        assert w.allreduce_scalar([1.0, 2.0, 3.0]) == 6.0
        assert w.allreduce_scalar([1.0, 2.0, 3.0], "max") == 3.0
        assert w.allreduce_scalar([1.0, 2.0, 3.0], "min") == 1.0
        assert w.stats.allreduce_calls == 3

    def test_allreduce_array(self):
        w = SimWorld(2)
        out = w.allreduce_array([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        assert np.allclose(out, [4.0, 6.0])

    def test_wrong_rank_count_raises(self):
        w = SimWorld(2)
        with pytest.raises(ValueError):
            w.allreduce_scalar([1.0])

    def test_exchange_counts_offrank_only(self):
        w = SimWorld(2)
        out = w.exchange({(0, 1): np.zeros(4), (1, 1): np.zeros(4)})
        assert w.stats.p2p_messages == 1
        assert w.stats.p2p_bytes == 32
        assert set(out) == {(0, 1), (1, 1)}

    def test_exchange_copies(self):
        w = SimWorld(2)
        buf = np.ones(2)
        out = w.exchange({(0, 1): buf})
        buf[:] = 5.0
        assert np.allclose(out[(0, 1)], 1.0)

    def test_gather_counts_traffic_toward_root(self):
        w = SimWorld(4)
        vals = [np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3)]
        out = w.gather(vals, root=2)
        assert all(np.array_equal(a, b) for a, b in zip(out, vals))
        # Every rank except the root sends it one 24-byte message.
        assert w.stats.p2p_messages == 3
        assert w.stats.p2p_bytes == 3 * 24

    def test_gather_invalid_root_raises(self):
        w = SimWorld(2)
        with pytest.raises(ValueError):
            w.gather([1.0, 2.0], root=2)


class TestPartition:
    def test_linear_balance(self):
        p = linear_partition(10, 3)
        counts = np.bincount(p)
        assert counts.tolist() == [4, 3, 3]
        assert np.all(np.diff(p) >= 0)

    def test_linear_invalid(self):
        with pytest.raises(ValueError):
            linear_partition(2, 5)

    def test_rcb_balance(self):
        mesh = box_mesh((4, 4, 2))
        for nr in (2, 3, 4, 7):
            owner = rcb_partition(mesh, nr)
            counts = np.bincount(owner, minlength=nr)
            assert counts.min() >= 1
            assert counts.max() - counts.min() <= max(2, mesh.nelv // nr // 2)

    def test_rcb_spatial_compactness(self):
        # With 2 ranks on an elongated box, RCB must split along x.
        mesh = box_mesh((8, 2, 2), lengths=(8.0, 1.0, 1.0))
        owner = rcb_partition(mesh, 2)
        cent = mesh.corner_coords.reshape(mesh.nelv, 8, 3).mean(axis=1)
        x0 = cent[owner == 0, 0]
        x1 = cent[owner == 1, 0]
        assert x0.max() <= x1.min() or x1.max() <= x0.min()

    def test_quality_metrics(self):
        mesh = box_mesh((4, 2, 2))
        sp = FunctionSpace(mesh, 4)
        owner = rcb_partition(mesh, 4)
        q = partition_quality(owner, sp.gs.global_ids, mesh.nelv, sp.lx**3)
        assert q["n_ranks"] == 4
        assert q["imbalance"] >= 1.0
        assert q["shared_nodes_global"] > 0
        # RCB should not beat the theoretical minimum: one face of shared
        # nodes per cut at least.
        assert q["max_shared_per_rank"] >= sp.lx**2


class TestDistributedGS:
    @pytest.mark.parametrize(
        "partition, nranks, world_size",
        [
            pytest.param("rcb", 1, 1, id="1"),
            pytest.param("rcb", 2, 2, id="2"),
            pytest.param("rcb", 3, 3, id="3"),
            pytest.param("rcb", 4, 4, id="4"),
            pytest.param("rcb", 7, 7, id="rcb-7"),
            pytest.param("linear", 5, 5, id="linear-5"),
            # Ranks 3..5 of the world own no element.
            pytest.param("linear", 3, 6, id="idle-ranks"),
        ],
    )
    def test_matches_single_rank(self, partition, nranks, world_size):
        """``add`` is the batched add bit for bit; add and dot match one rank."""
        mesh = box_mesh((3, 2, 2))
        sp = FunctionSpace(mesh, 4)
        if partition == "rcb":
            owner = rcb_partition(mesh, nranks)
        else:
            owner = linear_partition(mesh.nelv, nranks)
        ids = sp.gs.global_ids
        dgs = DistributedGatherScatter(ids, owner, sp.shape, SimWorld(world_size))
        batched = BatchedGatherScatter(ids, owner, sp.shape, SimWorld(world_size))
        rng = np.random.default_rng(0)
        u = rng.normal(size=sp.shape)
        v = rng.normal(size=sp.shape)
        got = dgs.add(u)
        assert got.tobytes() == batched.add(u, "flat").tobytes()
        assert np.allclose(got, sp.gs.add(u), atol=1e-12)
        assert dgs.dot(u, v) == pytest.approx(sp.gs.dot(u, v), rel=1e-12)

    def test_cylinder_mesh(self):
        mesh = cylinder_mesh(n_square=2, n_ring=1, n_z=2)
        sp = FunctionSpace(mesh, 4)
        world = SimWorld(3)
        owner = rcb_partition(mesh, 3)
        dgs = DistributedGatherScatter(sp.gs.global_ids, owner, sp.shape, world)
        rng = np.random.default_rng(1)
        u = rng.normal(size=sp.shape)
        assert np.allclose(dgs.add(u), sp.gs.add(u), atol=1e-12)

    def test_traffic_recorded(self):
        mesh = box_mesh((2, 2, 1))
        sp = FunctionSpace(mesh, 4)
        world = SimWorld(2)
        owner = linear_partition(mesh.nelv, 2)
        dgs = DistributedGatherScatter(sp.gs.global_ids, owner, sp.shape, world)
        dgs.add(np.ones(sp.shape))
        assert world.stats.p2p_messages > 0
        assert world.stats.p2p_bytes > 0
        assert dgs.n_shared > 0

    def test_single_rank_no_traffic(self):
        mesh = box_mesh((2, 1, 1))
        sp = FunctionSpace(mesh, 4)
        world = SimWorld(1)
        owner = linear_partition(mesh.nelv, 1)
        dgs = DistributedGatherScatter(sp.gs.global_ids, owner, sp.shape, world)
        dgs.add(np.ones(sp.shape))
        assert world.stats.p2p_messages == 0

    def test_dot_matches_single_rank(self):
        mesh = box_mesh((2, 2, 1))
        sp = FunctionSpace(mesh, 4)
        world = SimWorld(2)
        owner = linear_partition(mesh.nelv, 2)
        dgs = DistributedGatherScatter(sp.gs.global_ids, owner, sp.shape, world)
        rng = np.random.default_rng(2)
        a = rng.normal(size=sp.shape)
        b = rng.normal(size=sp.shape)
        got = dgs.dot(a, b)
        assert got == pytest.approx(sp.gs.dot(a, b), rel=1e-12)

    def test_too_many_ranks_rejected(self):
        mesh = box_mesh((2, 1, 1))
        sp = FunctionSpace(mesh, 4)
        with pytest.raises(ValueError):
            DistributedGatherScatter(
                sp.gs.global_ids, np.array([0, 5]), sp.shape, SimWorld(2)
            )


@settings(max_examples=10, deadline=None)
@given(nranks=st.integers(min_value=1, max_value=6), seed=st.integers(0, 100))
def test_property_distributed_gs_rank_invariant(nranks, seed):
    """Property: the dssum result is independent of the rank count."""
    mesh = box_mesh((3, 2, 1))
    sp = FunctionSpace(mesh, 3)
    rng = np.random.default_rng(seed)
    u = rng.normal(size=sp.shape)
    owner = linear_partition(mesh.nelv, nranks)
    dgs = DistributedGatherScatter(sp.gs.global_ids, owner, sp.shape, SimWorld(nranks))
    assert np.allclose(dgs.add(u), sp.gs.add(u), atol=1e-12)
