"""Property suite: one world, one index, every transport agrees bit for bit.

:class:`~repro.comm.distributed_gs.DistributedGatherScatter` (per-rank
chunks, (gid, value) buffers through ``SimWorld.exchange``) and
:class:`~repro.comm.topology.BatchedGatherScatter` (a stacked field,
count-only rounds) reduce on the same
:class:`~repro.comm.topology.CopyIndex`.  The per-rank add is checked
against :func:`reference_add`, the per-node dict two-phase add it
replaced, kept here as an oracle: results, traffic counters and every
injected-fault outcome must match exactly, with faults on and off.
Hypothesis drives random meshes, partitions, payloads and fault seeds
and compares bits, not tolerances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    BatchedGatherScatter,
    CollectiveIntegrityError,
    CommTimeoutError,
    DistributedGatherScatter,
    NodeTopology,
    RetryPolicy,
    SimWorld,
)
from repro.comm import topology
from repro.comm.campaign import structured_global_ids
from repro.resilience.faults import Fault, FaultInjector, RankFailedError

# -- strategies ------------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**31 - 1)

mesh_shapes = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)


def _mesh_and_partition(shape, lx, nranks, seed):
    """A structured mesh with a random (every-rank-used) partition."""
    ids, _cent = structured_global_ids(shape, lx)
    nelv = int(np.prod(shape))
    rng = np.random.default_rng(seed)
    owner = rng.integers(0, nranks, size=nelv)
    # Guarantee every rank owns at least one element when possible, so
    # the partition exercises the whole world.
    for r in range(min(nranks, nelv)):
        owner[r] = r
    return ids, owner, (nelv, lx, lx, lx)


def _stats_dict(stats):
    return dict(stats.__dict__)


# -- the per-node dict add, kept as the oracle -----------------------------------


def reference_add(ids, owner, shape, world, chunks):
    """Two-phase dssum with per-node dicts: partials to owners, totals back."""
    ids = ids.reshape(shape[0], -1)
    local = [np.unique(ids[owner == r].reshape(-1), return_inverse=True) for r in range(world.size)]
    holders = {}
    for r, (uniq, _) in enumerate(local):
        for g in uniq.tolist():
            holders.setdefault(g, []).append(r)
    shared = {g: h for g, h in holders.items() if len(h) > 1}
    sums = [
        np.bincount(inv, weights=c.reshape(-1), minlength=len(uniq))
        for (uniq, inv), c in zip(local, chunks)
    ]
    sends = {}
    for r, (uniq, _) in enumerate(local):
        for g, v in zip(uniq.tolist(), sums[r].tolist()):
            if g in shared:
                sends.setdefault((r, shared[g][0]), []).append((g, v))
    delivered = world.exchange({k: np.array(v, dtype=np.float64) for k, v in sends.items()})
    totals = {}
    for _edge, arr in sorted(delivered.items()):
        for g, v in arr:
            totals[int(g)] = totals.get(int(g), 0.0) + v
    replies = {}
    for g in sorted(shared):
        for h in shared[g]:
            replies.setdefault((shared[g][0], h), []).append((g, totals[g]))
    back = world.exchange({k: np.array(v, dtype=np.float64) for k, v in replies.items()})
    out = []
    for r, (uniq, inv) in enumerate(local):
        slot_of = {g: i for i, g in enumerate(uniq.tolist())}
        for (_o, dst), arr in back.items():
            for g, v in arr if dst == r else ():
                sums[r][slot_of[int(g)]] = v
        out.append(sums[r][inv].reshape(chunks[r].shape))
    return out


def _outcome(make_world, add_of, chunks):
    """Two adds and an allreduce on a fresh world: bytes, counters, fault log."""
    world = make_world()
    add = add_of(world)
    try:
        out = add(add([c.copy() for c in chunks]))
        total = world.allreduce_scalar([float(np.sum(c)) for c in out])
        result = (b"".join(c.tobytes() for c in out), np.float64(total).tobytes())
    except (CommTimeoutError, CollectiveIntegrityError, RankFailedError) as exc:
        result = type(exc).__name__
    inj = world.fault_injector
    return result, _stats_dict(world.stats), repr(inj.events) if inj else None


def _assert_matches_reference(shape, lx, nranks, seed, make_world):
    ids, owner, fshape = _mesh_and_partition(shape, lx, nranks, seed)
    u = np.random.default_rng(seed).normal(size=fshape)
    chunks = [u[owner == r] for r in range(nranks)]

    def new(world):
        dgs = DistributedGatherScatter(ids, owner, fshape, world)
        return lambda ch: dgs.scatter_field(dgs.add(dgs.gather_field(ch)))

    def old(world):
        return lambda ch: reference_add(ids, owner, fshape, world, ch)

    assert _outcome(make_world, new, chunks) == _outcome(make_world, old, chunks)


class TestDistributedAddMatchesReference:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        shape=mesh_shapes,
        lx=st.integers(min_value=2, max_value=4),
        nranks=st.integers(min_value=1, max_value=6),
        seed=seeds,
    )
    def test_fault_free(self, shape, lx, nranks, seed):
        _assert_matches_reference(shape, lx, nranks, seed, lambda: SimWorld(nranks))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        shape=mesh_shapes,
        lx=st.integers(min_value=2, max_value=3),
        nranks=st.integers(min_value=2, max_value=6),
        seed=seeds,
        rates=st.tuples(*[st.sampled_from([0.0, 0.1, 0.3])] * 3),
        max_retries=st.integers(min_value=1, max_value=6),
    )
    def test_message_storms_under_retry(self, shape, lx, nranks, seed, rates, max_retries):
        drop, corrupt, delay = rates

        def make_world():
            return SimWorld(
                nranks,
                fault_injector=FaultInjector(
                    seed=seed, drop_rate=drop, corrupt_rate=corrupt, delay_rate=delay
                ),
                retry=RetryPolicy(max_retries=max_retries),
            )

        _assert_matches_reference(shape, lx, nranks, seed, make_world)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        shape=mesh_shapes,
        nranks=st.integers(min_value=2, max_value=6),
        seed=seeds,
        kind=st.sampled_from(["collective_sdc", "rank_failure"]),
    )
    def test_collective_faults_without_retry(self, shape, nranks, seed, kind):
        def make_world():
            fault = Fault(kind=kind, rank=1, at_call=0, op="allreduce")
            return SimWorld(
                nranks,
                fault_injector=FaultInjector(seed=seed, schedule=[fault]),
                verify_collectives=True,
            )

        _assert_matches_reference(shape, 3, nranks, seed, make_world)


# -- gather-scatter --------------------------------------------------------------


class TestGatherScatterEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        shape=mesh_shapes,
        lx=st.integers(min_value=2, max_value=4),
        nranks=st.integers(min_value=2, max_value=6),
        rpn=st.integers(min_value=1, max_value=4),
        seed=seeds,
    )
    def test_flat_equals_topology_to_zero_ulp(self, shape, lx, nranks, rpn, seed):
        ids, owner, fshape = _mesh_and_partition(shape, lx, nranks, seed)
        world = SimWorld(nranks)
        gs = BatchedGatherScatter(
            ids, owner, fshape, world, topology=NodeTopology(nranks, rpn)
        )
        u = np.random.default_rng(seed).normal(size=fshape)
        assert gs.add(u, "flat").tobytes() == gs.add(u, "topology").tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        shape=mesh_shapes,
        lx=st.integers(min_value=2, max_value=4),
        nranks=st.integers(min_value=2, max_value=6),
        seed=seeds,
    )
    def test_batched_bitmatches_legacy_dgs(self, shape, lx, nranks, seed):
        """Results AND TrafficStats match the per-rank buffer path exactly."""
        ids, owner, fshape = _mesh_and_partition(shape, lx, nranks, seed)
        u = np.random.default_rng(seed).normal(size=fshape)

        legacy_world = SimWorld(nranks)
        dgs = DistributedGatherScatter(ids, owner, fshape, legacy_world)
        legacy = dgs.add(u.copy())

        batched_world = SimWorld(nranks)
        gs = BatchedGatherScatter(ids, owner, fshape, batched_world)
        batched = gs.add(u.copy(), "flat")

        assert legacy.tobytes() == batched.tobytes()
        assert _stats_dict(legacy_world.stats) == _stats_dict(batched_world.stats)

    @settings(max_examples=20, deadline=None)
    @given(
        shape=mesh_shapes,
        lx=st.integers(min_value=2, max_value=4),
        nranks=st.integers(min_value=1, max_value=6),
        seed=seeds,
    )
    def test_matches_serial_reference(self, shape, lx, nranks, seed):
        """The distributed dssum equals a one-pass serial bincount dssum."""
        ids, owner, fshape = _mesh_and_partition(shape, lx, nranks, seed)
        u = np.random.default_rng(seed).normal(size=fshape)
        totals = np.bincount(ids, weights=u.reshape(-1))
        reference = totals[ids].reshape(fshape)
        world = SimWorld(nranks)
        gs = BatchedGatherScatter(ids, owner, fshape, world)
        assert np.allclose(gs.add(u, "flat"), reference, rtol=1e-13, atol=1e-13)

    def test_topology_moves_traffic_off_the_network(self):
        """Staging reduces inter-node messages without changing bytes entering ranks."""
        ids, owner, fshape = _mesh_and_partition((3, 3, 3), 3, 6, seed=7)
        world = SimWorld(6)
        gs = BatchedGatherScatter(ids, owner, fshape, world, topology=NodeTopology(6, 2))
        flat = gs.traffic_summary("flat")
        topo = gs.traffic_summary("topology")
        assert topo["inter_messages"] <= flat["inter_messages"]

    def test_faulted_world_refused(self):
        ids, owner, fshape = _mesh_and_partition((2, 2, 2), 3, 2, seed=0)
        world = SimWorld(2, fault_injector=FaultInjector(seed=1, drop_rate=0.5))
        with pytest.raises(ValueError):
            BatchedGatherScatter(ids, owner, fshape, world)

    def test_batched_exchange_refuses_faulted_world(self):
        world = SimWorld(2, fault_injector=FaultInjector(seed=1, drop_rate=0.5))
        with pytest.raises(RuntimeError):
            world.exchange_batched(
                np.array([0]), np.array([1]), np.array([8])
            )


class TestCopyOrder:
    """``CopyIndex``'s fused-key sort is the (gid, rank) lexsort it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=seeds,
        n_gids=st.integers(min_value=1, max_value=40),
        n_ranks=st.integers(min_value=1, max_value=9),
        n_copies=st.integers(min_value=1, max_value=400),
    )
    def test_random_copies(self, seed, n_gids, n_ranks, n_copies):
        # Few gids and ranks against many copies: (gid, rank) pairs repeat,
        # so an unstable sort would permute the copies of a slot.
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, n_gids, size=n_copies)
        rank = rng.integers(0, n_ranks, size=n_copies)
        np.testing.assert_array_equal(
            topology._copy_order(ids, rank), np.lexsort((rank, ids))
        )

    @settings(max_examples=10, deadline=None)
    @given(
        shape=mesh_shapes,
        lx=st.integers(min_value=2, max_value=4),
        nranks=st.integers(min_value=1, max_value=6),
        seed=seeds,
    )
    def test_partitioned_mesh(self, shape, lx, nranks, seed):
        ids, owner, fshape = _mesh_and_partition(shape, lx, nranks, seed)
        rank = np.repeat(owner, int(np.prod(fshape[1:])))
        np.testing.assert_array_equal(
            topology._copy_order(ids, rank), np.lexsort((rank, ids))
        )
