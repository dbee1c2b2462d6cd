"""The campaign's two shortcuts reproduce the per-copy engine exactly.

``ScalingCampaign.rounds`` prices a partition from the structured grid's
shared node classes instead of sorting every node copy; its flat and
staged rounds must equal ``BatchedGatherScatter.rounds`` field for field
(phase, src, dst, nbytes and their dtypes).  ``rcb_from_centroids``
bisects one level at a time; its owners must equal the recursive
bisection it replaced, kept here as :func:`recursive_rcb`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import BatchedGatherScatter, NodeTopology, SimWorld, rcb_from_centroids
from repro.comm.campaign import DEFAULT_SHAPE, MACHINES, ScalingCampaign


def assert_same_rounds(got, want):
    assert [r.phase for r in got] == [r.phase for r in want]
    for a, b in zip(got, want):
        for name in ("src", "dst", "nbytes"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype, (a.phase, name)
            assert np.array_equal(x, y), (a.phase, name)


def _check_rounds(campaign, owner, n_ranks, ranks_per_node):
    topology = NodeTopology(n_ranks, ranks_per_node)
    flat, staged = campaign.rounds(owner, topology)
    gs = BatchedGatherScatter(
        campaign.global_ids, owner, campaign.field_shape, SimWorld(n_ranks), topology=topology
    )
    assert_same_rounds(flat, gs.rounds("flat"))
    assert_same_rounds(staged, gs.rounds("topology"))


class TestBlockGeometryRounds:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(*[st.integers(min_value=1, max_value=5)] * 3),
        lx=st.integers(min_value=2, max_value=8),
        n_ranks=st.integers(min_value=1, max_value=40),
        partition=st.sampled_from(["rcb", "random"]),
        ranks_per_node=st.sampled_from([4, 8]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_equal_per_copy_rounds(self, shape, lx, n_ranks, partition, ranks_per_node, seed):
        campaign = ScalingCampaign(MACHINES["lumi"], shape=shape, lx=lx)
        n_ranks = min(n_ranks, campaign.nelv)
        if partition == "rcb":
            owner = rcb_from_centroids(campaign.centroids, n_ranks)
        else:
            owner = np.random.default_rng(seed).integers(0, n_ranks, size=campaign.nelv)
        _check_rounds(campaign, owner, n_ranks, ranks_per_node)

    @pytest.mark.parametrize("n_ranks", [7, 100, 1000, 4096])
    @pytest.mark.parametrize("key", sorted(MACHINES))
    def test_campaign_grid(self, key, n_ranks):
        machine = MACHINES[key]
        campaign = ScalingCampaign(machine, shape=DEFAULT_SHAPE)
        owner = rcb_from_centroids(campaign.centroids, n_ranks)
        _check_rounds(campaign, owner, n_ranks, machine.gpus_per_node)

    def test_interior_classes_are_empty_at_lx_2(self):
        campaign = ScalingCampaign(MACHINES["lumi"], shape=(3, 2, 2), lx=2)
        owner = np.arange(campaign.nelv)
        _check_rounds(campaign, owner, campaign.nelv, 4)


# -- level-synchronous RCB against the recursive one ------------------------------


def recursive_rcb(cent, nranks):
    """The recursive bisection: split the longest extent, stable median cut."""
    cent = np.asarray(cent, dtype=np.float64)
    owner = np.zeros(cent.shape[0], dtype=np.int64)

    def split(idx, ranks):
        if len(ranks) == 1:
            owner[idx] = ranks.start
            return
        spans = cent[idx].max(axis=0) - cent[idx].min(axis=0)
        axis = int(np.argmax(spans))
        order = idx[np.argsort(cent[idx, axis], kind="stable")]
        n_left_ranks = len(ranks) // 2
        n_left = int(round(len(order) * n_left_ranks / len(ranks)))
        n_left = min(max(n_left, n_left_ranks), len(order) - (len(ranks) - n_left_ranks))
        split(order[:n_left], range(ranks.start, ranks.start + n_left_ranks))
        split(order[n_left:], range(ranks.start + n_left_ranks, ranks.stop))

    split(np.arange(cent.shape[0]), range(nranks))
    return owner


class TestLevelSynchronousRcb:
    @pytest.mark.parametrize(
        "n_ranks", [1, 2, 3, 7, 16, 64, 100, 256, 1000, 1024, 4096]
    )
    def test_campaign_grid(self, n_ranks):
        cent = ScalingCampaign(MACHINES["lumi"], shape=DEFAULT_SHAPE).centroids
        assert np.array_equal(rcb_from_centroids(cent, n_ranks), recursive_rcb(cent, n_ranks))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        nelv=st.integers(min_value=1, max_value=300),
        ndim=st.integers(min_value=1, max_value=3),
        ties=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        data=st.data(),
    )
    def test_random_centroids(self, nelv, ndim, ties, seed, data):
        rng = np.random.default_rng(seed)
        if ties:
            cent = rng.integers(0, 4, size=(nelv, ndim)).astype(np.float64)
        else:
            cent = rng.normal(size=(nelv, ndim))
        n_ranks = data.draw(st.integers(min_value=1, max_value=nelv))
        assert np.array_equal(rcb_from_centroids(cent, n_ranks), recursive_rcb(cent, n_ranks))
