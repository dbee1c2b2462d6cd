"""Unit coverage of the DES comm cost model and the batched round log."""

import numpy as np
import pytest

from repro.comm import CommCostModel, CommRound, NodeTopology, SimWorld
from repro.perfmodel.machine import LEONARDO, LUMI, SOFTWARE_OVERHEAD_US


def _round(src, dst, nbytes, phase="gs.request"):
    return CommRound(
        phase=phase,
        src=np.asarray(src, dtype=np.int64),
        dst=np.asarray(dst, dtype=np.int64),
        nbytes=np.asarray(nbytes, dtype=np.int64),
    )


class TestCommRound:
    def test_counts_and_locality_split(self):
        topo = NodeTopology(8, 4)  # nodes {0..3}, {4..7}
        r = _round([0, 0, 1], [1, 4, 5], [100, 200, 300])
        assert r.n_messages == 3
        assert r.total_bytes == 600
        split = r.split_by_locality(topo)
        assert split["intra"] == (1, 100)
        assert split["inter"] == (2, 500)

    def test_empty_round(self):
        r = _round([], [], [])
        assert r.n_messages == 0
        assert r.total_bytes == 0


class TestCommCostModel:
    def test_inter_costs_more_than_intra(self):
        topo = NodeTopology(8, 4)
        model = CommCostModel(LUMI, topology=topo)
        intra = model.edge_costs_us(_round([0], [1], [1024]))
        inter = model.edge_costs_us(_round([0], [4], [1024]))
        assert inter[0] > intra[0] > 0.0

    def test_leader_edges_get_full_node_bandwidth(self):
        topo = NodeTopology(8, 4)
        model = CommCostModel(LUMI, topology=topo)
        nbytes = 10**6
        # Leader-to-leader edge (0 and 4 lead their nodes): the leader owns
        # the whole node NIC, not a 1/ranks_per_node share of it.
        leader = model.edge_costs_us(_round([0], [4], [nbytes]))[0]
        assert leader == pytest.approx(
            LUMI.alpha_us + nbytes * LUMI.beta_us_per_byte / topo.ranks_per_node
        )
        # A non-leader inter-node edge with the same bytes pays the share.
        other = model.edge_costs_us(_round([1], [5], [nbytes]))[0]
        assert leader < other

    def test_nic_message_rate_limits_small_message_floods(self):
        topo = NodeTopology(8, 4)
        model = CommCostModel(LUMI, topology=topo)
        # 16 tiny messages from distinct ranks of node 0 to node 1: each
        # rank is barely busy, but the node NIC pays 16 message slots.
        src = np.tile([0, 1, 2, 3], 4)
        dst = np.tile([4, 5, 6, 7], 4)
        flood = _round(src, dst, np.full(16, 8))
        nic = model.node_nic_us(flood)
        assert nic[0] == pytest.approx(nic[1])
        assert nic[0] >= 16 * SOFTWARE_OVERHEAD_US
        assert model.round_us(flood, 8) == pytest.approx(nic[0])

    def test_intra_only_round_skips_the_nic(self):
        topo = NodeTopology(8, 4)
        model = CommCostModel(LUMI, topology=topo)
        r = _round([0, 1], [2, 3], [64, 64])
        assert model.node_nic_us(r).max() == 0.0

    def test_rank_log_us_sums_rounds_per_rank(self):
        topo = NodeTopology(4, 2)
        model = CommCostModel(LEONARDO, topology=topo)
        rounds = [
            _round([0], [2], [128], phase="gs.request"),
            _round([2], [0], [128], phase="gs.reply"),
            _round([0], [2], [64], phase="gs.request"),
        ]
        per_rank = model.rank_log_us(rounds, 4)
        assert per_rank.shape == (4,)
        np.testing.assert_array_equal(
            per_rank, sum(model.rank_round_us(r, 4) for r in rounds)
        )
        assert per_rank[1] == 0.0 and per_rank[0] > 0.0

    def test_empty_round_prices_to_zero(self):
        model = CommCostModel(LUMI, topology=NodeTopology(4, 2))
        r = _round([], [], [])
        assert model.round_us(r, 4) == 0.0
        assert model.rank_round_us(r, 4).tolist() == [0.0] * 4

    def test_default_topology_is_the_machine_packing(self):
        model = CommCostModel(LUMI)
        assert model.topology.ranks_per_node == LUMI.gpus_per_node
        assert model.topology.n_ranks == LUMI.n_logical_gpus


class TestBatchedWorldLog:
    """``SimWorld.exchange_batched``: one count-only round, returned for pricing."""

    def test_exchange_logs_wire_messages_only(self):
        world = SimWorld(4)
        r = world.exchange_batched(
            np.array([0, 1, 2]), np.array([1, 2, 2]), np.array([16, 32, 64]),
            phase="topo.stage_up",
        )
        assert r.phase == "topo.stage_up"
        # The 2->2 self-message never hits the wire, the round, or the stats.
        assert r.n_messages == 2
        assert r.total_bytes == 48
        assert world.stats.p2p_messages == 2

    def test_exchange_validates_rank_ranges(self):
        world = SimWorld(2)
        with pytest.raises(ValueError):
            world.exchange_batched(np.array([0]), np.array([5]), np.array([8]))
        with pytest.raises(ValueError):
            world.exchange_batched(np.array([0, 1]), np.array([1]), np.array([8]))
