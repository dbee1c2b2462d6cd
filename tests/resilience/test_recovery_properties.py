"""Property tests: shard round-trips are exact, recovery is idempotent."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.resilience import ResilientRunner
from repro.resilience.distributed import (
    DistributedThermalWorkload,
    ShardedCheckpointStore,
)

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, width=64, min_value=-1e12, max_value=1e12
)


def shard_arrays():
    """A shard's worth of named arrays: varied shapes, finite payloads."""
    return st.dictionaries(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=0x7A),
            min_size=1,
            max_size=8,
        ).filter(lambda s: s != "checksum"),
        hnp.arrays(
            dtype=np.float64,
            shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
            elements=finite_floats,
        ),
        min_size=1,
        max_size=4,
    )


class TestShardRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(shards=st.lists(shard_arrays(), min_size=1, max_size=4), epoch=st.integers(0, 10**6))
    def test_checksummed_round_trip_is_bitwise_exact(self, shards, epoch):
        store = ShardedCheckpointStore()
        manifest = store.save_epoch(epoch, shards)
        assert len(manifest.checksums) == len(shards)
        loaded = store.load_epoch(epoch)
        for got, want in zip(loaded, shards):
            assert sorted(got) == sorted(want)
            for name, arr in want.items():
                assert got[name].dtype == arr.dtype
                assert got[name].shape == arr.shape
                assert np.array_equal(got[name], arr)

    @settings(max_examples=20, deadline=None)
    @given(shards=st.lists(shard_arrays(), min_size=1, max_size=3))
    def test_checksums_are_content_addressed(self, shards):
        a = ShardedCheckpointStore()
        b = ShardedCheckpointStore()
        ma = a.save_epoch(1, shards)
        mb = b.save_epoch(1, [dict(s) for s in shards])
        # Same content, independently packed: identical digests.
        assert ma.checksums == mb.checksums


class TestRecoveryIdempotence:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**16), steps=st.integers(1, 3))
    def test_second_restore_of_same_epoch_is_a_noop(self, seed, steps):
        w = DistributedThermalWorkload(nranks=3, seed=seed)
        runner = ResilientRunner(w, checkpoint_interval=1)
        runner.run(n_steps=steps)
        epoch, shards, _ = runner.store.restore_latest()

        w.restore_shards(shards)
        once = w.temperature.copy()
        step_once, time_once = w.step_count, w.time
        history_once = list(w.history)

        # Restoring the same committed epoch again must change nothing.
        w.restore_shards(shards)
        assert w.step_count == step_once == epoch
        assert w.time == time_once
        assert w.history == history_once
        assert np.array_equal(w.temperature, once)
