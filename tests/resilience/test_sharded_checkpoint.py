"""Two-phase sharded epoch commits: atomicity, checksums, fallback."""

import numpy as np
import pytest

from repro.resilience.distributed import (
    EpochManifest,
    ShardCorruptError,
    ShardedCheckpointStore,
)
from tests.resilience.test_checkpoint import flip_member_byte


def shards_for(epoch, world_size=3, n=5):
    rng = np.random.default_rng(epoch)
    return [
        {"temperature": rng.standard_normal(n), "step": np.asarray(epoch)}
        for _ in range(world_size)
    ]


class TestTwoPhaseCommit:
    def test_uncommitted_epoch_is_invisible(self, tmp_path):
        store = ShardedCheckpointStore(tmp_path)
        writer = store.begin_epoch(1, world_size=2)
        writer.write_shard(0, {"a": np.ones(3)})
        # One shard staged, nothing committed: readers see no epoch.
        assert store.epochs() == []
        assert store.latest is None

    def test_commit_refuses_missing_shards(self, tmp_path):
        store = ShardedCheckpointStore(tmp_path)
        writer = store.begin_epoch(1, world_size=3)
        writer.write_shard(0, {"a": np.ones(3)})
        writer.write_shard(2, {"a": np.ones(3)})
        with pytest.raises(ShardCorruptError, match=r"ranks \[1\]"):
            writer.commit()

    def test_commit_publishes_whole_epoch(self, tmp_path):
        store = ShardedCheckpointStore(tmp_path)
        manifest = store.save_epoch(2, shards_for(2))
        assert isinstance(manifest, EpochManifest)
        assert store.epochs() == [2]
        assert len(manifest.checksums) == 3
        loaded = store.load_epoch(2)
        for got, want in zip(loaded, shards_for(2)):
            assert np.array_equal(got["temperature"], want["temperature"])

    def test_abort_discards_staging(self, tmp_path):
        store = ShardedCheckpointStore(tmp_path)
        store.save_epoch(1, shards_for(1))
        writer = store.begin_epoch(2, world_size=3)
        writer.write_shard(0, {"a": np.ones(3)})
        writer.abort()
        assert store.epochs() == [1]
        assert list(tmp_path.glob(".staging_*")) == []

    def test_crash_mid_save_cannot_mix_epochs(self, tmp_path):
        # Epoch 1 committed; a "crash" leaves epoch 2 half-staged.  The
        # next process must restore pure epoch 1 -- never a 1/2 mixture.
        store = ShardedCheckpointStore(tmp_path)
        store.save_epoch(1, shards_for(1))
        writer = store.begin_epoch(2, world_size=3)
        writer.write_shard(0, shards_for(2)[0])
        del writer  # crash: no commit, no abort

        store2 = ShardedCheckpointStore(tmp_path)
        assert store2.aborted == [2]
        epoch, shards, skipped = store2.restore_latest()
        assert epoch == 1 and skipped == []
        for got, want in zip(shards, shards_for(1)):
            assert np.array_equal(got["temperature"], want["temperature"])

    def test_capacity_prunes_oldest(self, tmp_path):
        store = ShardedCheckpointStore(tmp_path, capacity=2)
        for epoch in (1, 2, 3):
            store.save_epoch(epoch, shards_for(epoch))
        assert store.epochs() == [2, 3]
        assert not (tmp_path / "epoch_00000001").exists()


class TestShardVerification:
    def test_corrupt_shard_fails_whole_epoch_over(self, tmp_path):
        store = ShardedCheckpointStore(tmp_path, capacity=3)
        store.save_epoch(1, shards_for(1))
        store.save_epoch(2, shards_for(2))
        # Mangle a swath of one shard of the newest epoch (a single-byte
        # flip can land in inert zip padding; a range cannot).
        victim = tmp_path / "epoch_00000002" / "shard_0001.npz"
        raw = bytearray(victim.read_bytes())
        for off in range(80, 180):
            raw[off] ^= 0xFF
        victim.write_bytes(bytes(raw))

        with pytest.raises(ShardCorruptError):
            store.verify_epoch(2)
        epoch, shards, skipped = store.restore_latest()
        # Per-epoch consistency is all-or-nothing: the epoch with one bad
        # shard is skipped whole and evicted.
        assert epoch == 1 and skipped == [2]
        assert store.epochs() == [1]

    def test_corrupt_deflate_stream_falls_back(self, tmp_path):
        store = ShardedCheckpointStore(tmp_path, capacity=3)
        store.save_epoch(1, shards_for(1, world_size=1))
        store.save_epoch(2, shards_for(2, world_size=1))
        # One flipped byte that breaks the deflate stream of the newest
        # epoch's only shard: zlib raises, not the zip CRC check.
        victim = tmp_path / "epoch_00000002" / "shard_0000.npz"
        victim.write_bytes(flip_member_byte(victim.read_bytes(), "temperature.npy", 0))

        with pytest.raises(ShardCorruptError, match="decompressing"):
            store.verify_epoch(2)
        epoch, shards, skipped = store.restore_latest()
        assert epoch == 1 and skipped == [2]
        (want,) = shards_for(1, world_size=1)
        assert np.array_equal(shards[0]["temperature"], want["temperature"])

    def test_manifest_mismatch_detected(self, tmp_path):
        store = ShardedCheckpointStore(tmp_path)
        store.save_epoch(1, shards_for(1, world_size=2))
        # Swap the two shards' files: each still passes its embedded
        # checksum but disagrees with the manifest entry for its slot.
        d = tmp_path / "epoch_00000001"
        a, b = d / "shard_0000.npz", d / "shard_0001.npz"
        pa, pb = a.read_bytes(), b.read_bytes()
        a.write_bytes(pb)
        b.write_bytes(pa)
        with pytest.raises(ShardCorruptError, match="manifest"):
            store.load_shard(1, 0)

    def test_nothing_valid_raises(self):
        store = ShardedCheckpointStore()
        with pytest.raises(ShardCorruptError):
            store.restore_latest()

    def test_reserved_entry_name_rejected(self):
        store = ShardedCheckpointStore()
        writer = store.begin_epoch(0, world_size=1)
        with pytest.raises(ValueError, match="reserved"):
            writer.write_shard(0, {"checksum": np.ones(1)})


class TestInMemoryStore:
    def test_round_trip_and_pruning(self):
        store = ShardedCheckpointStore(capacity=2)
        for epoch in (1, 2, 3):
            store.save_epoch(epoch, shards_for(epoch))
        assert store.epochs() == [2, 3]
        epoch, shards, skipped = store.restore_latest()
        assert epoch == 3 and skipped == []
        for got, want in zip(shards, shards_for(3)):
            assert np.array_equal(got["temperature"], want["temperature"])

    def test_manifest_meta_round_trips(self):
        store = ShardedCheckpointStore()
        store.save_epoch(4, shards_for(4), time=0.2, note="baseline")
        manifest = store.manifest(4)
        assert manifest.meta == {"time": 0.2, "note": "baseline"}
        assert EpochManifest.from_json(manifest.to_json()) == manifest
