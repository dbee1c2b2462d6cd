"""Checkpoint integrity, one-shard epochs of a real simulation, and
adaptive-dt restart."""

import io
import struct
import zipfile

import numpy as np
import pytest

from repro.core import CheckpointCorruptError, Simulation, rbc_box_case
from repro.core.output import pack_checkpoint, read_checkpoint
from repro.resilience.distributed import ShardedCheckpointStore


def small_case(**overrides):
    kwargs = dict(n=(2, 2, 2), lx=4, aspect=2.0, dt=5e-3,
                  perturbation_amplitude=0.1, adaptive_cfl=0.3)
    kwargs.update(overrides)
    return rbc_box_case(2e4, **kwargs)


def flip_member_byte(raw, member, offset):
    """``raw`` zip bytes with one byte flipped ``offset`` bytes into the
    compressed data of ``member``."""
    h = zipfile.ZipFile(io.BytesIO(raw)).getinfo(member).header_offset
    name_len, extra_len = struct.unpack("<HH", raw[h + 26 : h + 30])
    out = bytearray(raw)
    out[h + 30 + name_len + extra_len + offset] ^= 0xFF
    return bytes(out)


@pytest.fixture(scope="module")
def warm_sim():
    sim = Simulation(small_case())
    sim.run(n_steps=5)
    return sim


def saved_shard(sim, directory):
    """Save ``sim`` as a one-shard epoch under ``directory``; the shard's path."""
    ShardedCheckpointStore(directory).save_epoch(sim.step_count, [sim.state_arrays()])
    return directory / f"epoch_{sim.step_count:08d}" / "shard_0000.npz"


class TestCheckpointIntegrity:
    def test_write_is_atomic_no_tmp_left(self, warm_sim, tmp_path):
        path = saved_shard(warm_sim, tmp_path)
        assert path.exists()
        assert (path.parent / "manifest.json").exists()
        # The staging area was renamed into place, not left behind.
        assert [p.name for p in tmp_path.iterdir()] == [path.parent.name]

    def test_verify_reports_metadata(self, warm_sim, tmp_path):
        path = saved_shard(warm_sim, tmp_path)
        manifest = ShardedCheckpointStore(tmp_path).verify_epoch(warm_sim.step_count)
        assert manifest.world_size == 1
        data = read_checkpoint(path)
        assert int(data["step_count"]) == warm_sim.step_count
        assert float(data["time"]) == pytest.approx(warm_sim.time)
        assert str(data["checksum"]) == manifest.checksums[0]

    def test_truncated_file_detected(self, warm_sim, tmp_path):
        path = saved_shard(warm_sim, tmp_path)
        raw = path.read_bytes()
        # A truncated file, and a flip that breaks the deflate stream of
        # one member (zlib raises before the zip CRC check could).
        for damaged in (raw[: len(raw) // 2], flip_member_byte(raw, "fx0.npy", 8)):
            path.write_bytes(damaged)
            with pytest.raises(CheckpointCorruptError):
                ShardedCheckpointStore(tmp_path).verify_epoch(warm_sim.step_count)
            sim2 = Simulation(small_case())
            before = sim2.temperature.copy()
            with pytest.raises(CheckpointCorruptError):
                sim2.load_state(read_checkpoint(path))
            # A failed load leaves the simulation untouched.
            assert np.array_equal(sim2.temperature, before)
            assert sim2.step_count == 0

    def test_tampered_payload_fails_checksum(self, warm_sim, tmp_path):
        path = saved_shard(warm_sim, tmp_path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: np.asarray(data[k]).copy() for k in data.files}
        arrays["pressure"].flat[0] += 1.0  # silent corruption, stale checksum
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "entry", ["pressure", "dt", "last_cfl", "scheme_dts", "ft0", "proj_ax0"]
    )
    def test_missing_entry_rejected_before_any_state_changes(self, warm_sim, entry):
        # A checksum-valid checkpoint that lacks one entry.
        arrays = warm_sim.state_arrays()
        assert entry in arrays
        del arrays[entry]
        buf = io.BytesIO()
        pack_checkpoint(arrays, buf)
        buf.seek(0)
        sim2 = Simulation(small_case(dt=2e-3))
        sim2.run(n_steps=1)
        before = {k: np.copy(v) for k, v in sim2.state_arrays().items()}
        with pytest.raises(CheckpointCorruptError, match=entry):
            sim2.load_state(read_checkpoint(buf))
        after = sim2.state_arrays()
        assert before.keys() == after.keys()
        for key, value in before.items():
            assert np.array_equal(after[key], value), key

    def test_missing_file_raises_corrupt_error(self, tmp_path):
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint(tmp_path / "nope.npz")

    def test_roundtrip_via_file_object(self, warm_sim):
        buf = io.BytesIO()
        pack_checkpoint(warm_sim.state_arrays(), buf)
        buf.seek(0)
        sim2 = Simulation(small_case())
        sim2.load_state(read_checkpoint(buf))
        assert sim2.step_count == warm_sim.step_count
        assert np.array_equal(sim2.temperature, warm_sim.temperature)

    def test_checkpoint_without_checksum_rejected(self, warm_sim, tmp_path):
        path = tmp_path / "unchecked.npz"
        np.savez_compressed(path, **warm_sim.state_arrays())
        sim2 = Simulation(small_case())
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            sim2.load_state(read_checkpoint(path))
        assert sim2.step_count == 0


class TestSimulationShards:
    """A real simulation's state saved as a one-shard epoch of the store."""

    def test_verify_epoch_accepts_good_shard(self, tmp_path):
        store = ShardedCheckpointStore(tmp_path, capacity=2)
        sim = Simulation(small_case())
        sim.run(n_steps=1)
        store.save_epoch(sim.step_count, [sim.state_arrays()])
        assert store.verify_epoch(1).world_size == 1

    def test_verify_epoch_catches_torn_shard(self, tmp_path):
        store = ShardedCheckpointStore(tmp_path, capacity=2)
        sim = Simulation(small_case())
        sim.run(n_steps=1)
        store.save_epoch(sim.step_count, [sim.state_arrays()])
        shard = tmp_path / "epoch_00000001" / "shard_0000.npz"
        raw = shard.read_bytes()
        shard.write_bytes(raw[: len(raw) // 2])  # a torn write
        with pytest.raises(CheckpointCorruptError):
            store.verify_epoch(1)


class TestAdaptiveDtRestart:
    """Restart mid-run must reproduce the adaptive dt sequence bit-for-bit."""

    def test_dt_sequence_reproduced_exactly(self, tmp_path):
        sim1 = Simulation(small_case())
        sim1.run(n_steps=8)
        ShardedCheckpointStore(tmp_path).save_epoch(8, [sim1.state_arrays()])
        sim1.run(n_steps=7)
        ref_tail = sim1.history[8:]

        sim2 = Simulation(small_case())
        _, (arrays,), _ = ShardedCheckpointStore(tmp_path).restore_latest()
        sim2.load_state(arrays)
        results = sim2.run(n_steps=7)
        assert [r.dt for r in results] == [r.dt for r in ref_tail]
        assert [r.time for r in results] == [r.time for r in ref_tail]
        assert [r.kinetic_energy for r in results] == [
            r.kinetic_energy for r in ref_tail
        ]
        assert np.array_equal(sim2.temperature, sim1.temperature)
        ux1, _, _ = sim1.velocity
        ux2, _, _ = sim2.velocity
        assert np.array_equal(ux1, ux2)
