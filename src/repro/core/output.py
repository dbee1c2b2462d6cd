"""Field output and checkpoint/restart.

Snapshots are written as compressed ``.npz`` containers (the stand-in for
Neko's ``.fld``/ADIOS2 output); checkpoints capture the full multistep
state so a run restarts bit-for-bit.  The lossy-compressed alternative
lives in :mod:`repro.compression`.

A checkpoint is :meth:`Simulation.state_arrays` in one format with one
writer (:func:`pack_checkpoint`) and one reader (:func:`read_checkpoint`):
a SHA-256 checksum over the payload arrays is stored beside them and
verified on read, so a truncated or bit-flipped checkpoint raises
:class:`CheckpointCorruptError` before ``sim.load_state`` mutates
anything.  Files on disk are epochs of
:class:`~repro.resilience.distributed.shards.ShardedCheckpointStore`,
which writes them atomically (fsync + rename).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import zipfile
import zlib
from typing import IO, TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:
    from repro.core.simulation import Simulation

__all__ = [
    "FieldWriter",
    "CheckpointCorruptError",
    "checkpoint_digest",
    "pack_checkpoint",
    "read_checkpoint",
    "load_snapshot",
]


class CheckpointCorruptError(RuntimeError):
    """A checkpoint file is unreadable, truncated, or fails its checksum."""


class FieldWriter:
    """Writes numbered field snapshots into an output directory.

    Register as an in-situ callback: ``sim.callbacks.append(FieldWriter(dir))``.
    """

    def __init__(self, directory: str | pathlib.Path, prefix: str = "field") -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.prefix = prefix
        self.counter = 0
        self.written: list[pathlib.Path] = []

    def __call__(self, sim: Simulation) -> pathlib.Path:
        ux, uy, uz = sim.velocity
        path = self.directory / f"{self.prefix}{self.counter:05d}.npz"
        np.savez_compressed(
            path,
            ux=ux,
            uy=uy,
            uz=uz,
            temperature=sim.temperature,
            pressure=sim.pressure,
            x=sim.space.x,
            y=sim.space.y,
            z=sim.space.z,
            meta=json.dumps(
                {
                    "time": sim.time,
                    "step": sim.step_count,
                    "rayleigh": sim.config.rayleigh,
                    "prandtl": sim.config.prandtl,
                    "lx": sim.config.lx,
                    "nelv": sim.space.nelv,
                    "case": sim.config.name,
                }
            ),
        )
        self.written.append(path)
        self.counter += 1
        return path


def load_snapshot(path: str | pathlib.Path) -> dict:
    """Load a snapshot written by :class:`FieldWriter`.

    Returns a dict with the field arrays plus the parsed ``meta`` mapping.
    """
    with np.load(path, allow_pickle=False) as data:
        out = {k: data[k] for k in data.files if k != "meta"}
        out["meta"] = json.loads(str(data["meta"]))
    return out


# -- checkpointing --------------------------------------------------------------


def checkpoint_digest(arrays: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over the payload entries (names, dtypes, shapes, bytes).

    The ``checksum`` entry itself is excluded, so the digest of a loaded
    checkpoint can be compared against the stored value.
    """
    h = hashlib.sha256()
    for name in sorted(arrays):
        if name == "checksum":
            continue
        a = np.ascontiguousarray(np.asarray(arrays[name]))
        h.update(name.encode())
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def pack_checkpoint(arrays: Mapping[str, np.ndarray], fh: IO[bytes]) -> str:
    """Write ``arrays`` plus their SHA-256 ``checksum`` entry as npz to ``fh``.

    The one writer of the checkpoint format; returns the checksum.
    """
    named = {k: np.asarray(v) for k, v in arrays.items()}
    digest = checkpoint_digest(named)
    named["checksum"] = np.asarray(digest)
    np.savez_compressed(fh, **named)
    return digest


def read_checkpoint(source: str | pathlib.Path | IO[bytes]) -> dict[str, np.ndarray]:
    """Read and checksum-verify a checkpoint into a plain dict.

    The one reader of the checkpoint format.  All decompression happens
    here, before any simulation state is touched; every failure mode
    (missing file, truncation, bad zip member, corrupt deflate data, no
    or mismatched checksum) surfaces as :class:`CheckpointCorruptError`.
    """
    what = f"checkpoint {source}" if isinstance(source, (str, os.PathLike)) else "checkpoint"
    try:
        with np.load(source, allow_pickle=False) as data:
            out = {k: np.asarray(data[k]) for k in data.files}
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile, zlib.error) as exc:
        raise CheckpointCorruptError(f"unreadable {what}: {exc}") from exc
    stored = str(out.get("checksum", ""))
    actual = checkpoint_digest(out)
    if stored != actual:
        raise CheckpointCorruptError(
            f"{what} failed checksum: stored {stored[:12]}..., computed {actual[:12]}..."
        )
    return out
