"""Field output and checkpoint/restart.

Snapshots are written as compressed ``.npz`` containers (the stand-in for
Neko's ``.fld``/ADIOS2 output); checkpoints capture the full multistep
state so a run restarts bit-for-bit.  The lossy-compressed alternative
lives in :mod:`repro.compression`.

Checkpoints are production-grade: written atomically (tmp file + rename,
so a crash mid-write can never leave a half-checkpoint under the final
name), carry a SHA-256 checksum over the payload arrays, and are verified
on load -- a truncated or bit-flipped file raises
:class:`CheckpointCorruptError` *before* any simulation state is mutated.
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
    "write_checkpoint",
    "load_checkpoint",
    "verify_checkpoint",
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


def write_checkpoint(sim: Simulation, path: str | pathlib.Path | IO[bytes]) -> None:
    """Save :meth:`Simulation.state_arrays` for exact restart.

    File targets are written atomically: the payload goes to a ``.tmp``
    sibling which is then renamed over the final path, so readers never
    observe a partially written checkpoint.  A SHA-256 checksum over the
    payload is stored alongside the arrays and verified by
    :func:`load_checkpoint`.  ``path`` may also be a writable binary
    file object.
    """
    arrays = sim.state_arrays()
    if hasattr(path, "write"):
        pack_checkpoint(arrays, path)
        return
    path = pathlib.Path(path)
    if path.suffix != ".npz":  # mirror np.savez's implicit suffix
        path = path.with_name(path.name + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            pack_checkpoint(arrays, fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def verify_checkpoint(path: str | pathlib.Path | IO[bytes]) -> dict:
    """Validate a checkpoint without touching any simulation.

    Returns a small metadata dict (``step``, ``time``, ``dt``, ``checksum``);
    raises :class:`CheckpointCorruptError` if the file is damaged.
    """
    data = read_checkpoint(path)
    return {
        "step": int(data["step_count"]),
        "time": float(data["time"]),
        "dt": float(data["dt"]),
        "checksum": str(data["checksum"]),
    }


def load_checkpoint(sim: Simulation, path: str | pathlib.Path | IO[bytes]) -> None:
    """Restore a simulation's state from :func:`write_checkpoint` output.

    The file is fully read and checksum-verified *before*
    :meth:`Simulation.load_state` mutates anything, so a corrupt
    checkpoint leaves ``sim`` untouched.
    """
    sim.load_state(read_checkpoint(path))
