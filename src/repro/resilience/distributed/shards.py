"""Coordinated sharded checkpoints with two-phase epoch commits.

At production scale every rank writes its own shard (Neko restart files,
ADIOS2 sub-files); the failure mode that design must exclude is the
*mixed-epoch restore*: a crash while half the ranks have written epoch N
and half still hold epoch N-1 must never yield a restart that silently
mixes the two.  The classic answer -- and the one implemented here -- is
a two-phase protocol:

1. **stage**: every rank's shard is written into a staging area for the
   epoch (``.staging_epoch_NNNNNNNN/`` on disk), each shard in the
   checksummed npz format of :func:`repro.core.output.pack_checkpoint`;
2. **commit**: only when *all* ``world_size`` shards are staged is the
   epoch manifest (shard checksums, world size, metadata) written and the
   staging area atomically renamed to the committed epoch directory.

A reader only ever sees committed epochs; a crash mid-save leaves a
staging directory that the next run discards.  Restores verify each
shard against both its embedded checksum and the manifest entry, and a
corrupt shard fails the *whole epoch* over to the previous committed one
(:meth:`ShardedCheckpointStore.restore_latest`) -- per-epoch consistency
is all-or-nothing, never per-shard.

The store also runs fully in memory (``directory=None``) for the chaos
campaign's many short scenarios and the serial
:class:`~repro.resilience.runner.ResilientRunner`, which saves one-shard
epochs.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import re
import shutil
from dataclasses import asdict, dataclass, field
from typing import Mapping

import numpy as np

from repro.core.output import CheckpointCorruptError, pack_checkpoint, read_checkpoint

__all__ = [
    "ShardCorruptError",
    "EpochManifest",
    "EpochWriter",
    "ShardedCheckpointStore",
]

_EPOCH_RE = re.compile(r"^epoch_(\d{8})$")
_STAGING_PREFIX = ".staging_"

SCHEMA_VERSION = 1


class ShardCorruptError(CheckpointCorruptError):
    """A shard failed its checksum, or an epoch is unreadable/incomplete."""


@dataclass
class EpochManifest:
    """The commit record of one epoch: who wrote what, verified how."""

    epoch: int
    world_size: int
    checksums: list[str]
    meta: dict = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EpochManifest":
        data = json.loads(text)
        return cls(
            epoch=int(data["epoch"]),
            world_size=int(data["world_size"]),
            checksums=[str(c) for c in data["checksums"]],
            meta=dict(data.get("meta", {})),
            schema=int(data.get("schema", SCHEMA_VERSION)),
        )


def _pack_shard(arrays: Mapping[str, np.ndarray]) -> tuple[bytes, str]:
    """Serialize one shard to checkpoint bytes; returns (payload, checksum)."""
    if "checksum" in arrays:
        raise ValueError("'checksum' is a reserved shard entry name")
    buf = io.BytesIO()
    digest = pack_checkpoint(arrays, buf)
    return buf.getvalue(), digest


def _unpack_shard(payload: bytes, expect: str, where: str) -> dict[str, np.ndarray]:
    """Read checkpoint bytes, verifying embedded and manifest checksums."""
    try:
        out = read_checkpoint(io.BytesIO(payload))
    except CheckpointCorruptError as exc:
        raise ShardCorruptError(f"shard {where}: {exc}") from exc
    actual = str(out.pop("checksum"))
    if actual != expect:
        raise ShardCorruptError(
            f"shard {where} disagrees with its epoch manifest: manifest "
            f"{expect[:12]}..., shard {actual[:12]}..."
        )
    return out


class EpochWriter:
    """The stage phase of one epoch save; :meth:`commit` makes it visible.

    Obtained from :meth:`ShardedCheckpointStore.begin_epoch`.  Shards may
    be written in any order; :meth:`commit` refuses until every rank's
    shard is staged, and :meth:`abort` (or simply dropping the writer
    after a crash) leaves the committed epochs untouched.
    """

    def __init__(
        self,
        store: "ShardedCheckpointStore",
        epoch: int,
        world_size: int,
        meta: dict,
    ) -> None:
        self.store = store
        self.epoch = epoch
        self.world_size = world_size
        self.meta = meta
        self.checksums: dict[int, str] = {}
        self._payloads: dict[int, bytes] = {}
        self._staging: pathlib.Path | None = None
        self._done = False
        if store.directory is not None:
            self._staging = store.directory / f"{_STAGING_PREFIX}epoch_{epoch:08d}"
            if self._staging.exists():
                shutil.rmtree(self._staging)
            self._staging.mkdir(parents=True)

    def write_shard(self, rank: int, arrays: Mapping[str, np.ndarray]) -> str:
        """Stage rank ``rank``'s shard; returns its checksum."""
        if self._done:
            raise RuntimeError("epoch writer already committed or aborted")
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} outside world of size {self.world_size}")
        payload, digest = _pack_shard(arrays)
        if self._staging is not None:
            path = self._staging / f"shard_{rank:04d}.npz"
            with open(path, "wb") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
        else:
            self._payloads[rank] = payload
        self.checksums[rank] = digest
        return digest

    def commit(self) -> EpochManifest:
        """Publish the epoch: write the manifest, atomically rename into place.

        Raises ``ShardCorruptError`` if any rank's shard is missing -- an
        epoch is only ever committed whole.
        """
        if self._done:
            raise RuntimeError("epoch writer already committed or aborted")
        missing = [r for r in range(self.world_size) if r not in self.checksums]
        if missing:
            raise ShardCorruptError(
                f"cannot commit epoch {self.epoch}: shards missing for ranks {missing}"
            )
        manifest = EpochManifest(
            epoch=self.epoch,
            world_size=self.world_size,
            checksums=[self.checksums[r] for r in range(self.world_size)],
            meta=self.meta,
        )
        self.store._install(manifest, self._staging, self._payloads)
        self._done = True
        return manifest

    def abort(self) -> None:
        """Discard the staged shards; committed epochs are unaffected."""
        if self._done:
            return
        self._done = True
        self._payloads.clear()
        if self._staging is not None and self._staging.exists():
            shutil.rmtree(self._staging)


class ShardedCheckpointStore:
    """Committed epochs of per-rank shards, on disk or in memory.

    Parameters
    ----------
    directory:
        Root of the epoch directories; ``None`` keeps everything in
        memory (fast, survives world rebuilds but not the process).  An
        existing directory is rescanned -- committed epochs are adopted,
        orphaned staging areas from a crashed save are discarded (and
        listed in :attr:`aborted`).
    capacity:
        Committed epochs retained; the oldest is pruned on commit.  Two
        is the floor that keeps a fallback when the newest epoch turns
        out corrupt.
    """

    def __init__(
        self, directory: str | pathlib.Path | None = None, capacity: int = 2
    ) -> None:
        if capacity < 1:
            raise ValueError("store capacity must be >= 1")
        self.directory = pathlib.Path(directory) if directory is not None else None
        self.capacity = capacity
        self.aborted: list[int] = []
        self._mem: dict[int, tuple[EpochManifest, dict[int, bytes]]] = {}
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._rescan()

    def _rescan(self) -> None:
        for path in sorted(self.directory.iterdir()):
            if not path.is_dir():
                continue
            if path.name.startswith(_STAGING_PREFIX):
                m = re.search(r"epoch_(\d+)$", path.name)
                if m is not None:
                    self.aborted.append(int(m.group(1)))
                shutil.rmtree(path)

    # -- committed-epoch bookkeeping -------------------------------------------

    def _epoch_dir(self, epoch: int) -> pathlib.Path:
        return self.directory / f"epoch_{epoch:08d}"

    def epochs(self) -> list[int]:
        """Committed epoch numbers, oldest first."""
        if self.directory is None:
            return sorted(self._mem)
        out = []
        for path in self.directory.iterdir():
            m = _EPOCH_RE.match(path.name)
            if m is not None and (path / "manifest.json").exists():
                out.append(int(m.group(1)))
        return sorted(out)

    @property
    def latest(self) -> int | None:
        committed = self.epochs()
        return committed[-1] if committed else None

    def __len__(self) -> int:
        return len(self.epochs())

    # -- the two-phase save -----------------------------------------------------

    def begin_epoch(self, epoch: int, world_size: int, **meta) -> EpochWriter:
        """Open the stage phase for ``epoch``; commit via the returned writer."""
        if epoch < 0 or world_size < 1:
            raise ValueError("need epoch >= 0 and world_size >= 1")
        return EpochWriter(self, epoch, world_size, meta)

    def save_epoch(
        self, epoch: int, shards: list[Mapping[str, np.ndarray]], **meta
    ) -> EpochManifest:
        """Convenience: stage every rank's shard and commit in one call."""
        writer = self.begin_epoch(epoch, len(shards), **meta)
        try:
            for rank, arrays in enumerate(shards):
                writer.write_shard(rank, arrays)
        except BaseException:
            writer.abort()
            raise
        return writer.commit()

    def _install(
        self,
        manifest: EpochManifest,
        staging: pathlib.Path | None,
        payloads: dict[int, bytes],
    ) -> None:
        """Commit phase: manifest write + atomic rename (called by the writer)."""
        if self.directory is None:
            self._mem[manifest.epoch] = (manifest, dict(payloads))
        else:
            mpath = staging / "manifest.json"
            with open(mpath, "w", encoding="utf-8") as fh:
                fh.write(manifest.to_json())
                fh.flush()
                os.fsync(fh.fileno())
            final = self._epoch_dir(manifest.epoch)
            if final.exists():  # re-commit of the same epoch replaces it
                shutil.rmtree(final)
            os.replace(staging, final)
        self._prune()

    def _prune(self) -> None:
        committed = self.epochs()
        for epoch in committed[: -self.capacity]:
            self._evict(epoch)

    def _evict(self, epoch: int) -> None:
        if self.directory is None:
            self._mem.pop(epoch, None)
        else:
            target = self._epoch_dir(epoch)
            if target.exists():
                shutil.rmtree(target)

    # -- reading ----------------------------------------------------------------

    def manifest(self, epoch: int) -> EpochManifest:
        """The commit record of ``epoch``; raises if not committed."""
        if self.directory is None:
            if epoch not in self._mem:
                raise ShardCorruptError(f"epoch {epoch} is not committed")
            return self._mem[epoch][0]
        mpath = self._epoch_dir(epoch) / "manifest.json"
        try:
            with open(mpath, "r", encoding="utf-8") as fh:
                return EpochManifest.from_json(fh.read())
        except (OSError, ValueError, KeyError) as exc:
            raise ShardCorruptError(f"epoch {epoch} has no readable manifest: {exc}") from exc

    def _shard_payload(self, epoch: int, rank: int) -> bytes:
        if self.directory is None:
            payloads = self._mem[epoch][1]
            if rank not in payloads:
                raise ShardCorruptError(f"epoch {epoch} shard for rank {rank} missing")
            return payloads[rank]
        path = self._epoch_dir(epoch) / f"shard_{rank:04d}.npz"
        try:
            return path.read_bytes()
        except OSError as exc:
            raise ShardCorruptError(f"epoch {epoch} shard for rank {rank}: {exc}") from exc

    def load_shard(self, epoch: int, rank: int) -> dict[str, np.ndarray]:
        """One rank's verified shard from a committed epoch."""
        manifest = self.manifest(epoch)
        if not 0 <= rank < manifest.world_size:
            raise ValueError(f"rank {rank} outside epoch {epoch}'s world")
        return _unpack_shard(
            self._shard_payload(epoch, rank),
            manifest.checksums[rank],
            f"epoch {epoch} rank {rank}",
        )

    def load_epoch(self, epoch: int) -> list[dict[str, np.ndarray]]:
        """Every rank's verified shard; raises on the first corrupt one."""
        manifest = self.manifest(epoch)
        return [self.load_shard(epoch, r) for r in range(manifest.world_size)]

    def verify_epoch(self, epoch: int) -> EpochManifest:
        """Re-read and checksum every shard of ``epoch``; returns its manifest."""
        manifest = self.manifest(epoch)
        self.load_epoch(epoch)
        return manifest

    def restore_latest(
        self,
    ) -> tuple[int, list[dict[str, np.ndarray]], list[int]]:
        """The newest fully-valid epoch's shards, falling back over corrupt ones.

        Walks committed epochs newest-to-oldest; an epoch with any corrupt
        shard is skipped *whole* (and evicted, so it cannot masquerade as
        the newest epoch later).  Returns ``(epoch, shards,
        skipped_epochs)``; raises :class:`ShardCorruptError` when nothing
        valid remains.
        """
        skipped: list[int] = []
        for epoch in reversed(self.epochs()):
            try:
                shards = self.load_epoch(epoch)
            except ShardCorruptError:
                skipped.append(epoch)
                continue
            for bad in skipped:
                self._evict(bad)
            return epoch, shards, skipped
        for bad in skipped:
            self._evict(bad)
        raise ShardCorruptError(
            f"no globally consistent epoch among {len(skipped)} committed entries"
        )
