"""Deterministic fault injection for testing recovery paths.

Every failure mode the resilience layer claims to survive must be
producible on demand, bit-for-bit reproducibly.  A :class:`FaultInjector`
carries a seeded RNG plus an explicit :class:`Fault` schedule and exposes
three hook surfaces:

* **message faults** -- :meth:`deliver` is called by
  :meth:`SimWorld.exchange` for every point-to-point buffer and may drop
  it (zeros delivered), corrupt it (seeded bit flip in one element) or
  delay it (the *previous* buffer sent on that edge is delivered instead);
* **rank failures** -- :meth:`on_collective` is called at the top of every
  :class:`SimWorld` collective and raises :class:`RankFailedError` when a
  scheduled one-shot failure fires (modelling a failed-then-respawned
  rank, as in ULFM-style MPI practice);
* **silent data corruption** -- :meth:`apply_field_faults` flips bits (or
  plants NaN) in one array of an application's state shards at scheduled
  step numbers and installs the corrupted state, the classic SDC scenario.

Scheduled faults fire exactly once, so a rollback that replays the same
steps does not re-trigger them -- the transient-fault model.

Two additions serve the chaos harness (:mod:`repro.resilience.chaos`):

* **targeted collective faults** -- a ``rank_failure`` (or
  ``collective_sdc``) entry names its collective family, and
  ``op="allreduce"`` indexes the Nth *allreduce*, so "kill rank 2 at its
  5th allreduce" is expressible independent of how many barriers
  interleave;
* **replay logs** -- :meth:`FaultInjector.export_replay` captures the
  seed, rates, schedule and every fired event as a JSON-able dict, and
  :meth:`FaultInjector.from_replay` rebuilds an injector that reproduces
  the identical fault sequence, so any chaos run can be replayed from its
  report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["Fault", "FaultEvent", "FaultInjector", "RankFailedError"]


class RankFailedError(RuntimeError):
    """A simulated rank died during a collective."""

    def __init__(self, rank: int, op: str = "") -> None:
        self.rank = rank
        self.op = op
        super().__init__(f"rank {rank} failed during {op or 'collective'}")


@dataclass
class Fault:
    """One scheduled fault.

    ``kind`` selects the mechanism and which trigger field applies:

    ============== ============ =========================================
    kind            trigger      effect
    ============== ============ =========================================
    drop            at_call      p2p message ``at_call`` delivers zeros
    corrupt         at_call      p2p message ``at_call`` gets a bit flip
    delay           at_call      p2p message ``at_call`` delivers stale data
    rank_failure    at_call      collective ``at_call`` raises RankFailedError
    collective_sdc  at_call      collective *result* ``at_call`` gets a bit flip
    sdc             at_step      state ``target`` of shard ``rank`` corrupted
                                 once step >= at_step
    ============== ============ =========================================

    An ``sdc`` ``target`` is a key of the application's state shards
    (``state_shards()``), a key of
    :meth:`~repro.core.simulation.Simulation.state_arrays`: ``"t0"``,
    ``"pressure"``, ``"u0"``, ...

    ``at_call`` indexes the injector's own per-surface call counters
    (p2p messages for drop/corrupt/delay, collective entries for
    rank_failure, collective results for collective_sdc).  The two
    collective kinds must name ``op``, the collective family whose calls
    ``at_call`` counts (``"allreduce"``, ``"barrier"``, ``"gather"``):
    ``op="allreduce", at_call=4`` fires at the fifth *allreduce* regardless
    of interleaved barriers.  ``mode`` applies to sdc/collective_sdc: ``"bitflip"``
    (seeded XOR of one bit in one element) or ``"nan"``.
    """

    kind: str
    at_call: int | None = None
    at_step: int | None = None
    target: str = "t0"
    rank: int = 0
    mode: str = "bitflip"
    op: str | None = None

    def __post_init__(self) -> None:
        if self.kind in ("rank_failure", "collective_sdc") and self.op is None:
            raise ValueError(f"a {self.kind} fault must name its collective op")


@dataclass
class FaultEvent:
    """Record of one fault that actually fired."""

    kind: str
    index: int
    detail: str = ""
    data: dict = field(default_factory=dict)


class FaultInjector:
    """Seeded fault source; hooks into :class:`SimWorld` and the runner.

    Parameters
    ----------
    seed:
        Seeds the RNG used for probabilistic faults, corrupted-element
        choice and bit positions; identical seeds and call sequences give
        identical faults.
    schedule:
        Explicit :class:`Fault` list; each entry fires at most once.
    drop_rate, corrupt_rate, delay_rate:
        Optional per-message probabilities for random message faults on
        top of the explicit schedule.
    """

    def __init__(
        self,
        seed: int = 0,
        schedule: list[Fault] | tuple[Fault, ...] = (),
        drop_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        delay_rate: float = 0.0,
    ) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.schedule = list(schedule)
        self.drop_rate = drop_rate
        self.corrupt_rate = corrupt_rate
        self.delay_rate = delay_rate
        self.events: list[FaultEvent] = []
        self._fired: set[int] = set()
        self._p2p_calls = 0
        # Per-family collective counters ("allreduce", "barrier", "gather");
        # separate entry/result counters mirror the two hook surfaces.
        self._op_calls: dict[str, int] = {}
        self._op_result_calls: dict[str, int] = {}
        # Last buffer seen per (src, dst) edge, for stale ("delayed") delivery.
        self._last_sent: dict[tuple[int, int], np.ndarray] = {}

    # -- schedule matching -----------------------------------------------------

    def _take_scheduled(
        self, kinds: tuple[str, ...], *, at_call: int | None = None, at_step: int | None = None
    ) -> Fault | None:
        """Pop (mark fired) the first pending schedule entry that matches."""
        for i, f in enumerate(self.schedule):
            if i in self._fired or f.kind not in kinds:
                continue
            if at_call is not None and f.at_call == at_call:
                self._fired.add(i)
                return f
            if at_step is not None and f.at_step is not None and at_step >= f.at_step:
                self._fired.add(i)
                return f
        return None

    def _record(self, kind: str, index: int, detail: str = "", **data) -> FaultEvent:
        ev = FaultEvent(kind=kind, index=index, detail=detail, data=data)
        self.events.append(ev)
        return ev

    @staticmethod
    def _op_family(op: str) -> str:
        """Collective family of an op name: ``allreduce_scalar`` -> ``allreduce``."""
        return op.split("_", 1)[0]

    def _take_collective(self, kind: str, family: str, op_idx: int) -> Fault | None:
        """Pop the first pending ``kind`` fault at call ``op_idx`` of ``family``."""
        for i, f in enumerate(self.schedule):
            if i in self._fired or f.kind != kind:
                continue
            if f.op == family and f.at_call == op_idx:
                self._fired.add(i)
                return f
        return None

    # -- collective hook (SimWorld.allreduce_* / barrier / gather) -------------

    def on_collective(self, op: str) -> None:
        """Raise :class:`RankFailedError` if a scheduled rank failure fires."""
        family = self._op_family(op)
        op_idx = self._op_calls.get(family, 0)
        self._op_calls[family] = op_idx + 1
        f = self._take_collective("rank_failure", family, op_idx)
        if f is not None:
            self._record(
                "rank_failure",
                op_idx,
                f"rank {f.rank} died in {family} #{op_idx}",
                rank=f.rank,
                op=op,
            )
            raise RankFailedError(f.rank, op)

    # -- collective-result hook (replicated-checksum integrity check) ----------

    def deliver_collective(self, op: str, result: np.ndarray) -> np.ndarray:
        """Return the collective result a rank actually observes.

        Called once per *replica* by :class:`~repro.comm.simworld.SimWorld`
        when collective verification is enabled; a scheduled
        ``collective_sdc`` entry corrupts exactly the replica whose call
        index it names, so the replicated-checksum comparison detects it.
        """
        family = self._op_family(op)
        op_idx = self._op_result_calls.get(family, 0)
        self._op_result_calls[family] = op_idx + 1
        f = self._take_collective("collective_sdc", family, op_idx)
        if f is None:
            return result
        out = np.array(result, copy=True)
        detail = self._flip_bit(out, mode=f.mode)
        self._record("collective_sdc", op_idx, f"SDC in {op} result", op=op, **detail)
        return out

    # -- point-to-point hook (SimWorld.exchange) -------------------------------

    def deliver(self, src: int, dst: int, buf: np.ndarray) -> np.ndarray:
        """Return the buffer actually delivered for message ``src -> dst``."""
        idx = self._p2p_calls
        self._p2p_calls += 1
        edge = (src, dst)
        stale = self._last_sent.get(edge)
        self._last_sent[edge] = np.array(buf, copy=True)

        f = self._take_scheduled(("drop", "corrupt", "delay"), at_call=idx)
        kind = f.kind if f is not None else self._random_message_fault()
        if kind == "drop":
            self._record("drop", idx, f"message {src}->{dst} dropped", src=src, dst=dst)
            return np.zeros_like(buf)
        if kind == "corrupt":
            out = np.array(buf, copy=True)
            detail = self._flip_bit(out)
            self._record("corrupt", idx, f"message {src}->{dst} corrupted", src=src, dst=dst, **detail)
            return out
        if kind == "delay":
            self._record("delay", idx, f"message {src}->{dst} delayed (stale data)", src=src, dst=dst)
            return np.zeros_like(buf) if stale is None else stale
        return buf

    def _random_message_fault(self) -> str | None:
        if not (self.drop_rate or self.corrupt_rate or self.delay_rate):
            return None
        u = float(self.rng.uniform())
        if u < self.drop_rate:
            return "drop"
        if u < self.drop_rate + self.corrupt_rate:
            return "corrupt"
        if u < self.drop_rate + self.corrupt_rate + self.delay_rate:
            return "delay"
        return None

    # -- silent data corruption ------------------------------------------------

    def _flip_bit(self, array: np.ndarray, mode: str = "bitflip") -> dict:
        """Corrupt one element of ``array`` in place; returns a detail dict."""
        flat = array.reshape(-1)
        idx = int(self.rng.integers(flat.size))
        old = float(flat[idx])
        if mode == "nan":
            flat[idx] = np.nan
        else:
            # Flip one of the top exponent bits so the corruption is
            # catastrophic (scale changed by >= 2^16, possibly inf/nan)
            # rather than a rounding blip.
            bit = int(self.rng.integers(56, 63))
            view = flat[idx : idx + 1].view(np.uint64)
            view[0] ^= np.uint64(1) << np.uint64(bit)
        return {"element": idx, "mode": mode, "old": old, "new": float(flat[idx])}

    def apply_field_faults(self, app) -> list[FaultEvent]:
        """Fire pending ``sdc`` schedule entries whose ``at_step`` has passed.

        Called by the :class:`ResilientRunner` between run segments.  Each
        entry corrupts one element of ``app.state_shards()[rank][target]``;
        once one has fired the shards go back through
        ``app.restore_shards``.  Each entry fires once, so replay after
        rollback is fault-free.
        """
        fired: list[FaultEvent] = []
        shards = None
        while True:
            f = self._take_scheduled(("sdc",), at_step=app.step_count)
            if f is None:
                break
            if shards is None:
                shards = app.state_shards()
            arrays = shards[f.rank]
            if f.target not in arrays:
                raise ValueError(f"unknown SDC target {f.target!r}")
            detail = self._flip_bit(arrays[f.target], mode=f.mode)
            fired.append(
                self._record(
                    "sdc",
                    app.step_count,
                    f"SDC in {f.target} at step {app.step_count}",
                    target=f.target,
                    **detail,
                )
            )
        if shards is not None:
            app.restore_shards(shards)
        return fired

    # -- deterministic replay ----------------------------------------------------

    def export_replay(self) -> dict:
        """JSON-able record sufficient to reproduce this injector's faults.

        Captures the constructor inputs (seed, rates, schedule) plus the
        event list of what actually fired.  An injector rebuilt with
        :meth:`from_replay` and driven through the same call sequence
        produces bit-identical faults -- the chaos harness stores one of
        these per scenario so any campaign entry is replayable.
        """
        return {
            "seed": self.seed,
            "drop_rate": self.drop_rate,
            "corrupt_rate": self.corrupt_rate,
            "delay_rate": self.delay_rate,
            "schedule": [asdict(f) for f in self.schedule],
            "events": [asdict(e) for e in self.events],
        }

    @classmethod
    def from_replay(cls, replay: dict) -> "FaultInjector":
        """Rebuild a fresh injector from an :meth:`export_replay` record.

        Only the inputs are restored (seed, rates, schedule); the event
        list in the record documents the original run and is left behind.
        """
        return cls(
            seed=int(replay.get("seed", 0)),
            schedule=[Fault(**f) for f in replay.get("schedule", [])],
            drop_rate=float(replay.get("drop_rate", 0.0)),
            corrupt_rate=float(replay.get("corrupt_rate", 0.0)),
            delay_rate=float(replay.get("delay_rate", 0.0)),
        )
