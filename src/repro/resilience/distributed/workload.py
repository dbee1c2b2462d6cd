"""The reference recoverable SPMD application: distributed heat conduction.

The recovery machinery needs a real workload to protect -- one with the
communication skeleton of the production solver (rank-local operator,
two-phase gather--scatter halo exchange, allreduce inner products) but
small enough that the chaos campaign can run dozens of faulted instances
in seconds.  :class:`DistributedThermalWorkload` is that mini-app:
implicit-Euler heat conduction between a hot bottom plate (T=1) and a
cold top plate (T=0), each step solved by
:class:`~repro.comm.distributed_solver.DistributedConjugateGradient`
over an element partition of the SEM mesh.

Every ``checkpoint_interval`` steps the per-rank temperature chunks are
saved as a two-phase committed epoch in a
:class:`~repro.resilience.distributed.shards.ShardedCheckpointStore`
(each shard also records which elements the rank owned, so a shrunken
world can reassemble the global field without the dead rank's help).
Failures escalate to the attached
:class:`~repro.resilience.distributed.recovery.WorldRecovery`, and the
run resumes from the last consistent epoch with the CG warm-started from
the restored state.

The scalar diagnostic ``nu`` is the mass-weighted volume average of the
temperature -- the deterministic stand-in for the Nusselt number that
recovery-equivalence tests assert on: a recovered run must reproduce the
fault-free functional within round-off-level tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.comm.distributed_gs import DistributedGatherScatter
from repro.comm.distributed_solver import DistributedConjugateGradient
from repro.comm.partition import linear_partition, rcb_partition
from repro.comm.reliable import (
    CollectiveIntegrityError,
    CommTimeoutError,
    RetryPolicy,
)
from repro.comm.simworld import SimWorld, TrafficStats
from repro.precond.jacobi import helmholtz_diagonal
from repro.resilience.distributed.shards import ShardedCheckpointStore
from repro.resilience.events import EventLog
from repro.resilience.faults import FaultInjector, RankFailedError
from repro.sem.bc import DirichletBC
from repro.sem.mesh import box_mesh
from repro.sem.operators import ax_helmholtz
from repro.sem.space import FunctionSpace

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.distributed.recovery import WorldRecovery

__all__ = ["DistributedThermalWorkload", "WorkloadResult"]

#: The failures the run loop escalates to the recovery policy.
RECOVERABLE = (RankFailedError, CommTimeoutError, CollectiveIntegrityError)


@dataclass
class WorkloadResult:
    """Outcome of one (possibly faulted and recovered) workload run."""

    steps: int
    time: float
    nu_final: float
    nu_history: list[tuple[int, float]] = field(default_factory=list)
    recoveries: int = 0
    incidents: list[dict] = field(default_factory=list)
    world_size: int = 0
    stats: TrafficStats = field(default_factory=TrafficStats)

    @property
    def steps_replayed(self) -> int:
        """Total steps re-run due to rollbacks (the MTTR numerator)."""
        return sum(int(i["steps_replayed"]) for i in self.incidents)


class DistributedThermalWorkload:
    """Implicit heat conduction on per-rank element chunks, with recovery.

    Parameters
    ----------
    shape, order:
        The SEM box mesh (elements per axis) and polynomial order.
    nranks:
        Initial world size.
    kappa, dt:
        Diffusivity and time step of the implicit Euler update
        ``(B/dt + kappa A) T_new = B T_old / dt``.
    checkpoint_interval:
        Steps between committed epochs.
    store, recovery:
        Sharded checkpoint store (default: in-memory) and the optional
        :class:`WorldRecovery`; without one, failures propagate.
    fault_injector, retry, verify_collectives:
        Passed to every :class:`~repro.comm.simworld.SimWorld` this
        workload builds (the injector is *kept* across rebuilds so global
        fault schedules keep counting).
    partition:
        ``"rcb"`` or ``"linear"`` element partitioning, reapplied on
        every world rebuild.
    flight:
        Optional flight recorder mirroring the event stream.
    seed:
        Seeds the initial interior temperature perturbation.
    """

    def __init__(
        self,
        shape: tuple[int, int, int] = (2, 2, 2),
        order: int = 4,
        nranks: int = 4,
        kappa: float = 0.08,
        dt: float = 0.05,
        checkpoint_interval: int = 2,
        store: ShardedCheckpointStore | None = None,
        recovery: "WorldRecovery | None" = None,
        fault_injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        verify_collectives: bool = False,
        partition: str = "rcb",
        flight: Any = None,
        events: EventLog | None = None,
        seed: int = 7,
        tol: float = 1e-10,
        maxiter: int = 500,
    ) -> None:
        if checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if partition not in ("rcb", "linear"):
            raise ValueError(f"unknown partition {partition!r}")
        self.space = FunctionSpace(box_mesh(shape), order)
        self.kappa = kappa
        self.dt = dt
        self.h1 = kappa
        self.h2 = 1.0 / dt
        self.checkpoint_interval = checkpoint_interval
        self.store = store if store is not None else ShardedCheckpointStore()
        self.recovery = recovery
        self.fault_injector = fault_injector
        self.retry = retry
        self.verify_collectives = verify_collectives
        self.partition = partition
        self.flight = flight
        self.events = events if events is not None else EventLog()
        self.tol = tol
        self.maxiter = maxiter

        sp = self.space
        bottom = DirichletBC(sp, ["bottom"], 1.0)
        top = DirichletBC(sp, ["top"], 0.0)
        self.mask = bottom.mask * top.mask
        self.lift = np.where(bottom.mask == 0.0, bottom.values, 0.0) + np.where(
            top.mask == 0.0, top.values, 0.0
        )
        self.volume = float(np.sum(sp.coef.mass))

        rng = np.random.default_rng(seed)
        t0 = self.lift + self.mask * (0.5 + 0.05 * rng.standard_normal(sp.shape))

        self.step = 0
        self.time = 0.0
        self.nu_history: list[tuple[int, float]] = []
        self.monitors: list[Any] = []
        self.incidents: list[dict] = []
        self._prior_stats = TrafficStats()

        self._build(nranks)
        self.t_chunks = self.dgs.scatter_field(t0)

    # -- world construction ------------------------------------------------------

    def _build(self, nranks: int) -> None:
        """(Re)build world, partition, gather--scatter and solver at ``nranks``."""
        sp = self.space
        old_world = getattr(self, "world", None)
        if old_world is not None:
            self._prior_stats.absorb(old_world.stats)
        self.world = SimWorld(
            nranks,
            fault_injector=self.fault_injector,
            retry=self.retry,
            verify_collectives=self.verify_collectives,
        )
        if self.partition == "rcb" and nranks > 1:
            self.owner = rcb_partition(sp.mesh, nranks)
        else:
            self.owner = linear_partition(sp.mesh.nelv, nranks)
        self.dgs = DistributedGatherScatter(
            sp.gs.global_ids, self.owner, sp.shape, self.world
        )
        self.mask_chunks = self.dgs.scatter_field(self.mask)
        self.lift_chunks = self.dgs.scatter_field(self.lift)
        rank_coefs = self.dgs.scatter_coef(sp.coef)
        self._mass_chunks = [c.mass for c in rank_coefs]

        h1, h2, dx = self.h1, self.h2, sp.dx

        def local_amul(rank: int, chunk: np.ndarray) -> np.ndarray:
            return ax_helmholtz(chunk, rank_coefs[rank], dx, h1, h2)

        diag = sp.gs.add(helmholtz_diagonal(sp, h1, h2))
        diag = np.where(self.mask == 0.0, 1.0, diag)
        pd = self.dgs.scatter_field(1.0 / diag)
        pd = [d * m for d, m in zip(pd, self.mask_chunks)]
        self.solver = DistributedConjugateGradient(
            local_amul,
            self.dgs,
            self.world,
            local_mask=self.mask_chunks,
            precond_diag=pd,
            tol=self.tol,
            maxiter=self.maxiter,
        )

    # -- recoverable-app protocol ------------------------------------------------

    def rebuild(self, new_size: int) -> None:
        """Rebuild the communication layer at ``new_size`` ranks."""
        self._build(new_size)

    def restore_shards(self, shards: list[dict[str, np.ndarray]]) -> None:
        """Install a committed epoch's state onto the *current* partition.

        Shards carry their own element ownership, so the reassembly works
        whether the epoch was written by this world, a larger one (shrink
        recovery) or a restarted process.  Restoring the same epoch twice
        is a no-op -- the idempotence the property tests pin down.
        """
        sp = self.space
        full = np.zeros(sp.shape)
        seen = np.zeros(sp.mesh.nelv, dtype=bool)
        step = 0
        time = 0.0
        for shard in shards:
            elements = np.asarray(shard["elements"], dtype=np.int64)
            full[elements] = shard["temperature"]
            seen[elements] = True
            step = int(shard["step"])
            time = float(shard["time"])
        if not seen.all():
            missing = int((~seen).sum())
            raise ValueError(f"epoch shards cover {sp.mesh.nelv - missing} of "
                             f"{sp.mesh.nelv} elements")
        self.t_chunks = self.dgs.scatter_field(full)
        self.step = step
        self.time = time
        self.nu_history = [entry for entry in self.nu_history if entry[0] <= step]
        self._event("rollback", step=step, detail=f"state restored at epoch {step}")

    def shard_payloads(self) -> list[dict[str, np.ndarray]]:
        """The per-rank shard arrays a checkpoint of the current state writes."""
        step = np.asarray(self.step)
        time = np.asarray(self.time)
        return [
            {
                "temperature": self.t_chunks[r],
                "elements": self.dgs.rank_elements[r],
                "step": step,
                "time": time,
            }
            for r in range(self.world.size)
        ]

    # -- checkpointing -----------------------------------------------------------

    def checkpoint(self) -> None:
        """Two-phase epoch save: stage every shard, barrier, then commit."""
        writer = self.store.begin_epoch(self.step, self.world.size, time=self.time)
        try:
            for rank, arrays in enumerate(self.shard_payloads()):
                writer.write_shard(rank, arrays)
            # The commit point is a coordination point: a rank that dies
            # here aborts the epoch, leaving the previous one authoritative.
            self.world.barrier()
        except BaseException:
            writer.abort()
            raise
        writer.commit()
        self._event("checkpoint", step=self.step, detail=f"epoch {self.step} committed")

    # -- the physics -------------------------------------------------------------

    def advance(self) -> None:
        """One implicit-Euler step: assemble rhs, CG solve, diagnostics."""
        sp = self.space
        rhs_local = [
            m * t * self.h2 - self._ax_lift(r)
            for r, (m, t) in enumerate(zip(self._mass_chunks, self.t_chunks))
        ]
        rhs = self.dgs.add(rhs_local)
        rhs = [c * m for c, m in zip(rhs, self.mask_chunks)]
        x0 = [
            (t - lf) * m
            for t, lf, m in zip(self.t_chunks, self.lift_chunks, self.mask_chunks)
        ]
        theta, mon = self.solver.solve(rhs, x0=x0)
        self.t_chunks = [th + lf for th, lf in zip(theta, self.lift_chunks)]
        self.monitors.append(mon)
        self.step += 1
        self.time += self.dt
        del sp
        self.nu_history.append((self.step, self.nusselt()))

    def _ax_lift(self, rank: int) -> np.ndarray:
        """Rank-local operator applied to the Dirichlet lift."""
        return self.solver.local_amul(rank, self.lift_chunks[rank])

    def nusselt(self) -> float:
        """Mass-weighted volume average of T (the deterministic Nu proxy).

        Computed the distributed way -- local weighted sums plus one
        allreduce -- so the diagnostic itself exercises (and is protected
        by) the hardened collective path.
        """
        locals_ = [
            float(np.sum(m * t))
            for m, t in zip(self._mass_chunks, self.t_chunks)
        ]
        return self.world.allreduce_scalar(locals_) / self.volume

    # -- the run loop ------------------------------------------------------------

    def _event(self, kind: str, step: int = -1, detail: str = "", **data: Any) -> None:
        self.events.record(kind, step=step, time=self.time, detail=detail, **data)
        if self.flight is not None:
            self.flight.record_event(
                kind, step=step, time=self.time, detail=detail, **data
            )

    def run(self, n_steps: int) -> WorkloadResult:
        """Advance ``n_steps`` steps, surviving faults via the recovery policy."""
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        target = self.step + n_steps
        if self.store.latest is None:
            self.checkpoint()  # epoch 0: rollback works before the first step
        while self.step < target:
            step_before = self.step
            try:
                self.advance()
                if self.step % self.checkpoint_interval == 0:
                    self.checkpoint()
            except RECOVERABLE as exc:
                if self.recovery is None:
                    raise
                outcome = self.recovery.recover(self, exc)
                incident = {
                    "cause": outcome.cause,
                    "policy": outcome.policy,
                    "detected_step": step_before,
                    "epoch": outcome.epoch,
                    "steps_replayed": step_before - outcome.epoch,
                    "failed_rank": outcome.failed_rank,
                    "old_size": outcome.old_size,
                    "new_size": outcome.new_size,
                }
                self.incidents.append(incident)
        return self.result()

    def result(self) -> WorkloadResult:
        """Snapshot of the realized run (shared by run() and the harness)."""
        stats = TrafficStats()
        stats.absorb(self._prior_stats)
        stats.absorb(self.world.stats)
        return WorkloadResult(
            steps=self.step,
            time=self.time,
            nu_final=self.nu_history[-1][1] if self.nu_history else float("nan"),
            nu_history=list(self.nu_history),
            recoveries=len(self.incidents),
            incidents=list(self.incidents),
            world_size=self.world.size,
            stats=stats,
        )
