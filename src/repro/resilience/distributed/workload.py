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

It fails fast, like :meth:`Simulation.run`; recovery is the
:class:`~repro.resilience.runner.ResilientRunner` wrapped around it.  Its
checkpoint is one shard per rank (``state_shards``, shard r holding rank
r's temperature chunk), and ``restore_shards`` is a *warm replacement*: a
fresh world of the same size, every rank reloaded from its shard, the CG
warm-started from the restored state.

The scalar diagnostic ``nu`` is the mass-weighted volume average of the
temperature -- the deterministic stand-in for the Nusselt number that
recovery-equivalence tests assert on: a recovered run must reproduce the
fault-free functional within round-off-level tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.comm.distributed_gs import DistributedGatherScatter
from repro.comm.distributed_solver import DistributedConjugateGradient
from repro.comm.partition import linear_partition, rcb_partition
from repro.comm.reliable import RetryPolicy
from repro.comm.simworld import SimWorld, TrafficStats
from repro.observability.tracer import NULL_TRACER
from repro.precond.jacobi import helmholtz_diagonal
from repro.resilience.faults import FaultInjector
from repro.sem.bc import DirichletBC
from repro.sem.mesh import box_mesh
from repro.sem.operators import ax_helmholtz
from repro.sem.space import FunctionSpace

__all__ = ["DistributedThermalWorkload"]


class DistributedThermalWorkload:
    """Implicit heat conduction on per-rank element chunks.

    Parameters
    ----------
    shape, order:
        The SEM box mesh (elements per axis) and polynomial order.
    nranks:
        World size; a restore rebuilds a world of the same size.  The
        elements are RCB-partitioned when ``nranks > 1``.
    kappa, dt:
        Diffusivity and time step of the implicit Euler update
        ``(B/dt + kappa A) T_new = B T_old / dt``.
    fault_injector, retry, verify_collectives:
        Passed to every :class:`~repro.comm.simworld.SimWorld` this
        workload builds (the injector is *kept* across rebuilds so global
        fault schedules keep counting).
    tracer:
        The run's tracer, as on :class:`~repro.core.simulation.Simulation`;
        a :class:`~repro.resilience.runner.ResilientRunner` records its
        ``resilience.*`` events on it.
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
        fault_injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        verify_collectives: bool = False,
        tracer=None,
        seed: int = 7,
        tol: float = 1e-10,
        maxiter: int = 500,
    ) -> None:
        self.space = FunctionSpace(box_mesh(shape), order)
        self.kappa = kappa
        self.dt = dt
        self.h1 = kappa
        self.h2 = 1.0 / dt
        self.fault_injector = fault_injector
        self.retry = retry
        self.verify_collectives = verify_collectives
        self.tracer = tracer if tracer is not None else NULL_TRACER
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

        self.step_count = 0
        self.time = 0.0
        #: ``(step, nu)`` after every step.
        self.history: list[tuple[int, float]] = []
        self._prior_stats = TrafficStats()

        self.nranks = nranks
        if nranks > 1:
            self.owner = rcb_partition(sp.mesh, nranks)
        else:
            self.owner = linear_partition(sp.mesh.nelv, nranks)
        self._build()
        self.t_chunks = self.dgs.scatter_field(t0)

    # -- world construction ------------------------------------------------------

    def _build(self) -> None:
        """(Re)build world, gather--scatter and solver over the partition."""
        sp = self.space
        old_world = getattr(self, "world", None)
        if old_world is not None:
            self._prior_stats.absorb(old_world.stats)
        self.world = SimWorld(
            self.nranks,
            fault_injector=self.fault_injector,
            retry=self.retry,
            verify_collectives=self.verify_collectives,
        )
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

    def traffic(self) -> TrafficStats:
        """Message statistics summed over every world this workload built."""
        stats = TrafficStats()
        stats.absorb(self._prior_stats)
        stats.absorb(self.world.stats)
        return stats

    # -- checkpoint shards -------------------------------------------------------

    def state_shards(self) -> list[dict[str, np.ndarray]]:
        """One shard per rank, taken at the epoch's commit barrier.

        The barrier is a coordination point: a rank that dies in it raises
        before anything is staged, so the previous epoch stays the newest.
        """
        self.world.barrier()
        step = np.asarray(self.step_count)
        time = np.asarray(self.time)
        return [
            {"temperature": chunk, "step": step, "time": time}
            for chunk in self.t_chunks
        ]

    def restore_shards(self, shards: list[dict[str, np.ndarray]]) -> None:
        """Warm replacement: a fresh world, then shard r installed on rank r.

        The shards come from disk, so an epoch written by a world of
        another size raises ``ValueError``.  Restoring the same epoch
        twice is a no-op -- the idempotence the property tests pin down.
        """
        if len(shards) != self.nranks:
            raise ValueError(
                f"epoch has {len(shards)} shards for a world of {self.nranks} ranks"
            )
        self._build()
        self.t_chunks = [np.array(shard["temperature"]) for shard in shards]
        self.step_count = int(shards[0]["step"])
        self.time = float(shards[0]["time"])

    # -- the physics -------------------------------------------------------------

    def advance(self) -> None:
        """One implicit-Euler step: assemble rhs, CG solve, diagnostics."""
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
        theta, _ = self.solver.solve(rhs, x0=x0)
        self.t_chunks = [th + lf for th, lf in zip(theta, self.lift_chunks)]
        self.step_count += 1
        self.time += self.dt
        self.history.append((self.step_count, self.nusselt()))

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

    def run(self, n_steps: int) -> None:
        """Advance ``n_steps`` steps; failures propagate."""
        for _ in range(n_steps):
            self.advance()
