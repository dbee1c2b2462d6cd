"""The reference recoverable SPMD application: distributed heat conduction.

The recovery machinery needs a workload with the communication skeleton
of the production solver (two-phase gather--scatter halo exchange,
allreduce inner products) that is small enough for the chaos campaign to
run dozens of faulted instances in seconds.
:class:`DistributedThermalWorkload` is that mini-app: implicit-Euler heat
conduction between a hot bottom plate (T=1) and a cold top plate (T=0),
each step solved by the one Jacobi-CG,
:class:`~repro.solvers.cg.ConjugateGradient`, with the ``add`` and
``dot`` of a :class:`~repro.comm.distributed_gs.DistributedGatherScatter`
over an element partition of the SEM mesh.  Its fields are full stacked
arrays, element ``e`` living on rank ``owner[e]``.  ``h2 = 1/dt`` and the
Jacobi diagonal follow ``dt`` at the next step when it changes (a
runner's retry at a reduced step).

It fails fast, like :meth:`Simulation.run`; recovery is the
:class:`~repro.resilience.runner.ResilientRunner` wrapped around it.  Its
checkpoint is one shard per rank (``state_shards``: rank r's temperature
chunk, cut by ``scatter_field``), and ``restore_shards`` is a *warm
replacement*: a fresh world of the same size, every rank reloaded from
its shard, the CG warm-started from the restored state.

The scalar diagnostic ``nu`` is the mass-weighted volume average of the
temperature -- the deterministic stand-in for the Nusselt number that
recovery-equivalence tests assert on: a recovered run must reproduce the
fault-free functional within round-off-level tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.comm.distributed_gs import DistributedGatherScatter
from repro.comm.partition import linear_partition, rcb_partition
from repro.comm.reliable import RetryPolicy
from repro.comm.simworld import SimWorld, TrafficStats
from repro.observability.tracer import NULL_TRACER
from repro.precond.jacobi import JacobiPrecond
from repro.resilience.faults import FaultInjector
from repro.sem.bc import DirichletBC
from repro.sem.mesh import box_mesh
from repro.sem.operators import ax_helmholtz
from repro.sem.space import FunctionSpace
from repro.solvers.cg import ConjugateGradient

__all__ = ["DistributedThermalWorkload"]


class DistributedThermalWorkload:
    """Implicit heat conduction on an element partition over simulated ranks.

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
    ) -> None:
        self.space = sp = FunctionSpace(box_mesh(shape), order)
        self.dt = dt
        self.h1 = kappa
        self.fault_injector = fault_injector
        self.retry = retry
        self.verify_collectives = verify_collectives
        self.tracer = tracer if tracer is not None else NULL_TRACER

        bottom = DirichletBC(sp, ["bottom"], 1.0)
        top = DirichletBC(sp, ["top"], 0.0)
        self.mask = bottom.mask * top.mask
        self.lift = np.where(bottom.mask == 0.0, bottom.values, 0.0) + np.where(
            top.mask == 0.0, top.values, 0.0
        )
        self.mass = sp.coef.mass
        self.volume = float(np.sum(self.mass))
        self.h2 = 1.0 / dt
        self.precond = JacobiPrecond(sp, self.h1, self.h2, mask=self.mask)

        rng = np.random.default_rng(seed)
        #: The full temperature field; rank r holds ``scatter_field(T)[r]``.
        self.temperature = self.lift + self.mask * (
            0.5 + 0.05 * rng.standard_normal(sp.shape)
        )

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
        self.solver = ConjugateGradient(self._amul, self.dgs.dot, precond=self.precond, tol=1e-10)

    def _amul(self, u: np.ndarray) -> np.ndarray:
        """The assembled, masked Helmholtz operator on the ranks."""
        sp = self.space
        w = self.dgs.add(ax_helmholtz(u, sp.coef, sp.dx, self.h1, self.h2))
        w *= self.mask
        return w

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
        scalars = {"step": np.asarray(self.step_count), "time": np.asarray(self.time),
                   "dt": np.asarray(self.dt)}
        return [
            {"temperature": chunk, **scalars}
            for chunk in self.dgs.scatter_field(self.temperature)
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
        self.temperature = self.dgs.gather_field([shard["temperature"] for shard in shards])
        self.step_count = int(shards[0]["step"])
        self.time = float(shards[0]["time"])
        self.dt = float(shards[0]["dt"])

    # -- the physics -------------------------------------------------------------

    def advance(self) -> None:
        """One implicit-Euler step: assemble rhs, CG solve, diagnostics."""
        sp = self.space
        if 1.0 / self.dt != self.h2:  # follow a changed dt, e.g. a runner retry
            self.h2 = 1.0 / self.dt
            self.precond.update(self.h1, self.h2)
        ax_lift = ax_helmholtz(self.lift, sp.coef, sp.dx, self.h1, self.h2)
        rhs = self.dgs.add(self.mass * self.temperature * self.h2 - ax_lift)
        rhs *= self.mask
        theta, _ = self.solver.solve(rhs, x0=(self.temperature - self.lift) * self.mask)
        self.temperature = theta + self.lift
        self.step_count += 1
        self.time += self.dt
        self.history.append((self.step_count, self.nusselt()))

    def nusselt(self) -> float:
        """Mass-weighted volume average of T (the deterministic Nu proxy).

        Computed the distributed way -- local weighted sums plus one
        allreduce -- so the diagnostic itself exercises (and is protected
        by) the hardened collective path.
        """
        chunks = self.dgs.scatter_field(self.mass * self.temperature)
        return self.world.allreduce_scalar([float(np.sum(c)) for c in chunks]) / self.volume

    def run(self, n_steps: int) -> None:
        """Advance ``n_steps`` steps; failures propagate."""
        for _ in range(n_steps):
            self.advance()
