"""Per-rank chunks in and out of the one Jacobi-CG on the simulated ranks.

:class:`DistributedConjugateGradient` stays only because the measurement
spine's ``fig3_campaign`` constructs it (ROADMAP 13(c)); new code runs
:class:`~repro.solvers.cg.ConjugateGradient` with ``dot=dgs.dot`` on full
fields.  Per iteration: 1 halo exchange and 3 allreduces (p.Ap, r.r, r.z),
so an n-iteration solve from a zero guess performs 3 n + 1 allreduces.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.comm.distributed_gs import DistributedGatherScatter
from repro.comm.simworld import SimWorld
from repro.solvers.cg import ConjugateGradient
from repro.solvers.monitor import SolverMonitor

__all__ = ["DistributedConjugateGradient"]

LocalOperator = Callable[[int, np.ndarray], np.ndarray]


class DistributedConjugateGradient:
    """:class:`ConjugateGradient` on the gathered chunks.

    ``local_amul(rank, chunk)`` applies the *unassembled* operator to a
    rank's elements; ``dgs.add`` assembles it, then the gathered
    ``local_mask`` applies.  ``precond_diag`` holds per-rank Jacobi
    diagonals.  ``world`` is ``dgs.world``, kept for the callers.
    """

    def __init__(
        self,
        local_amul: LocalOperator,
        dgs: DistributedGatherScatter,
        world: SimWorld,
        local_mask: list[np.ndarray] | None = None,
        precond_diag: list[np.ndarray] | None = None,
        tol: float = 1e-8,
        maxiter: int = 500,
    ) -> None:
        self.dgs = dgs
        mask = None if local_mask is None else dgs.gather_field(local_mask)
        diag = None if precond_diag is None else dgs.gather_field(precond_diag)

        def amul(u: np.ndarray) -> np.ndarray:
            w = np.empty_like(u)
            for rank, elements in enumerate(dgs.rank_elements):
                w[elements] = local_amul(rank, u[elements])
            w = dgs.add(w)
            if mask is not None:
                w *= mask
            return w

        self.cg = ConjugateGradient(
            amul,
            dgs.dot,
            precond=None if diag is None else (lambda r: r * diag),
            tol=tol,
            maxiter=maxiter,
            name="dist-cg",
        )

    def solve(
        self, b_chunks: list[np.ndarray], x0: list[np.ndarray] | None = None
    ) -> tuple[list[np.ndarray], SolverMonitor]:
        """Solve ``A x = b``; returns per-rank chunks (``x0`` warm-starts)."""
        gather = self.dgs.gather_field
        x, mon = self.cg.solve(gather(b_chunks), None if x0 is None else gather(x0))
        return self.dgs.scatter_field(x), mon
