"""BatchedWorld: the rank world as stacked arrays instead of objects.

:class:`~repro.comm.simworld.SimWorld` keeps the buffer-level MPI
semantics tests rely on, but its per-message Python accounting tops out
around ``world4_dist_cg``'s 4 ranks.  :class:`BatchedWorld` is the same
world refactored for scale: per-rank state lives in stacked arrays, a
whole exchange round is one vectorized accounting pass
(:meth:`exchange_batched` / :meth:`TrafficStats.record_p2p_batch`), and
every round is returned as a :class:`~repro.comm.costmodel.CommRound`
the DES cost model prices afterwards.  That is what lets the Fig. 3
campaign sweep O(10^3..10^4) simulated ranks in seconds.

**The per-rank API survives via thin adapters.**  ``BatchedWorld`` *is a*
``SimWorld``: the dict-based :meth:`exchange`, :meth:`gather`,
:meth:`barrier` and the allreduces all still work, and the moment a
fault injector or a retry policy is armed the exchange falls back to the
inherited per-message path --
bit-for-bit the legacy channel, because fault outcomes depend on the
injector's per-message RNG/counter sequence and only the original
delivery loop reproduces it.  The vectorized fast path is taken exactly
when it is provably indistinguishable (fault-free identity delivery),
which the equivalence property suite asserts against the legacy world.

``allreduce_scalar`` is intentionally *not* overridden: per-rank values
arrive as one float64 array and the inherited ``np.sum`` over that array
is already the batched reduction -- same pairwise summation, same bits.
"""

from __future__ import annotations

import numpy as np

from repro.comm.costmodel import CommRound
from repro.comm.simworld import SimWorld

__all__ = ["BatchedWorld"]


class BatchedWorld(SimWorld):
    """A :class:`SimWorld` whose hot paths are batched index operations."""

    # -- batched primitives -----------------------------------------------------

    def exchange_batched(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        nbytes: np.ndarray,
        phase: str = "gs.exchange",
    ) -> CommRound:
        """Account one exchange round given per-message edge arrays.

        The round's payloads are computed analytically by the caller (the
        batched gather--scatter assembles results with ``reduceat``, not
        by moving buffers), so this is traffic accounting for the cost
        model: validation, :meth:`TrafficStats.record_p2p_batch`, and the
        wire messages returned as one :class:`CommRound`.

        Count-only rounds cannot pass through the fault injector or the
        reliable channel (there is no per-message buffer to drop or
        checksum), so a hardened/faulted world refuses them -- faulted
        traffic must use the per-rank :meth:`exchange` adapter.
        """
        if self.fault_injector is not None or self.retry is not None:
            raise RuntimeError(
                "exchange_batched bypasses the fault/reliable channel; "
                "faulted or hardened worlds must use exchange()"
            )
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        if not (src.shape == dst.shape == nbytes.shape):
            raise ValueError("src, dst and nbytes must be parallel arrays")
        if src.size and not (
            (src >= 0).all()
            and (src < self.size).all()
            and (dst >= 0).all()
            and (dst < self.size).all()
        ):
            raise ValueError("invalid ranks in batched exchange round")
        # Self-messages are rank-local copies: free on the wire and uncounted,
        # matching the per-message exchange() accounting.
        wire = src != dst
        if not wire.all():
            src, dst, nbytes = src[wire], dst[wire], nbytes[wire]
        self.stats.record_p2p_batch(nbytes)
        return CommRound(phase, src, dst, nbytes)

    # -- per-rank adapter -------------------------------------------------------

    def exchange(
        self, sends: dict[tuple[int, int], np.ndarray]
    ) -> dict[tuple[int, int], np.ndarray]:
        """Dict-based exchange with vectorized accounting when fault-free.

        With a fault injector or retry policy attached this defers to the
        inherited per-message loop, whose delivery order drives the
        injector's RNG/counter stream -- the fallback is what keeps
        injected-fault outcomes bit-identical to the legacy world.  The
        fault-free path batches the accounting.
        """
        if self.fault_injector is not None or self.retry is not None:
            return super().exchange(sends)
        n_msg = len(sends)
        src = np.empty(n_msg, dtype=np.int64)
        dst = np.empty(n_msg, dtype=np.int64)
        nbytes = np.empty(n_msg, dtype=np.int64)
        for i, ((s, d), buf) in enumerate(sends.items()):
            src[i] = s
            dst[i] = d
            nbytes[i] = buf.nbytes
        self.exchange_batched(src, dst, nbytes, phase="gs.exchange")
        return {key: np.array(buf, copy=True) for key, buf in sends.items()}
