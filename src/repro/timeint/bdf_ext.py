"""BDF/EXT coefficients and the order-ramping time scheme.

With constant step size the k-step BDF discretization of ``du/dt = f`` is

    (1/dt) * (b0 u^{n+1} - sum_{j=1..k} b_j u^{n+1-j}) = f^{n+1},

and the order-k extrapolation of an explicit term is

    f^{n+1} ~= sum_{q=1..k} a_q f^{n+1-q}.

Both sets below follow that sign convention (all ``b_j`` for ``j >= 1``
are *added* to the right-hand side).

When the step size changes (CFL-adaptive stepping, a retry at reduced dt)
the coefficients follow from polynomial interpolation over the time levels

    tau_0 = 0 (the new level),  tau_j = -(dt_1 + ... + dt_j),

* BDF: the derivative at ``tau_0`` of the interpolant through
  ``u(tau_0..tau_k)``, normalized to the convention above with ``dt = dt_1``;
* EXT: the value at ``tau_0`` of the interpolant through the *previous*
  levels ``tau_1..tau_k``.

Both are the weights that are exact on polynomials of degree ``k`` (BDF)
or ``k - 1`` (EXT).  With equal steps they reduce to the tables (tested),
which the scheme then uses as they are.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import numpy.typing as npt

__all__ = ["BDF_COEFFS", "EXT_COEFFS", "TimeScheme", "variable_bdf", "variable_ext"]

FloatArray = npt.NDArray[np.float64]

# BDF_COEFFS[k] = (b0, [b1, ..., bk]).
BDF_COEFFS: dict[int, tuple[float, tuple[float, ...]]] = {
    1: (1.0, (1.0,)),
    2: (1.5, (2.0, -0.5)),
    3: (11.0 / 6.0, (3.0, -1.5, 1.0 / 3.0)),
}

# EXT_COEFFS[k] = (a1, ..., ak).
EXT_COEFFS: dict[int, tuple[float, ...]] = {
    1: (1.0,),
    2: (2.0, -1.0),
    3: (3.0, -3.0, 1.0),
}


def _scaled_levels(dts: Sequence[float]) -> FloatArray:
    """The time levels ``tau_0 .. tau_k`` in units of the newest step."""
    if not dts or any(dt <= 0 for dt in dts):
        raise ValueError("step history must be non-empty and positive")
    return np.concatenate(([0.0], -np.cumsum(dts) / dts[0]))


def _weights(nodes: FloatArray, moment: int) -> list[float]:
    """Weights exact on polynomials of degree < ``len(nodes)``, whose only
    nonzero moment ``sum_j w_j nodes_j^m`` is 1 at ``m = moment``."""
    rhs = np.zeros(len(nodes))
    rhs[moment] = 1.0
    weights: list[float] = np.linalg.solve(np.vander(nodes, increasing=True).T, rhs).tolist()
    return weights


def variable_bdf(dts: Sequence[float]) -> tuple[float, tuple[float, ...]]:
    """``(b0, (b1...bk))`` for step history ``dts = [dt_1, ..., dt_k]``.

    ``dt_1`` is the step being taken (newest); ``dt_k`` the oldest.
    """
    c = _weights(_scaled_levels(dts), 1)
    return c[0], tuple(-cj for cj in c[1:])


def variable_ext(dts: Sequence[float]) -> tuple[float, ...]:
    """``(a1, ..., ak)`` extrapolating the previous levels to ``t^{n+1}``."""
    return tuple(_weights(_scaled_levels(dts)[1:], 0))


class TimeScheme:
    """Order-ramped BDF/EXT coefficients over the steps actually taken.

    The first step uses order 1, the second order 2, and from the third
    step on the target order (default 3, as in the paper).  Before a step,
    :meth:`set_step` gives its size (it holds until changed); query the
    active coefficients with :attr:`bdf` and :attr:`ext`, and call
    :meth:`advance` at the *end* of the step.  While the step and the
    completed steps it spans (:attr:`dts`) are equal -- or no step size was
    ever given -- the coefficients are the constant-step tables; otherwise
    they are rebuilt from that history.
    """

    def __init__(self, order: int = 3) -> None:
        if order not in BDF_COEFFS:
            raise ValueError(f"unsupported time order {order}; supported: 1, 2, 3")
        self.target_order = order
        self.step_count = 0
        # Completed steps, newest first: the spacing of the history levels.
        self.dts: list[float] = []
        self._step: float | None = None

    @property
    def order(self) -> int:
        """Order in effect for the *next* step."""
        return min(self.step_count + 1, self.target_order)

    def set_step(self, dt: float) -> None:
        """Size of the next step and those after it, until set again."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        self._step = float(dt)

    def _steps(self) -> list[float] | None:
        """The steps spanning the next step's levels; ``None`` when all equal."""
        if self._step is None:
            return None
        steps = [self._step, *self.dts[: self.order - 1]]
        return None if all(dt == steps[0] for dt in steps) else steps

    @property
    def bdf(self) -> tuple[float, tuple[float, ...]]:
        """``(b0, (b1, ..., bk))`` for the next step."""
        steps = self._steps()
        return BDF_COEFFS[self.order] if steps is None else variable_bdf(steps)

    @property
    def ext(self) -> tuple[float, ...]:
        """``(a1, ..., ak)`` for the next step."""
        steps = self._steps()
        return EXT_COEFFS[self.order] if steps is None else variable_ext(steps)

    def history_rhs(
        self,
        forcing: Sequence[FloatArray],
        levels: Sequence[FloatArray],
        mass: FloatArray,
        dt: float,
    ) -> FloatArray:
        """Known part of the next step's right-hand side.

        ``sum_q a_q f^{n+1-q} + sum_j (b_j / dt) B u^{n+1-j}`` from the
        explicit-term history ``forcing`` and the solution history
        ``levels`` (both newest first), ``B`` the diagonal mass ``mass``.
        """
        _, bs = self.bdf
        rhs = np.zeros(mass.shape)
        for q, aq in enumerate(self.ext):
            if q < len(forcing):
                rhs += aq * forcing[q]
        for j, bj in enumerate(bs):
            rhs += (bj / dt) * mass * levels[j]
        return rhs

    def extrapolate(self, levels: Sequence[FloatArray]) -> FloatArray:
        """EXT-k extrapolation ``sum_q a_q u^{n+1-q}`` of a solution history."""
        out = np.zeros(levels[0].shape)
        for aq, lev in zip(self.ext, levels):
            out += aq * lev
        return out

    def advance(self) -> None:
        """Note that one step was completed (advances the order ramp)."""
        if self._step is not None:
            self.dts.insert(0, self._step)
            del self.dts[self.target_order - 1 :]
        self.step_count += 1

    def jump_start(self, dts: Sequence[float]) -> None:
        """Skip the order ramp: the next step runs at the target order.

        ``dts`` lists the ``target_order - 1`` steps preceding the first
        one about to be taken, newest first.  Valid only when the caller
        has primed the multistep histories at those time levels (e.g. from
        an exact solution in an MMS study, or from a restart file).
        Starting at full order with zero-filled history would poison the
        first steps instead.
        """
        if len(dts) < self.target_order - 1:
            raise ValueError(
                f"need {self.target_order - 1} completed steps to jump-start "
                f"order {self.target_order}, got {len(dts)}"
            )
        if any(dt <= 0 for dt in dts):
            raise ValueError("step history must be positive")
        self.dts = [float(dt) for dt in dts[: self.target_order - 1]]
        self.step_count = max(self.step_count, self.target_order - 1)

    @staticmethod
    def verify_consistency(order: int) -> float:
        """Max consistency defect of the tables (exactness on polynomials).

        With ``dt = 1`` and the new level at ``t = 1``: BDF-k must satisfy
        ``b0 * 1^m - sum_j b_j (1-j)^m == m`` (the derivative of ``t^m`` at
        ``t = 1``) for ``m <= k``, and EXT-k must reproduce
        ``sum_q a_q (1-q)^m == 1`` for ``m <= k - 1``.  Returns the worst
        violation -- an executable proof of the coefficient tables.
        """
        b0, bs = BDF_COEFFS[order]
        a = EXT_COEFFS[order]
        worst = 0.0
        for m in range(order + 1):
            val = b0 * 1.0**m - sum(
                bj * (1.0 - j) ** m for j, bj in enumerate(bs, start=1)
            )
            worst = max(worst, abs(val - float(m)))
        for m in range(order):
            val = sum(aq * (1.0 - q) ** m for q, aq in enumerate(a, start=1))
            worst = max(worst, abs(val - 1.0))
        return worst
