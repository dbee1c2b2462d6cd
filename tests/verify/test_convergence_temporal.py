"""Temporal convergence: BDFk/EXTk design order on MMS problems.

The multistep histories are primed with exact data and the order ramp is
skipped (``prime_history`` / ``jump_start``), so the fitted slope reflects
the scheme's asymptotic order from the very first step.  The error metric
is the maximum over the trajectory of the relative L^2 error -- a
final-time-only measurement can alias the oscillatory error and report a
spurious rate.

Design-order facts asserted here (calibrated, see EXPERIMENTS.md):

* scalar advection--diffusion observes order ``k`` for ``k = 1..3``;
* the coupled Boussinesq step observes order ``k`` in the temperature and
  ``min(k, 2)`` in the velocity -- the incremental pressure-correction
  splitting caps the velocity at second order by construction.
"""

import pytest

from repro.verify.cli import COUPLED_FLOORS
from repro.verify.convergence import fit_algebraic_order
from repro.verify.problems import (
    BoussinesqTemporalMMSProblem,
    ScalarTemporalMMSProblem,
)

DTS = [0.01, 0.005, 0.0025]
MARGIN = 0.2


class TestScalarTemporalOrder:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_design_order(self, order):
        problem = ScalarTemporalMMSProblem()
        errs = [problem.run(order, dt) for dt in DTS]
        observed = fit_algebraic_order(DTS, errs)
        assert observed >= order - MARGIN, (
            f"BDF{order}/EXT{order} observed temporal order {observed:.2f}, "
            f"expected >= {order - MARGIN}"
        )
        # Errors must actually decrease -- a flat constant can fit anything.
        assert errs[-1] < errs[0]


class TestBoussinesqTemporalOrder:
    def test_coupled_second_order(self):
        """k = 2 on the full coupled step, the order the CI ``verify`` job runs."""
        problem = BoussinesqTemporalMMSProblem()
        results = [problem.run(2, dt) for dt in DTS[:2]]
        errs_u = [r[0] for r in results]
        errs_t = [r[1] for r in results]
        rate_u = fit_algebraic_order(DTS[:2], errs_u)
        rate_t = fit_algebraic_order(DTS[:2], errs_t)
        # Calibrated slopes: velocity ~1.96, temperature ~1.76 (the
        # temperature is slightly polluted by velocity coupling error);
        # the floors sit a tenth below and are the CI ``verify`` job's.
        assert COUPLED_FLOORS[2] == (1.85, 1.65)
        assert rate_u >= COUPLED_FLOORS[2][0]
        assert rate_t >= COUPLED_FLOORS[2][1]

    def test_coupled_first_order(self):
        problem = BoussinesqTemporalMMSProblem()
        results = [problem.run(1, dt) for dt in DTS[:2]]
        rate_t = fit_algebraic_order(DTS[:2], [r[1] for r in results])
        assert rate_t >= 1 - MARGIN
