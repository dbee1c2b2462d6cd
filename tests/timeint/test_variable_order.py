"""Design-order verification of BDF/EXT over variable steps.

Complements ``test_variable.py`` (coefficient algebra, implicit-only ODE
ramp) with the two properties the verification subsystem needs:

* a Hypothesis sweep that equal steps of *any* magnitude reduce exactly to
  the classic fixed-dt tables at every order;
* the full implicit/explicit pairing -- BDF on the stiff part, EXT on an
  explicitly-evaluated nonlinear forcing, exactly as the fluid and scalar
  schemes use it -- observes its design order ``k`` under *smoothly
  modulated* random step sequences, with the multistep history jump-started
  from exact data so no low-order ramp pollutes the fit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timeint.bdf_ext import BDF_COEFFS, EXT_COEFFS, TimeScheme, variable_bdf, variable_ext


@settings(max_examples=40, deadline=None)
@given(
    order=st.integers(1, 3),
    dt=st.floats(min_value=1e-6, max_value=10.0),
)
def test_property_equal_steps_reduce_to_fixed_tables(order, dt):
    """The fixed-dt tables are the equal-step limit at every magnitude."""
    dts = [dt] * order
    b0, bs = variable_bdf(dts)
    b0_ref, bs_ref = BDF_COEFFS[order]
    assert b0 == pytest.approx(b0_ref, rel=1e-10)
    assert np.allclose(bs, bs_ref, rtol=1e-9, atol=1e-12)
    assert np.allclose(variable_ext(dts), EXT_COEFFS[order], rtol=1e-9, atol=1e-12)


class TestJumpStart:
    def test_fixed_scheme_skips_the_ramp(self):
        ts = TimeScheme(3)
        assert ts.order == 1
        ts.jump_start([0.1, 0.1])
        assert ts.order == 3
        ts.advance()
        assert ts.order == 3

    def test_fixed_scheme_never_lowers_progress(self):
        ts = TimeScheme(2)
        for _ in range(5):
            ts.advance()
        ts.jump_start([0.1])
        assert ts.step_count == 5

    def test_variable_scheme_requires_enough_history(self):
        ts = TimeScheme(3)
        with pytest.raises(ValueError, match="completed steps"):
            ts.jump_start([0.1])
        with pytest.raises(ValueError, match="positive"):
            ts.jump_start([0.1, -0.1])

    def test_variable_scheme_uses_supplied_history(self):
        ts = TimeScheme(3)
        ts.jump_start([0.1, 0.2])
        assert ts.order == 3
        ts.set_step(0.05)
        b0, bs = ts.bdf
        ref_b0, ref_bs = variable_bdf([0.05, 0.1, 0.2])
        assert b0 == pytest.approx(ref_b0)
        assert np.allclose(bs, ref_bs)


def smooth_dt_sequence(n: int, seed: int, total: float = 1.0) -> np.ndarray:
    """Sinusoidally modulated steps (CFL-controller-like), summing to total."""
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 2 * np.pi)
    i = np.arange(n)
    dts = 1.0 + 0.3 * np.sin(2 * np.pi * i / n + phase)
    return dts / dts.sum() * total


def integrate_imex(order: int, dts: np.ndarray) -> float:
    """IMEX integration of ``y' = -y + f(y, t)`` with an exact manufactured y.

    The linear ``-y`` goes through BDF (implicit), the nonlinear forcing
    ``f = -y^2 / 2 + s(t)`` through EXT (explicit, evaluated at previous
    levels from *computed* values) -- the same implicit/explicit split the
    fluid and scalar schemes apply to diffusion vs. advection.
    """

    def y_exact(t):
        return np.sin(2.0 * t) + 1.5

    def s(t):
        y = y_exact(t)
        return 2.0 * np.cos(2.0 * t) + y + 0.5 * y * y

    def f_expl(y, t):
        return -0.5 * y * y + s(t)

    ts = TimeScheme(order)
    # Exact history at constant pre-steps dts[0]: y and f levels newest first.
    dt0 = float(dts[0])
    pre = [dt0] * (order - 1)
    y_hist = [y_exact(-j * dt0) for j in range(order)]
    f_hist = [f_expl(y_exact(-j * dt0), -j * dt0) for j in range(1, order)]
    if pre:
        ts.jump_start(pre)

    t = 0.0
    err = 0.0
    for dt in dts:
        dt = float(dt)
        ts.set_step(dt)
        b0, bs = ts.bdf
        ext = ts.ext
        f_hist.insert(0, f_expl(y_hist[0], t))
        del f_hist[order:]
        fhat = sum(aq * f_hist[q] for q, aq in enumerate(ext[: len(f_hist)]))
        bsum = sum(bj * y_hist[j] for j, bj in enumerate(bs[: len(y_hist)]))
        y_new = (bsum / dt + fhat) / (b0 / dt + 1.0)
        y_hist.insert(0, y_new)
        del y_hist[order:]
        ts.advance()
        t += dt
        err = max(err, abs(y_new - y_exact(t)))
    return err


class TestImexDesignOrder:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_design_order_under_smooth_random_steps(self, order):
        ns = (40, 80, 160)
        # Three seeded modulation phases; assert the fitted order on each.
        for seed in (0, 1, 2):
            errs = [integrate_imex(order, smooth_dt_sequence(n, seed)) for n in ns]
            slope = np.polyfit(np.log([1.0 / n for n in ns]), np.log(errs), 1)[0]
            assert slope >= order - 0.2, (
                f"BDF{order}/EXT{order} with variable steps (seed {seed}): "
                f"observed order {slope:.2f}, errors {errs}"
            )

    def test_constant_steps_match_fixed_scheme_order(self):
        # Sanity anchor: the same IMEX loop at constant dt shows the same
        # order, so any variable-step failure localizes to the coefficients.
        for order in (1, 2, 3):
            errs = [
                integrate_imex(order, np.full(n, 1.0 / n)) for n in (40, 80)
            ]
            rate = np.log2(errs[0] / errs[1])
            assert rate >= order - 0.2
