"""Tests for variable-step BDF/EXT coefficients and the scheme that uses them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timeint.bdf_ext import BDF_COEFFS, EXT_COEFFS, TimeScheme, variable_bdf, variable_ext


class TestVariableCoefficients:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_reduces_to_tables_for_equal_steps(self, order):
        dts = [0.1] * order
        b0, bs = variable_bdf(dts)
        b0_ref, bs_ref = BDF_COEFFS[order]
        assert b0 == pytest.approx(b0_ref, abs=1e-13)
        assert np.allclose(bs, bs_ref, atol=1e-13)
        assert np.allclose(variable_ext(dts), EXT_COEFFS[order], atol=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            variable_bdf([])
        with pytest.raises(ValueError):
            variable_bdf([0.1, -0.1])
        with pytest.raises(ValueError):
            variable_ext([0.0])

    @pytest.mark.parametrize("dts", [[0.1, 0.2], [0.05, 0.1, 0.2], [0.2, 0.1, 0.05]])
    def test_exact_on_polynomials(self, dts):
        # BDF differentiates and EXT extrapolates t^m exactly for m <= k-ish.
        k = len(dts)
        taus = [0.0]
        acc = 0.0
        for dt in dts:
            acc -= dt
            taus.append(acc)
        taus = np.array(taus)
        b0, bs = variable_bdf(dts)
        a = variable_ext(dts)
        dt1 = dts[0]
        for m in range(k + 1):
            vals = taus**m
            deriv = (b0 * vals[0] - sum(bj * vals[j + 1] for j, bj in enumerate(bs))) / dt1
            exact = m * 0.0 ** (m - 1) if m >= 1 else 0.0
            if m == 1:
                exact = 1.0
            if m == 0:
                exact = 0.0
            assert deriv == pytest.approx(exact, abs=1e-10), (m, dts)
        for m in range(k):
            extrap = sum(aq * taus[q + 1] ** m for q, aq in enumerate(a))
            assert extrap == pytest.approx(0.0**m if m > 0 else 1.0, abs=1e-10)


class TestTimeSchemeOverSteps:
    def test_without_set_step_uses_the_tables(self):
        ts = TimeScheme(3)
        for order in (1, 2, 3, 3):
            assert ts.bdf == BDF_COEFFS[order]
            assert ts.ext == EXT_COEFFS[order]
            ts.advance()
        assert ts.dts == []

    def test_equal_steps_use_the_tables_exactly(self):
        ts = TimeScheme(3)
        for order in (1, 2, 3, 3):
            ts.set_step(0.1)
            assert ts.bdf == BDF_COEFFS[order]
            assert ts.ext == EXT_COEFFS[order]
            ts.advance()

    def test_history_keeps_the_spanned_steps_newest_first(self):
        ts = TimeScheme(3)
        for dt in (0.1, 0.2, 0.3):
            ts.set_step(dt)
            ts.advance()
        assert ts.dts == [0.3, 0.2]
        ts.advance()  # the step size holds until set again
        assert ts.dts == [0.3, 0.3]

    def test_reduced_step_rebuilds_then_returns_to_the_tables(self):
        # A retry at half the step: the levels stay spaced by the old dt
        # until two reduced steps have been taken.
        ts = TimeScheme(3)
        ts.jump_start([0.1, 0.1])
        ts.set_step(0.05)
        assert ts.bdf == variable_bdf([0.05, 0.1, 0.1])
        assert ts.ext == variable_ext([0.05, 0.1, 0.1])
        ts.advance()
        assert ts.bdf == variable_bdf([0.05, 0.05, 0.1])
        ts.advance()
        assert ts.bdf == BDF_COEFFS[3]
        assert ts.ext == EXT_COEFFS[3]

    def test_set_step_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TimeScheme(3).set_step(0.0)

    def test_order_ramp(self):
        ts = TimeScheme(3)
        ts.set_step(0.1)
        assert ts.order == 1
        b0, bs = ts.bdf
        assert b0 == pytest.approx(1.0)
        assert bs == pytest.approx((1.0,))
        ts.advance()
        ts.set_step(0.1)
        assert ts.order == 2
        ts.advance()
        ts.set_step(0.1)
        b0, bs = ts.bdf
        assert b0 == pytest.approx(BDF_COEFFS[3][0])

    def test_changing_steps(self):
        ts = TimeScheme(2)
        ts.set_step(0.1)
        ts.advance()
        ts.set_step(0.2)  # doubled step
        b0, bs = ts.bdf
        ref = variable_bdf([0.2, 0.1])
        assert b0 == pytest.approx(ref[0])
        assert np.allclose(bs, ref[1])

    def test_ode_convergence_with_random_steps(self):
        # Integrate y' = -y over [0, 1] with randomly varying steps.
        rng = np.random.default_rng(0)
        for order in (1, 2, 3):
            errs = []
            for n in (60, 120):
                steps = rng.uniform(0.5, 1.5, size=n)
                steps = steps / steps.sum()  # total time 1
                ts = TimeScheme(order)
                hist = [1.0]  # y(0), newest first
                t = 0.0
                for dt in steps:
                    ts.set_step(float(dt))
                    b0, bs = ts.bdf
                    s = sum(bj * hist[j] for j, bj in enumerate(bs[: len(hist)]))
                    y_new = s / (b0 + dt)
                    hist.insert(0, y_new)
                    del hist[order:]
                    ts.advance()
                    t += dt
                errs.append(abs(hist[0] - np.exp(-1.0)))
            rate = np.log2(errs[0] / errs[1])
            assert rate > order - 0.5, (order, errs)


@settings(max_examples=25, deadline=None)
@given(
    dts=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=3),
)
def test_property_bdf_consistency_any_steps(dts):
    """Property: variable BDF is exact on constants and linears."""
    b0, bs = variable_bdf(dts)
    # Constants: b0 - sum(bs) == 0.
    assert b0 - sum(bs) == pytest.approx(0.0, abs=1e-9)
    # Linear u(t) = t: derivative 1.
    taus = [0.0]
    acc = 0.0
    for dt in dts:
        acc -= dt
        taus.append(acc)
    deriv = (b0 * 0.0 - sum(bj * taus[j + 1] for j, bj in enumerate(bs))) / dts[0]
    assert deriv == pytest.approx(1.0, rel=1e-8)
