"""Tests for BDF/EXT coefficients, the order ramp and CFL estimation."""

import numpy as np
import pytest

from repro.sem.mesh import box_mesh
from repro.sem.space import FunctionSpace
from repro.timeint import BDF_COEFFS, EXT_COEFFS, TimeScheme, courant_number, max_stable_dt


class TestCoefficients:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_consistency(self, order):
        assert TimeScheme.verify_consistency(order) < 1e-13

    def test_bdf_sums(self):
        # For exactness on constants: b0 - sum(bj) == 0.
        for order, (b0, bs) in BDF_COEFFS.items():
            assert b0 - sum(bs) == pytest.approx(0.0, abs=1e-14), order

    def test_ext_sums_to_one(self):
        for order, a in EXT_COEFFS.items():
            assert sum(a) == pytest.approx(1.0, abs=1e-14), order

    def test_bdf3_values(self):
        b0, bs = BDF_COEFFS[3]
        assert b0 == pytest.approx(11 / 6)
        assert bs == pytest.approx((3.0, -1.5, 1 / 3))

    def test_order_of_accuracy_on_ode(self):
        # Integrate dy/dt = -y with BDF-k/analytic and check convergence order.
        for order in (1, 2, 3):
            errs = []
            for n in (40, 80):
                dt = 1.0 / n
                b0, bs = BDF_COEFFS[order]
                # Exact history, newest first: y(t) = e^{-t} at t = 0, -dt, ...
                hist = [np.exp(i * dt) for i in range(order)]
                t = 0.0
                while t < 1.0 - 1e-12:
                    # (b0 y_new - sum bj y_old)/dt = -y_new
                    s = sum(bj * hist[j] for j, bj in enumerate(bs[:len(hist)]))
                    y_new = s / (b0 + dt)
                    hist.insert(0, y_new)
                    del hist[order:]
                    t += dt
                errs.append(abs(hist[0] - np.exp(-1.0)))
            rate = np.log2(errs[0] / errs[1])
            assert rate > order - 0.3, (order, errs)


class TestTimeScheme:
    def test_invalid_order(self):
        with pytest.raises(ValueError):
            TimeScheme(4)

    def test_order_ramp(self):
        ts = TimeScheme(3)
        assert ts.order == 1
        ts.advance()
        assert ts.order == 2
        ts.advance()
        assert ts.order == 3
        ts.advance()
        assert ts.order == 3

    def test_target_order_one(self):
        ts = TimeScheme(1)
        ts.advance()
        ts.advance()
        assert ts.order == 1

    def test_coefficients_track_order(self):
        ts = TimeScheme(2)
        assert ts.bdf == BDF_COEFFS[1]
        ts.advance()
        assert ts.bdf == BDF_COEFFS[2]
        assert ts.ext == EXT_COEFFS[2]

    @pytest.mark.parametrize("steps", [[0.1, 0.1, 0.1], [0.05, 0.1, 0.2]])
    def test_multistep_sums(self, steps):
        # The right-hand side a_q f^{n+1-q} + (b_j / dt) B u^{n+1-j} and the
        # EXT guess, summed in the order the integrators have always used.
        rng = np.random.default_rng(0)
        ts = TimeScheme(3)
        ts.jump_start(steps[1:])
        ts.set_step(steps[0])
        b0, bs = ts.bdf
        ext = ts.ext
        mass, dt = rng.uniform(0.5, 1.0, 8), steps[0]
        levels = [rng.standard_normal(8) for _ in range(3)]
        forcing = [rng.standard_normal(8) for _ in range(2)]  # one short
        rhs = np.zeros(8)
        for q, aq in enumerate(ext[:2]):
            rhs += aq * forcing[q]
        for j, bj in enumerate(bs):
            rhs += (bj / dt) * mass * levels[j]
        assert np.array_equal(ts.history_rhs(forcing, levels, mass, dt), rhs)
        guess = sum(aq * lev for aq, lev in zip(ext, levels))
        assert np.array_equal(ts.extrapolate(levels), guess)


class TestCFL:
    @pytest.fixture(scope="class")
    def sp(self):
        return FunctionSpace(box_mesh((2, 2, 2)), 5)

    def test_zero_velocity(self, sp):
        z = np.zeros(sp.shape)
        assert courant_number(sp, z, z, z, 0.1) == 0.0
        assert max_stable_dt(sp, z, z, z) == np.inf

    def test_linear_in_dt_and_velocity(self, sp):
        u = np.ones(sp.shape)
        z = np.zeros(sp.shape)
        c1 = courant_number(sp, u, z, z, 0.1)
        c2 = courant_number(sp, u, z, z, 0.2)
        c3 = courant_number(sp, 2 * u, z, z, 0.1)
        assert c2 == pytest.approx(2 * c1)
        assert c3 == pytest.approx(2 * c1)

    def test_magnitude_reasonable(self, sp):
        # |u| = 1 through elements of size 0.5 with lx=5: the smallest GLL
        # spacing is 0.5 * (x1-x0)/2; CFL(dt=that spacing) ~ 1.
        u = np.ones(sp.shape)
        z = np.zeros(sp.shape)
        from repro.sem.quadrature import gll_points_weights

        x, _ = gll_points_weights(5)
        dmin = (x[1] - x[0]) * 0.25  # half-element scale maps [-1,1] -> 0.5
        c = courant_number(sp, u, z, z, dmin)
        assert 0.5 < c < 2.0

    def test_max_stable_dt_inverse(self, sp):
        u = np.ones(sp.shape)
        z = np.zeros(sp.shape)
        dt = max_stable_dt(sp, u, z, z, cfl_target=0.5)
        assert courant_number(sp, u, z, z, dt) == pytest.approx(0.5)
