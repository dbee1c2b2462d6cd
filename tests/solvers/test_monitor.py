"""SolverMonitor edge cases.

The monitors feed both the adaptive-timestep logic and the solver spans
of the trace, so their corner semantics (zero initial residual, iteration
exhaustion) are load-bearing."""

import math

import pytest

from repro.solvers.monitor import SolverMonitor


class TestSolverMonitor:
    def test_zero_initial_residual_is_immediate_convergence(self):
        mon = SolverMonitor(tol=1e-8)
        assert mon.start(0.0) is True
        assert mon.converged
        assert mon.iterations == 0
        assert mon.final_residual == 0.0

    def test_tiny_initial_residual_below_atol_converges(self):
        mon = SolverMonitor(tol=1e-8, atol=1e-30)
        assert mon.start(1e-31) is True

    def test_relative_criterion(self):
        mon = SolverMonitor(tol=1e-2)
        assert mon.start(100.0) is False
        assert mon.step(10.0) is False
        assert mon.step(0.99) is True  # 0.99 <= 1e-2 * 100
        assert mon.iterations == 2

    def test_reference_is_the_scale_tol_is_relative_to(self):
        m = SolverMonitor(tol=1e-2, name="velocity")
        assert m.start(0.5, reference=100.0) is True  # 0.5 <= 1e-2 * 100
        assert m.reference == 100.0 and m.iterations == 0
        m.start(50.0, reference=100.0)
        assert m.step(2.0) is False
        assert m.step(0.9) is True
        assert m.reference == 100.0
        assert "of 1.000e+02" in m.summary()
        # Never below the initial residual: no solve gets stricter than
        # ``tol`` of what it started from, and a vanishing ``b`` is solvable.
        m.start(3.0, reference=0.0)
        assert m.reference == 3.0 and m.target == pytest.approx(3e-2)
        m.start(3.0)
        assert m.reference == 3.0

    def test_zero_initial_residual_then_step_uses_atol_floor(self):
        # With r0 == 0 the relative target collapses; the atol floor keeps
        # the criterion meaningful instead of demanding r <= 0 exactly.
        mon = SolverMonitor(tol=1e-8, atol=1e-30)
        mon.start(0.0)
        assert mon.step(1e-31) is True
        assert mon.step(1e-20) is False

    def test_exhaustion_without_convergence(self):
        mon = SolverMonitor(tol=1e-12, name="pressure")
        mon.start(1.0)
        for _ in range(50):  # a stalled solver hitting its ceiling
            mon.step(0.5)
        assert not mon.converged
        assert mon.iterations == 50
        assert mon.final_residual == 0.5
        assert "NOT converged" in mon.summary()

    def test_empty_monitor_residuals_are_nan(self):
        mon = SolverMonitor(tol=1e-8)
        assert math.isnan(mon.initial_residual)
        assert math.isnan(mon.final_residual)
        assert mon.iterations == 0

    def test_restart_resets_history(self):
        mon = SolverMonitor(tol=1e-8)
        mon.start(1.0)
        mon.step(0.5)
        mon.start(2.0)
        assert mon.residuals == [2.0]
        assert not mon.converged

    def test_summary_names_the_solve(self):
        mon = SolverMonitor(tol=1e-1, name="temperature")
        mon.start(1.0)
        mon.step(1e-3)
        assert mon.summary().startswith("temperature: converged in 1 iters")

