"""Tests for CG against dense references and SEM operators."""

import numpy as np
import pytest

from repro.observability.tracer import Tracer
from repro.solvers import ConjugateGradient, MeanProjector, SolverMonitor


def dense_dot(a, b):
    return float(np.dot(a.reshape(-1), b.reshape(-1)))


def make_spd(n, seed=0, cond=100.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.geomspace(1.0, cond, n)
    return q @ np.diag(lam) @ q.T


class TestMonitor:
    def test_initial_convergence(self):
        m = SolverMonitor(tol=1e-8)
        assert m.start(0.0) is True
        assert m.iterations == 0

    def test_relative_criterion(self):
        m = SolverMonitor(tol=1e-2)
        m.start(1.0)
        assert m.step(0.5) is False
        assert m.step(0.009) is True
        assert m.iterations == 2

    def test_summary_format(self):
        m = SolverMonitor(tol=1e-3, name="p")
        m.start(1.0)
        m.step(1e-4)
        assert "converged" in m.summary()
        assert "p" in m.summary()


class TestCG:
    def test_identity(self):
        b = np.ones(10)
        cg = ConjugateGradient(lambda u: u, dense_dot)
        x, mon = cg.solve(b)
        assert np.allclose(x, b)
        assert mon.converged

    def test_spd_system(self):
        a = make_spd(40, seed=1)
        b = np.arange(40, dtype=float)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-12, maxiter=200)
        x, mon = cg.solve(b)
        assert mon.converged
        assert np.allclose(a @ x, b, atol=1e-8)

    def test_jacobi_preconditioner_reduces_iterations(self):
        a = make_spd(60, seed=2, cond=1e4)
        # Scale rows/cols to create wildly varying diagonal.
        s = np.diag(np.geomspace(1.0, 100.0, 60))
        a = s @ a @ s
        b = np.ones(60)
        inv_diag = 1.0 / np.diag(a)
        plain = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-10, maxiter=2000)
        prec = ConjugateGradient(
            lambda u: a @ u, dense_dot, precond=lambda r: inv_diag * r, tol=1e-10, maxiter=2000
        )
        _, m1 = plain.solve(b)
        _, m2 = prec.solve(b)
        assert m2.converged
        assert m2.iterations < m1.iterations

    def test_nonzero_initial_guess(self):
        a = make_spd(20, seed=3)
        xexact = np.linspace(0, 1, 20)
        b = a @ xexact
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-12)
        x, mon = cg.solve(b, x0=xexact + 1e-3)
        assert np.allclose(x, xexact, atol=1e-8)
        assert mon.iterations <= 30

    def test_good_guess_halves_the_iterations(self):
        # tol is measured against ||b||, so a guess that is right to six
        # digits leaves two to find.  Measured against ||r_0|| (this repo
        # until PR 22) the same guess bought nothing: 118 iterations against
        # 117 from zero.
        a = make_spd(80, seed=12, cond=1e3)
        rng = np.random.default_rng(13)
        xexact = rng.normal(size=80)
        b = a @ xexact
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-8, maxiter=500)
        _, cold = cg.solve(b)
        x, warm = cg.solve(b, x0=xexact + 1e-6 * rng.normal(size=80))
        assert cold.converged and warm.converged
        assert cold.iterations == 117
        assert warm.iterations <= cold.iterations // 2
        assert np.linalg.norm(b - a @ x) <= 1e-8 * np.linalg.norm(b)
        assert warm.reference == pytest.approx(np.linalg.norm(b))
        assert cold.reference == cold.initial_residual

    def test_without_a_guess_the_history_is_the_classic_one(self):
        # reference = ||r_0|| = ||b|| when x0 is None: iteration counts and
        # closing residuals of the fixtures above, pinned bit for bit.
        a = make_spd(40, seed=1)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-12, maxiter=200)
        _, mon = cg.solve(np.arange(40, dtype=float))
        assert mon.iterations == 55
        assert mon.final_residual == float.fromhex("0x1.1bf27fd0f89f4p-33")

        a = make_spd(15, seed=5, cond=10.0)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-13, maxiter=30)
        _, mon = cg.solve(np.ones(15))
        assert mon.iterations == 16
        assert mon.final_residual == float.fromhex("0x1.0795174ff092ap-47")

        a = make_spd(60, seed=2, cond=1e4)
        s = np.diag(np.geomspace(1.0, 100.0, 60))
        a = s @ a @ s
        inv_diag = 1.0 / np.diag(a)
        cg = ConjugateGradient(
            lambda u: a @ u, dense_dot, precond=lambda r: inv_diag * r, tol=1e-10, maxiter=2000
        )
        _, mon = cg.solve(np.ones(60))
        assert mon.iterations == 204
        assert mon.final_residual == float.fromhex("0x1.1e4ee0ac536afp-31")

    def test_zero_rhs_with_nonzero_guess_converges_to_zero(self):
        # A bare tol * ||b|| target would be zero here and the solve would
        # run to maxiter; the reference falls back to ||r_0||.
        a = make_spd(30, seed=6)
        rng = np.random.default_rng(7)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-10, maxiter=200)
        x, mon = cg.solve(np.zeros(30), x0=rng.normal(size=30))
        assert mon.converged
        assert mon.iterations < 200
        assert mon.reference == mon.initial_residual
        assert np.linalg.norm(x) <= 1e-9
        # Round-off instead of exact zeros behaves the same way.
        x, mon = cg.solve(1e-300 * np.ones(30), x0=rng.normal(size=30))
        assert mon.converged and np.linalg.norm(x) <= 1e-9

    def test_exact_in_n_iterations(self):
        # CG terminates in at most n iterations in exact arithmetic.
        a = make_spd(15, seed=5, cond=10.0)
        b = np.ones(15)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-13, maxiter=30)
        x, mon = cg.solve(b)
        assert mon.converged
        assert mon.iterations <= 20

    def test_weighted_inner_product(self):
        # A and M symmetric in <u, v> = sum(u W v): A = W^-1 S, M = T W.
        rng = np.random.default_rng(20)
        w = rng.uniform(0.25, 1.0, size=30)
        s, t = make_spd(30, seed=21), make_spd(30, seed=22, cond=10.0)
        a = s / w[:, None]
        b = rng.normal(size=30)
        cg = ConjugateGradient(
            lambda u: a @ u,
            lambda u, v: float(np.dot(u * w, v)),
            precond=lambda r: t @ (w * r),
            tol=1e-11,
            maxiter=300,
        )
        x, mon = cg.solve(b, x0=0.5 * np.linalg.solve(a, b))
        assert mon.converged
        assert np.allclose(a @ x, b, atol=1e-8)

    def test_singular_consistent_with_projection(self):
        n = 12
        a = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        a[0, 0] = a[-1, -1] = 1.0  # pure Neumann 1-D Laplacian
        proj = MeanProjector(np.ones(n))
        rng = np.random.default_rng(9)
        b = proj(rng.normal(size=n))
        cg = ConjugateGradient(
            lambda u: a @ u, dense_dot, tol=1e-11, maxiter=100, project_out=proj
        )
        x, mon = cg.solve(b + 3.0)  # the incompatible constant is projected away
        assert mon.converged
        assert np.allclose(a @ x, b, atol=1e-8)
        assert abs(np.mean(x)) < 1e-10

    def test_maxiter_reports_not_converged(self):
        a = make_spd(50, seed=4, cond=1e6)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-12, maxiter=5)
        x, mon = cg.solve(np.ones(50))
        assert mon.iterations == 5
        assert not mon.converged
        assert mon.final_residual == pytest.approx(np.linalg.norm(np.ones(50) - a @ x))

    def test_breakdown_returns_best_iterate(self):
        a = np.diag([1.0, 2.0, 3.0, -4.0])
        b = np.ones(4)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-12, maxiter=50)
        x, mon = cg.solve(b)
        assert not mon.converged
        assert mon.iterations < 50
        assert np.all(np.isfinite(x))
        assert mon.final_residual == pytest.approx(np.linalg.norm(b - a @ x))

    def test_indefinite_preconditioner_stops_on_rho(self):
        # The operator is SPD, so <p, A p> > 0 throughout; the preconditioner
        # has a negative eigenvalue and <r, M^-1 r> turns negative after the
        # first step.  The solve stops there and keeps that iterate.
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        m_inv = np.array([1.0, 1.0, 1.0, -1.0])
        b = np.ones(4)
        cg = ConjugateGradient(
            lambda u: a @ u, dense_dot, precond=lambda r: m_inv * r, tol=1e-12, maxiter=50
        )
        x, mon = cg.solve(b)
        assert not mon.converged
        assert mon.iterations == 1
        assert np.all(np.isfinite(x)) and np.any(x != 0.0)
        assert mon.final_residual == pytest.approx(np.linalg.norm(b - a @ x))

    def test_span_emitted_under_live_tracer(self):
        a = make_spd(20, seed=5)
        tracer = Tracer()
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, name="pressure", tracer=tracer)
        _, mon = cg.solve(np.ones(20))
        (span,) = tracer.spans_named("krylov.pressure")
        assert span.counters["iterations"] == mon.iterations
        assert span.tags["converged"] is True
        assert span.tags["initial_residual"] == mon.initial_residual
        assert span.tags["final_residual"] == mon.final_residual


class TestMeanProjector:
    def test_removes_weighted_mean(self):
        w = np.array([1.0, 2.0, 1.0])
        p = MeanProjector(w)
        u = np.array([1.0, 1.0, 1.0])
        p(u)
        assert np.allclose(u, 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.5, 2.0, size=50)
        p = MeanProjector(w)
        u = rng.normal(size=50)
        p(u)
        v = u.copy()
        p(u)
        assert np.allclose(u, v)

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            MeanProjector(np.zeros(3))
