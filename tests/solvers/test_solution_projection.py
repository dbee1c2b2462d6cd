"""Tests for the solution-projection space."""

import numpy as np
import pytest

from repro.solvers import ConjugateGradient, SolutionProjection


def dense_dot(a, b):
    return float(np.dot(a.reshape(-1), b.reshape(-1)))


def make_spd(n, seed=0, cond=100.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.geomspace(1.0, cond, n)
    return q @ np.diag(lam) @ q.T


class TestSolutionProjection:
    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            SolutionProjection(lambda u: u, dense_dot, max_dim=0)

    def test_exact_for_repeated_rhs(self):
        a = make_spd(30, seed=5)
        proj = SolutionProjection(lambda u: a @ u, dense_dot, max_dim=5)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-12, maxiter=200)
        b = np.ones(30)
        x1, m1 = proj.solve_with(cg, b)
        assert m1.iterations > 0
        # Second solve with the same rhs: the guess is already exact.
        x2, m2 = proj.solve_with(cg, b)
        assert np.allclose(x2, x1, atol=1e-8)
        assert m2.iterations <= 1

    def test_guess_quality_tracked(self):
        a = make_spd(25, seed=6)
        proj = SolutionProjection(lambda u: a @ u, dense_dot, max_dim=5)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-12, maxiter=200)
        b = np.ones(25)
        proj.solve_with(cg, b)
        proj.initial_guess(b)
        assert proj.last_guess_norm_fraction > 0.99

    def test_rolling_window(self):
        a = make_spd(20, seed=7)
        proj = SolutionProjection(lambda u: a @ u, dense_dot, max_dim=3)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-12, maxiter=100)
        rng = np.random.default_rng(8)
        for _ in range(6):
            proj.solve_with(cg, rng.normal(size=20))
        assert proj.dim <= 3

    def test_reduces_iterations_for_slowly_varying_rhs(self):
        # The saving equals the digits removed by deflation: the deflated
        # residual is ~||perturbation|| and only needs reducing to
        # tol * ||b|| (the absolute floor), not tol * ||r_deflated||.
        a = make_spd(40, seed=9, cond=1e3)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-10, maxiter=500)
        proj = SolutionProjection(lambda u: a @ u, dense_dot, max_dim=8)
        rng = np.random.default_rng(10)
        base = rng.normal(size=40)
        its_plain, its_proj = [], []
        for k in range(8):
            b = base + 1e-3 * rng.normal(size=40)
            _, m_plain = cg.solve(b)
            its_plain.append(m_plain.iterations)
            _, m_proj = proj.solve_with(cg, b)
            its_proj.append(m_proj.iterations)
        # Deflation removes ~99.9% of the right-hand side...
        assert proj.last_guess_norm_fraction > 0.995
        # ...and strictly reduces the iteration count after warmup (the
        # tail digits converge slowly on this ill-conditioned matrix, so
        # the saving is a solid margin rather than the full digit ratio).
        assert np.mean(its_proj[2:]) < 0.97 * np.mean(its_plain[2:])

    def test_basis_a_orthonormal(self):
        a = make_spd(15, seed=11)
        proj = SolutionProjection(lambda u: a @ u, dense_dot, max_dim=4)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-13, maxiter=60)
        rng = np.random.default_rng(12)
        for _ in range(4):
            proj.solve_with(cg, rng.normal(size=15))
        for i, xi in enumerate(proj._x):
            for j, xj in enumerate(proj._x):
                val = dense_dot(xi, a @ xj)
                expect = 1.0 if i == j else 0.0
                assert val == pytest.approx(expect, abs=1e-6)

    def test_clear(self):
        a = make_spd(10, seed=13)
        proj = SolutionProjection(lambda u: a @ u, dense_dot)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-12)
        proj.solve_with(cg, np.ones(10))
        assert proj.dim == 1
        proj.clear()
        assert proj.dim == 0

    def test_degenerate_direction_discarded(self):
        a = make_spd(10, seed=14)
        proj = SolutionProjection(lambda u: a @ u, dense_dot)
        proj.update(np.ones(10))
        # The same direction again contributes nothing.
        proj.update(np.ones(10))
        assert proj.dim == 1

    def test_residual_replacement_when_true_residual_misses(self):
        # The first 25 operator applications carry a 1e-3 relative error,
        # so the recurrence converges to the wrong system; the true residual
        # of the correction exposes it and the solve resumes from there.
        a = make_spd(30, seed=3, cond=50.0)
        b = np.ones(30)
        calls = {"n": 0}

        def amul(u):
            calls["n"] += 1
            return (a @ u) * (1.001 if calls["n"] <= 25 else 1.0)

        cg = ConjugateGradient(amul, dense_dot, tol=1e-8, maxiter=200)
        proj = SolutionProjection(amul, dense_dot)
        x, mon = proj.solve_with(cg, b)
        assert mon.converged
        assert np.linalg.norm(a @ x - b) <= 1e-8 * np.linalg.norm(b)
        # The replaced residual is visible as a jump in the history, and the
        # second closing evaluation as one more operator application.
        jumps = [k for k in range(1, len(mon.residuals)) if mon.residuals[k] > mon.residuals[k - 1]]
        assert jumps and mon.iterations > jumps[0]
        assert calls["n"] == mon.iterations + 2
        # The solver's floor and budget are back to what they were.
        assert (cg.atol, cg.maxiter) == (1e-30, 200)

    def test_resumed_solve_counts_toward_maxiter(self):
        # The solver's operator is 5 % off, so every recurrence converges
        # to the wrong system: the first one in 19 iterations, after which
        # the true residual misses and the solve resumes.  With a budget of
        # 20 the resumed solve gets one iteration; with 200 it converges.
        a = make_spd(30, seed=3, cond=50.0)
        b = np.ones(30)
        proj = SolutionProjection(lambda u: a @ u, dense_dot)
        cg = ConjugateGradient(lambda u: 1.05 * (a @ u), dense_dot, tol=1e-3, maxiter=20)
        _, mon = proj.solve_with(cg, b)
        assert mon.iterations == 20 and not mon.converged
        assert mon.residuals[19] > 10 * mon.residuals[18]
        assert cg.maxiter == 20
        cg.maxiter = 200
        proj.clear()
        x, mon = proj.solve_with(cg, b)
        assert mon.converged and 20 < mon.iterations < 200
        assert np.linalg.norm(b - a @ x) <= 1e-3 * np.linalg.norm(b)


class TestProjectionRestart:
    """A full basis restarts from the current solution (Fischer / Nek5000)."""

    MAX_DIM = 4

    def drifting_sequence(self, n=60, seed=20):
        """SPD system, a CG for it, and right-hand sides that drift slowly:
        a fixed bulk plus a small component that changes every solve."""
        a = make_spd(n, seed=seed, cond=1e3)
        cg = ConjugateGradient(lambda u: a @ u, dense_dot, tol=1e-8, maxiter=500)
        rng = np.random.default_rng(seed + 1)
        base = rng.normal(size=n)
        rhs = [base + 1e-3 * rng.normal(size=n) for _ in range(3 * self.MAX_DIM)]
        return a, cg, rhs

    def test_iterations_stay_low_after_overflow(self):
        # Dropping the oldest direction of an incrementally orthonormalised
        # basis drops the normalised first solution, i.e. the bulk of every
        # later one, and the counts go back to the undeflated level.
        a, cg, rhs = self.drifting_sequence()
        proj = SolutionProjection(lambda u: a @ u, dense_dot, max_dim=self.MAX_DIM)
        plain = [cg.solve(b)[1].iterations for b in rhs]
        deflated = [proj.solve_with(cg, b)[1].iterations for b in rhs]
        filling = deflated[1 : self.MAX_DIM]
        after = deflated[self.MAX_DIM :]
        assert max(filling) < 0.9 * min(plain)
        assert max(after) < 0.9 * min(plain), (plain, deflated)

    def test_dim_is_one_after_overflow_and_basis_stays_orthonormal(self):
        a, cg, rhs = self.drifting_sequence()
        cg.tol = 1e-13
        proj = SolutionProjection(lambda u: a @ u, dense_dot, max_dim=self.MAX_DIM)
        dims = []
        for b in rhs:
            x, _ = proj.solve_with(cg, b)
            dims.append(proj.dim)
            basis = np.array(proj._x)
            gram = basis @ a @ basis.T
            assert np.abs(gram - np.eye(proj.dim)).max() < 1e-10
            assert np.abs(np.array(proj._ax) - basis @ a).max() < 1e-10
        assert dims[: self.MAX_DIM + 1] == [1, 2, 3, 4, 1]
        assert max(dims) == self.MAX_DIM
        # The restarted basis is the current solution, A-normalised.
        x, _ = proj.solve_with(cg, rhs[0])
        while proj.dim != 1:
            x, _ = proj.solve_with(cg, rhs[0])
        assert np.allclose(proj._x[0], x / np.sqrt(x @ a @ x), atol=1e-10)

    def test_restart_applies_no_operator(self):
        a, _, rhs = self.drifting_sequence()
        calls = {"amul": 0}

        def amul(u):
            calls["amul"] += 1
            return a @ u

        cg = ConjugateGradient(amul, dense_dot, tol=1e-8, maxiter=500)
        proj = SolutionProjection(amul, dense_dot, max_dim=self.MAX_DIM)
        for b in rhs:
            calls["amul"] = 0
            _, mon = proj.solve_with(cg, b)
            # One application per iteration plus the image of the correction,
            # which closes the solve on its true residual and serves the
            # basis update -- on restarts too.
            assert calls["amul"] == mon.iterations + 1

    def test_state_round_trip_across_restart(self):
        a, cg, rhs = self.drifting_sequence()
        proj = SolutionProjection(lambda u: a @ u, dense_dot, max_dim=self.MAX_DIM)
        for b in rhs[: self.MAX_DIM - 1]:
            proj.solve_with(cg, b)
        # Saved one solve before the basis fills; the restored copy must
        # overflow and restart exactly as the original does.
        saved = {k: v.copy() for k, v in proj.state_arrays().items()}
        twin = SolutionProjection(lambda u: a @ u, dense_dot, max_dim=self.MAX_DIM)
        twin.load_state(saved)
        assert twin.dim == proj.dim == self.MAX_DIM - 1
        for b in rhs[self.MAX_DIM - 1 : self.MAX_DIM + 2]:
            x1, m1 = proj.solve_with(cg, b)
            x2, m2 = twin.solve_with(cg, b)
            assert np.array_equal(x1, x2)
            assert m1.iterations == m2.iterations
        assert twin.dim == proj.dim == 2
        again = SolutionProjection(lambda u: a @ u, dense_dot, max_dim=self.MAX_DIM)
        again.load_state(proj.state_arrays())
        for got, want in zip(again._x + again._ax, proj._x + proj._ax):
            assert np.array_equal(got, want)
