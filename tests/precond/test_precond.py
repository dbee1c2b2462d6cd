"""Tests for Jacobi, FDM/Schwarz and the hybrid Schwarz multigrid."""

import numpy as np
import pytest

from repro.precond import (
    CoarseGridSolver,
    FastDiagonalization,
    HybridSchwarzMultigrid,
    JacobiPrecond,
    SchwarzSmoother,
    helmholtz_diagonal,
)
from repro.precond.fdm import extended_grid_operators
from repro.sem.bc import DirichletBC
from repro.sem.mesh import box_mesh, cylinder_mesh
from repro.sem.operators import ax_helmholtz, ax_poisson
from repro.sem.space import FunctionSpace
from repro.solvers import ConjugateGradient, MeanProjector


@pytest.fixture(scope="module")
def sp():
    return FunctionSpace(box_mesh((2, 2, 2)), 5)


def assembled_poisson(space, mask=None):
    def amul(u):
        w = space.gs.add(ax_poisson(u, space.coef, space.dx))
        if mask is not None:
            w *= mask
        return w

    return amul


class TestHelmholtzDiagonal:
    def test_matches_probed_diagonal(self, sp):
        """The closed-form diagonal equals basis-vector probing of ax."""
        diag = helmholtz_diagonal(sp, 1.0, 2.0)
        rng = np.random.default_rng(0)
        # Probe a sample of entries.
        flat_idx = rng.choice(sp.n_dofs_local, size=40, replace=False)
        for fi in flat_idx:
            e = np.zeros(sp.n_dofs_local)
            e[fi] = 1.0
            e = e.reshape(sp.shape)
            w = ax_helmholtz(e, sp.coef, sp.dx, 1.0, 2.0)
            assert w.reshape(-1)[fi] == pytest.approx(diag.reshape(-1)[fi], rel=1e-10)

    def test_positive_for_positive_coefficients(self, sp):
        diag = helmholtz_diagonal(sp, 1.0, 1.0)
        assert np.all(sp.gs.add(diag) > 0)


class TestJacobi:
    def test_apply_is_diagonal_scaling(self, sp):
        pc = JacobiPrecond(sp, 1.0, 1.0)
        r = np.ones(sp.shape)
        z = pc(r)
        assert z.shape == sp.shape
        assert np.all(z > 0)

    def test_update_changes_diagonal(self, sp):
        pc = JacobiPrecond(sp, 1.0, 1.0)
        z1 = pc(np.ones(sp.shape))
        pc.update(1.0, 100.0)
        z2 = pc(np.ones(sp.shape))
        assert np.all(z2 < z1)

    def test_update_equals_direct_assembly(self, sp):
        # update() rescales the cached assembled diagonals; the reference
        # assembles h1 * diag A + h2 * B element by element.
        bc = DirichletBC(sp, ["bottom", "top"], 0.0)
        pc = JacobiPrecond(sp, 1.0, 1.0, mask=bc.mask)
        r = np.random.default_rng(3).normal(size=sp.shape)
        for h1, h2 in ((0.01, 100.0), (0.3, 7.5), (2.0, 0.0)):
            pc.update(h1, h2)
            diag = sp.gs.add(helmholtz_diagonal(sp, h1, h2))
            assert np.allclose(pc(r), r / diag * bc.mask, rtol=1e-13, atol=0.0)

    def test_invalid_coefficients_raise(self, sp):
        with pytest.raises(ValueError):
            JacobiPrecond(sp, -1.0, -1.0)

    def test_masked_dofs_zeroed(self, sp):
        bc = DirichletBC(sp, ["bottom"], 0.0)
        pc = JacobiPrecond(sp, 1.0, 1.0, mask=bc.mask)
        z = pc(np.ones(sp.shape))
        assert np.all(z[bc.mask == 0.0] == 0.0)

    def test_speeds_up_helmholtz_cg(self, sp):
        bc = DirichletBC(sp, ["bottom", "top", "x-", "x+", "y-", "y+"], 0.0)
        h1, h2 = 0.01, 100.0

        def amul(u):
            return sp.gs.add(ax_helmholtz(u, sp.coef, sp.dx, h1, h2)) * bc.mask

        rng = np.random.default_rng(1)
        b = sp.gs.add(sp.coef.mass * rng.normal(size=sp.shape)) * bc.mask
        plain = ConjugateGradient(amul, sp.gs.dot, tol=1e-10, maxiter=500)
        prec = ConjugateGradient(
            amul, sp.gs.dot, precond=JacobiPrecond(sp, h1, h2, mask=bc.mask), tol=1e-10, maxiter=500
        )
        _, m1 = plain.solve(b)
        _, m2 = prec.solve(b)
        assert m2.converged
        assert m2.iterations <= m1.iterations


class TestFDM:
    def test_extended_operators_cached_and_spd(self):
        s, lam, nodes = extended_grid_operators(5)
        assert s.shape == (5, 5)
        assert np.all(lam > 0)
        assert len(nodes) == 7
        s2, _, _ = extended_grid_operators(5)
        assert s is s2  # lru_cache

    def test_eigvec_normalization(self):
        # S^T M S = I for the reduced mass matrix.
        from repro.precond.fdm import _lagrange_matrices_on_nodes

        s, lam, nodes = extended_grid_operators(4)
        k, m = _lagrange_matrices_on_nodes(nodes)
        kr, mr = k[1:-1, 1:-1], m[1:-1, 1:-1]
        assert np.allclose(s.T @ mr @ s, np.eye(4), atol=1e-10)
        assert np.allclose(s.T @ kr @ s, np.diag(lam), atol=1e-8)

    def test_solve_shape_and_linearity(self, sp):
        fdm = FastDiagonalization(sp)
        rng = np.random.default_rng(2)
        a = rng.normal(size=sp.shape)
        b = rng.normal(size=sp.shape)
        za = fdm.solve(a)
        assert za.shape == sp.shape
        zab = fdm.solve(a + 3 * b)
        assert np.allclose(zab, za + 3 * fdm.solve(b), atol=1e-10)

    def test_solve_spd(self, sp):
        fdm = FastDiagonalization(sp)
        rng = np.random.default_rng(3)
        r = rng.normal(size=sp.shape)
        assert np.sum(r * fdm.solve(r)) > 0

    @pytest.mark.parametrize(
        "mesh", [box_mesh((2, 2, 2)), cylinder_mesh(n_square=2, n_ring=2, n_z=2)]
    )
    def test_tensor_apply_r_gemm_equals_batched_matmul(self, mesh):
        """The r direction as one 2-D GEMM is bit-identical to the batched
        4-D ``matmul`` (one small GEMM per element plane)."""
        space = FunctionSpace(mesh, 6)
        fdm = FastDiagonalization(space)
        u = np.random.default_rng(4).normal(size=space.shape)
        nelv, lz, ly, lx = u.shape
        for m in (fdm.st, fdm.s):
            v = np.matmul(m, u @ m.T)
            ref = np.matmul(m, v.reshape(nelv, lz, ly * lx)).reshape(u.shape)
            np.testing.assert_array_equal(fdm._tensor_apply(u, m), ref)


class TestSchwarz:
    def test_linearity(self, sp):
        sm = SchwarzSmoother(sp)
        rng = np.random.default_rng(4)
        a = sp.gs.add(rng.normal(size=sp.shape))
        b = sp.gs.add(rng.normal(size=sp.shape))
        assert np.allclose(sm(a + 2 * b), sm(a) + 2 * sm(b), atol=1e-10)

    def test_positive_on_residuals_of_smooth_fields(self, sp):
        # For residuals of actual fields, <M r, u> should be positive
        # (the smoother is an approximate inverse).
        from repro.sem.operators import ax_poisson

        sm = SchwarzSmoother(sp)
        u = np.cos(np.pi * sp.x) * np.cos(np.pi * sp.y)
        r = sp.gs.add(ax_poisson(u, sp.coef, sp.dx))
        z = sm(r)
        assert sp.gs.dot(z, u) > 0

    def test_output_continuous(self, sp):
        sm = SchwarzSmoother(sp)
        rng = np.random.default_rng(5)
        z = sm(sp.gs.add(rng.normal(size=sp.shape)))
        assert np.allclose(sp.gs.average(z), z, atol=1e-10)

    def test_kernel_inventory(self, sp):
        sm = SchwarzSmoother(sp)
        inv = sm.kernel_inventory()
        names = [k for k, _ in inv]
        assert "fdm_apply_st" in names
        assert all(n > 0 for _, n in inv)
        inv_big = sm.kernel_inventory(n_elements=10**6)
        assert inv_big[0][1] > inv[0][1]


class TestCoarse:
    def test_restriction_prolongation_adjoint(self, sp):
        cg = CoarseGridSolver(sp)
        rng = np.random.default_rng(6)
        rf = rng.normal(size=sp.shape)
        uv = rng.normal(size=cg.n_vertices)
        lhs = np.sum(cg.restrict(rf) * uv)
        rhs = np.sum(rf * cg.prolong(uv))
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_prolong_constant(self, sp):
        cg = CoarseGridSolver(sp)
        u = cg.prolong(np.ones(cg.n_vertices))
        assert np.allclose(u, 1.0, atol=1e-12)

    def test_coarse_operator_is_galerkin(self, sp):
        # A0 must equal J^T A J: compare the action on a random coarse
        # vector against restrict(A(prolong(u))).
        from repro.sem.operators import ax_poisson

        cg = CoarseGridSolver(sp)
        rng = np.random.default_rng(60)
        uv = rng.normal(size=cg.n_vertices)
        uf = cg.prolong(uv)
        af = sp.gs.add(ax_poisson(uf, sp.coef, sp.dx)) / sp.gs.multiplicity
        galerkin = cg.restrict(af)
        direct = cg.a0 @ uv
        assert np.allclose(galerkin, direct, atol=1e-9 * max(1.0, np.abs(direct).max()))

    def test_smooth_mode_recovery(self):
        # The coarse correction must recover a smooth global mode to ~5%.
        from repro.sem.operators import ax_poisson

        sp4 = FunctionSpace(box_mesh((4, 4, 4)), 5)
        cg = CoarseGridSolver(sp4)
        u = np.cos(np.pi * sp4.x)
        r = sp4.gs.add(ax_poisson(u, sp4.coef, sp4.dx))
        z = cg(r)
        um = u - sp4.mean(u)
        zm = z - sp4.mean(z)
        scale = sp4.integrate(zm * um) / sp4.integrate(um * um)
        assert scale == pytest.approx(1.0, abs=0.12)

    def test_coarse_correction_zero_mean(self, sp):
        cg = CoarseGridSolver(sp)
        rng = np.random.default_rng(7)
        r = sp.gs.add(sp.coef.mass * rng.normal(size=sp.shape))
        z = cg(r)
        assert z.shape == sp.shape
        assert np.isfinite(z).all()

    def test_kernel_inventory(self, sp):
        cg = CoarseGridSolver(sp)
        inv = dict(cg.kernel_inventory())
        assert list(inv) == ["coarse_restrict", "coarse_direct_solve", "coarse_prolong"]
        assert all(n > 0 for n in inv.values())
        # Every entry, the factor's work included, grows with the mesh.
        big = dict(cg.kernel_inventory(n_elements=10**6))
        assert all(big[k] > inv[k] for k in inv)
        assert big["coarse_direct_solve"] == pytest.approx(
            inv["coarse_direct_solve"] * 10**6 / sp.mesh.nelv, rel=1e-6
        )

    @pytest.mark.parametrize("n, lx", [((3, 3, 3), 6), ((2, 3, 2), 8)])
    @pytest.mark.parametrize("masked", [False, True])
    def test_inverts_a0_on_the_q1_space(self, n, lx, masked):
        # The correction is R0^T A0^{-1} R0, and R0 A prolong = A0: a fine
        # residual of a prolonged vertex field comes back as that field.
        space = FunctionSpace(box_mesh(n), lx)
        mask = None
        if masked:
            mask = DirichletBC(space, ["bottom", "top"]).mask
        cg = CoarseGridSolver(space, mask=mask, cache=False)
        uv = np.random.default_rng(61).normal(size=cg.n_vertices)
        if masked:
            uv[~cg._free] = 0.0
        else:
            uv -= uv.mean()
        uf = cg.prolong(uv)
        r = space.gs.add(ax_poisson(uf, space.coef, space.dx))
        if masked:
            r *= mask
        err = np.abs(cg(r) - uf).max() / np.abs(uf).max()
        assert err < 1e-12


class TestHSMG:
    def test_preconditioned_solve_beats_plain(self):
        sp = FunctionSpace(box_mesh((3, 3, 3)), 6)
        amul = assembled_poisson(sp)
        proj = MeanProjector.counting(sp.gs)
        rng = np.random.default_rng(8)
        f = rng.normal(size=sp.shape)
        b = sp.gs.add(sp.coef.mass * (f - sp.mean(f)))
        dot = sp.gs.dot
        plain = ConjugateGradient(amul, dot, tol=1e-6, maxiter=400, project_out=proj)
        hsmg = HybridSchwarzMultigrid(sp)
        prec = ConjugateGradient(amul, dot, precond=hsmg, tol=1e-6, maxiter=400, project_out=proj)
        _, m1 = plain.solve(b)
        _, m2 = prec.solve(b)
        assert m2.converged
        assert m2.iterations < m1.iterations / 2

    def test_parts_sum_to_whole(self):
        sp = FunctionSpace(box_mesh((2, 2, 1)), 4)
        hsmg = HybridSchwarzMultigrid(sp)
        rng = np.random.default_rng(9)
        r = sp.gs.add(rng.normal(size=sp.shape))
        zc, zs = hsmg.apply_parts(r)
        z = hsmg(r)
        assert np.allclose(z, zc + zs, atol=1e-12)

    def test_mid_level_ladder(self):
        sp = FunctionSpace(box_mesh((2, 2, 2)), 7)
        amul = assembled_poisson(sp)
        proj = MeanProjector.counting(sp.gs)
        rng = np.random.default_rng(10)
        f = rng.normal(size=sp.shape)
        b = sp.gs.add(sp.coef.mass * (f - sp.mean(f)))
        three = HybridSchwarzMultigrid(sp, mid_orders=(4,))
        g3 = ConjugateGradient(
            amul, sp.gs.dot, precond=three, tol=1e-6, maxiter=300, project_out=proj
        )
        _, m3 = g3.solve(b)
        assert m3.converged

    def test_invalid_mid_order(self):
        sp = FunctionSpace(box_mesh((1, 1, 1)), 5)
        with pytest.raises(ValueError):
            HybridSchwarzMultigrid(sp, mid_orders=(5,))

    def test_works_on_cylinder(self):
        sp = FunctionSpace(cylinder_mesh(n_square=2, n_ring=1, n_z=2), 5)
        amul = assembled_poisson(sp)
        proj = MeanProjector.counting(sp.gs)
        rng = np.random.default_rng(11)
        f = rng.normal(size=sp.shape)
        b = sp.gs.add(sp.coef.mass * (f - sp.mean(f)))
        hsmg = HybridSchwarzMultigrid(sp)
        g = ConjugateGradient(
            amul, sp.gs.dot, precond=hsmg, tol=1e-6, maxiter=300, project_out=proj
        )
        _, mon = g.solve(b)
        assert mon.converged
        assert mon.iterations < 120
