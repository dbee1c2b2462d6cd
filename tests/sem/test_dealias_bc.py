"""Tests for dealiasing and boundary conditions."""

import numpy as np
import pytest

from repro.sem.bc import BoundaryMask, DirichletBC, combine_masks
from repro.sem.dealias import Dealiaser, interp3, interp3_transpose
from repro.sem.mesh import box_mesh, cylinder_mesh
from repro.sem.operators import convective_term_collocated
from repro.sem.space import FunctionSpace
from tests.sem.test_operator_properties import rotated_box_space


@pytest.fixture(scope="module")
def sp():
    return FunctionSpace(box_mesh((2, 2, 1), lengths=(1.0, 1.0, 1.0)), 5)


class TestInterp3:
    def test_shape(self, sp):
        from repro.sem.basis import lagrange_interpolation_matrix
        from repro.sem.quadrature import gll_points_weights

        xf, _ = gll_points_weights(8)
        j = lagrange_interpolation_matrix(np.asarray(xf), 5)
        u = np.ones(sp.shape)
        v = interp3(u, j)
        assert v.shape == (sp.nelv, 8, 8, 8)
        assert np.allclose(v, 1.0)

    def test_adjoint_identity(self, sp):
        from repro.sem.basis import lagrange_interpolation_matrix
        from repro.sem.quadrature import gll_points_weights

        xf, _ = gll_points_weights(8)
        j = lagrange_interpolation_matrix(np.asarray(xf), 5)
        rng = np.random.default_rng(0)
        u = rng.normal(size=sp.shape)
        w = rng.normal(size=(sp.nelv, 8, 8, 8))
        lhs = np.sum(interp3(u, j) * w)
        rhs = np.sum(u * interp3_transpose(w, j))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestDealiaser:
    def test_default_three_halves_rule(self, sp):
        dl = Dealiaser(sp)
        assert dl.lxd == (3 * sp.lx + 1) // 2

    def test_rejects_coarser_fine_grid(self, sp):
        with pytest.raises(ValueError):
            Dealiaser(sp, lxd=3)

    def test_to_fine_polynomial_exact(self, sp):
        dl = Dealiaser(sp)
        u = sp.x**2 * sp.y
        uf = dl.to_fine(u)
        # Compare against direct evaluation of the polynomial at fine nodes.
        x_f = dl.to_fine(sp.x)
        y_f = dl.to_fine(sp.y)
        assert np.allclose(uf, x_f**2 * y_f, atol=1e-11)

    def test_convect_weak_exact_for_polynomials(self, sp):
        """Weak advection of a quadratic along each axis equals the fine-grid
        projection of its exact derivative, on the axis-aligned (diagonal
        metric) and on a rotated (full metric) box.  The oracle builds the
        fine mass from the GLL weights and the coarse Jacobian."""
        from repro.sem.quadrature import gll_points_weights

        for space in (sp, rotated_box_space(30.0)):
            dl = Dealiaser(space)
            assert dl.metric_d.ndim == (2 if space.coef.axis_aligned else 3)
            _, w = gll_points_weights(dl.lxd)
            w = np.asarray(w)
            mass_d = np.einsum("k,j,i->kji", w, w, w)[None] * dl.to_fine(space.coef.jac)
            x_f, y_f, z_f = dl.to_fine(space.x), dl.to_fine(space.y), dl.to_fine(space.z)
            u = space.x**2 + space.y * space.z
            one, zero = np.ones(space.shape), np.zeros(space.shape)
            for c, exact in (
                ((one, zero, zero), 2 * x_f),
                ((zero, one, zero), z_f),
                ((zero, zero, one), y_f),
            ):
                got = dl.convect_weak(*c, u)
                ref = interp3_transpose(mass_d * exact, dl.interp)
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_convect_weak_matches_collocated_when_resolved(self, sp):
        # For low-degree data both forms agree: weak dealiased convection
        # equals B * (c . grad u) after dividing by the mass.
        dl = Dealiaser(sp)
        cx, cy, cz = sp.y, sp.x, np.zeros(sp.shape)
        u = sp.x * sp.y
        weak = dl.convect_weak(cx, cy, cz, u)
        colloc = convective_term_collocated(cx, cy, cz, u, sp.coef, sp.dx)
        ref = sp.gs.add(sp.coef.mass * colloc) * sp.inv_mass_assembled
        got = sp.gs.add(weak) * sp.inv_mass_assembled
        assert np.allclose(got, ref, atol=1e-9)

    def test_convect_reuses_fine_velocity(self, sp):
        dl = Dealiaser(sp)
        cx, cy, cz = sp.y, sp.x, sp.z
        u = sp.x**2
        cf = (dl.to_fine(cx), dl.to_fine(cy), dl.to_fine(cz))
        a = dl.convect_weak(cx, cy, cz, u)
        b = dl.convect_weak(cx, cy, cz, u, c_fine=cf)
        assert np.allclose(a, b, atol=1e-13)

    def test_energy_conservation_skewness(self, sp):
        # For a divergence-free convecting field tangent to the boundary,
        # int u (c.grad u) = 0 -- the discrete dealiased form should be small.
        dl = Dealiaser(sp)
        # c = (sin(pi x) cos(pi y), -cos(pi x) sin(pi y), 0): div-free and
        # zero normal component on the unit box boundary.
        cx = np.sin(np.pi * sp.x) * np.cos(np.pi * sp.y)
        cy = -np.cos(np.pi * sp.x) * np.sin(np.pi * sp.y)
        cz = np.zeros(sp.shape)
        u = np.cos(np.pi * sp.x) * np.cos(2 * np.pi * sp.y)
        weak = dl.convect_weak(cx, cy, cz, u)
        val = np.sum(u * weak)
        scale = np.sum(np.abs(u * weak))
        assert abs(val) < 2e-2 * scale


class TestBoundaryConditions:
    def test_unknown_label_raises(self, sp):
        with pytest.raises(KeyError, match="unknown boundary label"):
            BoundaryMask(sp, ["nope"])

    def test_mask_zero_on_face(self, sp):
        bm = BoundaryMask(sp, ["bottom"])
        assert np.all(bm.mask[:, 0][np.isclose(sp.z[:, 0], 0.0)] == 0.0)
        assert np.all(bm.mask[:, -1] == 1.0)

    def test_mask_propagates_to_neighbours(self):
        # A node on the edge of a Dirichlet face is shared with elements that
        # have no facet on that boundary; the gs-min must mask it there too.
        sp2 = FunctionSpace(box_mesh((2, 1, 2)), 4)
        bm = BoundaryMask(sp2, ["x-"])
        on_face = np.isclose(sp2.x, 0.0)
        assert np.all(bm.mask[on_face] == 0.0)
        assert np.all(bm.mask[~on_face] == 1.0)

    def test_dirichlet_constant_value(self, sp):
        bc = DirichletBC(sp, ["bottom"], 2.5)
        u = np.zeros(sp.shape)
        bc.set_values(u)
        assert np.all(u[bc.mask == 0.0] == 2.5)
        assert np.all(u[bc.mask == 1.0] == 0.0)

    def test_dirichlet_callable_value(self, sp):
        bc = DirichletBC(sp, ["top"], lambda x, y, z: x + y)
        u = np.zeros(sp.shape)
        bc.set_values(u)
        sel = bc.mask == 0.0
        assert np.allclose(u[sel], (sp.x + sp.y)[sel])

    def test_zero_method(self, sp):
        bc = DirichletBC(sp, ["bottom"], 1.0)
        u = np.ones(sp.shape)
        bc.zero(u)
        assert np.all(u[bc.mask == 0.0] == 0.0)

    def test_combine_masks(self, sp):
        b1 = DirichletBC(sp, ["bottom"], 0.0)
        b2 = DirichletBC(sp, ["top"], 0.0)
        m = combine_masks([b1, b2], sp)
        assert np.all(m[np.isclose(sp.z, 0.0)] == 0.0)
        assert np.all(m[np.isclose(sp.z, 1.0)] == 0.0)

    def test_cylinder_side_mask(self):
        spc = FunctionSpace(cylinder_mesh(n_square=2, n_ring=1, n_z=2), 4)
        bm = BoundaryMask(spc, ["side"])
        r = np.sqrt(spc.x**2 + spc.y**2)
        on_wall = np.isclose(r, 0.25, atol=1e-10)
        assert np.all(bm.mask[on_wall] == 0.0)
        assert np.all(bm.mask[~on_wall] == 1.0)
