"""Property-based operator identities on random deformed elements.

The batched-matmul kernels in ``repro.sem.operators`` contract specific
axes of the ``(nelv, lz, ly, lx)`` layout; an axis mix-up produces fields
that *look* plausible (right shape, right magnitude) but silently break
the discrete identities the solvers rely on.  Hypothesis drives random
smooth mesh deformations and random fields through three exact (up to
roundoff) identities:

* ``local_grad`` / ``local_grad_transpose`` adjointness under the plain
  discrete inner product (the matrix-transpose property of the tensor
  derivative);
* ``weak_gradient`` / ``weak_gradient_transpose`` adjointness -- ``cdtp``
  is by construction the discrete transpose of the weak gradient, the
  property that makes the pressure operator symmetric;
* ``ax_poisson`` symmetry, ``<u, A v> = <v, A u>``, on arbitrarily
  deformed (positive-Jacobian) elements.

The mesh deformation is a smooth global map applied to the corner
vertices, so elements stay conforming and the Jacobian stays positive for
the amplitudes drawn.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sem.mesh import box_mesh, cylinder_mesh
from repro.sem.operators import (
    ax_poisson,
    divergence,
    local_grad,
    local_grad_transpose,
    physical_grad,
    weak_divergence,
    weak_gradient,
    weak_gradient_transpose,
)
from repro.sem.space import FunctionSpace

# Deformation amplitude bound: displacement gradient ~ amplitude * pi stays
# well below 1, keeping every element's Jacobian positive.
MAX_AMPLITUDE = 0.05


def deformed_space(seed: int, amplitude: float, lx: int = 4) -> FunctionSpace:
    """A 2x2x2-element unit box with a random smooth deformation."""
    mesh = box_mesh((2, 2, 2))
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(3, 3))
    cc = mesh.corner_coords
    x, y, z = cc[..., 0].copy(), cc[..., 1].copy(), cc[..., 2].copy()
    for d in range(3):
        cc[..., d] += (
            amplitude
            * np.sin(np.pi * x + phases[d, 0])
            * np.sin(np.pi * y + phases[d, 1])
            * np.sin(np.pi * z + phases[d, 2])
        )
    space = FunctionSpace(mesh, lx)
    assert np.all(space.coef.jac > 0.0), "deformation inverted an element"
    return space


def random_field(space: FunctionSpace, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=space.shape)


def assert_adjoint(lhs: float, rhs: float) -> None:
    scale = abs(lhs) + abs(rhs) + 1.0
    assert abs(lhs - rhs) <= 1e-10 * scale, f"{lhs} != {rhs}"


deformations = {
    "seed": st.integers(0, 2**32 - 1),
    "amplitude": st.floats(0.0, MAX_AMPLITUDE, allow_nan=False),
}


@settings(max_examples=15, deadline=None)
@given(**deformations)
def test_local_grad_transpose_is_the_adjoint(seed, amplitude):
    """<D u, w> = <u, D^T w> under the plain elementwise inner product."""
    space = deformed_space(seed, amplitude)
    rng = np.random.default_rng(seed ^ 0x5EED)
    u = random_field(space, rng)
    wr, ws, wt = (random_field(space, rng) for _ in range(3))

    ur, us, ut = local_grad(u, space.dx)
    lhs = float(np.sum(ur * wr) + np.sum(us * ws) + np.sum(ut * wt))
    rhs = float(np.sum(u * local_grad_transpose(wr, ws, wt, space.dx)))
    assert_adjoint(lhs, rhs)


@settings(max_examples=15, deadline=None)
@given(**deformations)
def test_weak_gradient_transpose_consistency(seed, amplitude):
    """``cdtp`` is the discrete transpose of the weak gradient.

    <v, (phi, grad p)> = <p, (grad phi, v)> for all fields -- the identity
    that couples the pressure gradient and the divergence constraint in
    the splitting scheme.
    """
    space = deformed_space(seed, amplitude)
    rng = np.random.default_rng(seed ^ 0xBEEF)
    p = random_field(space, rng)
    vx, vy, vz = (random_field(space, rng) for _ in range(3))

    gx, gy, gz = weak_gradient(p, space.coef, space.dx)
    lhs = float(np.sum(vx * gx) + np.sum(vy * gy) + np.sum(vz * gz))
    rhs = float(np.sum(p * weak_gradient_transpose(vx, vy, vz, space.coef, space.dx)))
    assert_adjoint(lhs, rhs)


@settings(max_examples=10, deadline=None)
@given(**deformations)
def test_weak_divergence_is_mass_weighted_divergence(seed, amplitude):
    """The collocated weak divergence is exactly ``B * div u``."""
    space = deformed_space(seed, amplitude)
    rng = np.random.default_rng(seed ^ 0xD1F)
    vx, vy, vz = (random_field(space, rng) for _ in range(3))

    weak = weak_divergence(vx, vy, vz, space.coef, space.dx)
    strong = divergence(vx, vy, vz, space.coef, space.dx)
    np.testing.assert_allclose(weak, space.coef.mass * strong, rtol=0, atol=1e-12)


@settings(max_examples=10, deadline=None)
@given(**deformations)
def test_divergence_is_the_trace_of_the_physical_gradient(seed, amplitude):
    """``divergence`` forms three derivatives; the nine-derivative
    composition of ``physical_grad`` is its reference."""
    space = deformed_space(seed, amplitude)
    rng = np.random.default_rng(seed ^ 0x7ACE)
    vx, vy, vz = (random_field(space, rng) for _ in range(3))

    trace = (
        physical_grad(vx, space.coef, space.dx)[0]
        + physical_grad(vy, space.coef, space.dx)[1]
        + physical_grad(vz, space.coef, space.dx)[2]
    )
    div = divergence(vx, vy, vz, space.coef, space.dx)
    np.testing.assert_allclose(div, trace, rtol=0, atol=1e-13 * np.abs(trace).max())


@settings(max_examples=15, deadline=None)
@given(**deformations)
def test_ax_poisson_symmetry(seed, amplitude):
    """<u, A v> = <v, A u>: the stiffness matrix is symmetric on any
    deformed element (G is symmetric, A = D^T G D)."""
    space = deformed_space(seed, amplitude)
    rng = np.random.default_rng(seed ^ 0xA11CE)
    u = random_field(space, rng)
    v = random_field(space, rng)

    au = ax_poisson(u, space.coef, space.dx)
    av = ax_poisson(v, space.coef, space.dx)
    assert_adjoint(float(np.sum(u * av)), float(np.sum(v * au)))


def test_deformed_space_actually_deforms():
    """Guard the test fixture itself: a nonzero amplitude must move nodes."""
    flat = deformed_space(0, 0.0)
    bent = deformed_space(0, MAX_AMPLITUDE)
    assert not np.allclose(flat.x, bent.x)


def test_ax_poisson_positive_semidefinite_on_deformed_mesh():
    """<u, A u> >= 0 with equality only for constants (deterministic spot
    check complementing the randomized symmetry property)."""
    space = deformed_space(7, 0.04)
    rng = np.random.default_rng(7)
    u = random_field(space, rng)
    assert float(np.sum(u * ax_poisson(u, space.coef, space.dx))) > 0.0
    const = np.ones(space.shape)
    assert float(np.sum(const * ax_poisson(const, space.coef, space.dx))) == pytest.approx(
        0.0, abs=1e-9
    )


# -- contraction oracle and probe identities -----------------------------------
#
# The kernels contract with batched matmul and one fused geometric-factor
# einsum; the per-axis einsum form below is the independent reference they
# are pinned to on random deformed meshes.  Probe evaluation rides the same
# batched contraction structure, so its polynomial-reproduction identities
# live here too.

from repro.sem.coef import tensor_derivatives, tensor_derivatives_stacked  # noqa: E402
from repro.sem.operators import ax_helmholtz  # noqa: E402
from repro.sem.basis import lagrange_interpolation_matrix  # noqa: E402
from repro.sem.dealias import Dealiaser  # noqa: E402
from repro.sem.probes import FieldProbes  # noqa: E402
from repro.sem.quadrature import gll_points_weights  # noqa: E402


def per_axis_derivatives(u, dx):
    """``(u_r, u_s, u_t)`` contracted one axis at a time."""
    ur = np.einsum("il,ekjl->ekji", dx, u)
    us = np.einsum("jl,ekli->ekji", dx, u)
    ut = np.einsum("kl,elji->ekji", dx, u)
    return ur, us, ut


def per_axis_helmholtz(u, coef, dx, h1, h2):
    """``h1 A u + h2 B u`` with all nine G terms, one axis at a time (the
    oracle: it never looks at ``axis_aligned`` or ``g_stack``)."""
    ur, us, ut = per_axis_derivatives(u, dx)
    wr = h1 * (coef.g11 * ur + coef.g12 * us + coef.g13 * ut)
    ws = h1 * (coef.g12 * ur + coef.g22 * us + coef.g23 * ut)
    wt = h1 * (coef.g13 * ur + coef.g23 * us + coef.g33 * ut)
    out = np.einsum("ekjl,li->ekji", wr, dx)
    out += np.einsum("lj,ekli->ekji", dx, ws)
    out += np.einsum("lk,elji->ekji", dx, wt)
    return out + h2 * coef.mass * u


def nine_metric_convection(cx, cy, cz, u, space, lxd):
    """Weak dealiased ``(v, (c . grad) u)`` with all nine inverse-metric
    terms interpolated separately and the fine mass applied last (the
    oracle for ``Dealiaser.convect_weak``)."""
    pts, w = gll_points_weights(lxd)
    j = lagrange_interpolation_matrix(np.asarray(pts), space.lx)

    def fine(f):
        return np.einsum("zk,yj,xi,ekji->ezyx", j, j, j, f)

    c = space.coef
    urd, usd, utd = (fine(d) for d in per_axis_derivatives(u, space.dx))
    dudx = urd * fine(c.drdx) + usd * fine(c.dsdx) + utd * fine(c.dtdx)
    dudy = urd * fine(c.drdy) + usd * fine(c.dsdy) + utd * fine(c.dtdy)
    dudz = urd * fine(c.drdz) + usd * fine(c.dsdz) + utd * fine(c.dtdz)
    adv = fine(cx) * dudx + fine(cy) * dudy + fine(cz) * dudz
    w = np.asarray(w)
    mass_d = np.einsum("k,j,i->kji", w, w, w)[None] * fine(c.jac)
    return np.einsum("zk,yj,xi,ezyx->ekji", j, j, j, mass_d * adv)


@settings(max_examples=10, deadline=None)
@given(**deformations)
def test_contraction_variants_agree_on_ax_poisson(seed, amplitude):
    """Batched (fused einsum) and per-axis forms produce the same A u."""
    space = deformed_space(seed, amplitude)
    rng = np.random.default_rng(seed ^ 0xC0DE)
    u = random_field(space, rng)
    batched = ax_poisson(u, space.coef, space.dx)
    axis = per_axis_helmholtz(u, space.coef, space.dx, 1.0, 0.0)
    np.testing.assert_allclose(batched, axis, rtol=0, atol=1e-12 * np.abs(batched).max())


@settings(max_examples=10, deadline=None)
@given(**deformations)
def test_contraction_variants_agree_on_ax_helmholtz(seed, amplitude):
    space = deformed_space(seed, amplitude)
    rng = np.random.default_rng(seed ^ 0x4E1)
    u = random_field(space, rng)
    batched = ax_helmholtz(u, space.coef, space.dx, 0.7, 3.0)
    axis = per_axis_helmholtz(u, space.coef, space.dx, 0.7, 3.0)
    np.testing.assert_allclose(batched, axis, rtol=0, atol=1e-12 * np.abs(batched).max())


def test_tensor_derivatives_stacked_matches_tuple_form():
    """The out=-staged stacked derivatives equal the tuple-returning form."""
    space = deformed_space(3, 0.03)
    rng = np.random.default_rng(3)
    u = random_field(space, rng)
    ur, us, ut = tensor_derivatives(u, space.dx)
    out = np.empty((3,) + u.shape)
    tensor_derivatives_stacked(u, space.dx, out)
    np.testing.assert_array_equal(out[0], ur)
    np.testing.assert_array_equal(out[1], us)
    np.testing.assert_array_equal(out[2], ut)


def test_g_stack_mirrors_components():
    """The fused G matrix is exactly the six symmetric components; on an
    axis-aligned box it is the diagonal alone."""
    space = deformed_space(11, 0.04)
    assert not space.coef.axis_aligned
    g = space.coef.g_stack().reshape(3, 3, *space.shape)
    np.testing.assert_array_equal(g[0, 0], space.coef.g11)
    np.testing.assert_array_equal(g[1, 1], space.coef.g22)
    np.testing.assert_array_equal(g[2, 2], space.coef.g33)
    np.testing.assert_array_equal(g[0, 1], space.coef.g12)
    np.testing.assert_array_equal(g[1, 0], space.coef.g12)
    np.testing.assert_array_equal(g[0, 2], space.coef.g13)
    np.testing.assert_array_equal(g[1, 2], space.coef.g23)
    # And it is cached: same object on repeated access.
    assert space.coef.g_stack() is space.coef.g_stack()

    box = FunctionSpace(box_mesh((2, 2, 2), lengths=(1.0, 2.0, 0.5)), 4)
    g = box.coef.g_stack()
    assert g.shape == (3, box.coef.g11.size)
    np.testing.assert_array_equal(g[0], box.coef.g11.reshape(-1))
    np.testing.assert_array_equal(g[1], box.coef.g22.reshape(-1))
    np.testing.assert_array_equal(g[2], box.coef.g33.reshape(-1))


# -- axis-aligned meshes: the diagonal metric --------------------------------


def stretched_box_space(lengths, grading, lx=4):
    """A box stretched differently along each axis (graded layers)."""
    return FunctionSpace(box_mesh((2, 2, 2), lengths=lengths, grading=grading), lx)


def rotated_box_space(degrees):
    """A unit box rotated about z: orthogonal, but not axis-aligned."""
    mesh = box_mesh((2, 2, 2))
    cc = mesh.corner_coords
    x, y = cc[..., 0].copy(), cc[..., 1].copy()
    a = np.radians(degrees)
    cc[..., 0] = np.cos(a) * x - np.sin(a) * y
    cc[..., 1] = np.sin(a) * x + np.cos(a) * y
    return FunctionSpace(mesh, 4)


def test_axis_aligned_on_boxes():
    assert FunctionSpace(box_mesh((2, 2, 2)), 4).coef.axis_aligned
    assert stretched_box_space((2.0, 0.5, 1.3), (0.0, 1.5, 0.8)).coef.axis_aligned


def test_not_axis_aligned_off_boxes():
    assert not FunctionSpace(cylinder_mesh(n_square=2, n_ring=2, n_z=2), 4).coef.axis_aligned
    assert not deformed_space(3, 0.03).coef.axis_aligned
    rotated = rotated_box_space(30.0)
    assert not rotated.coef.axis_aligned
    # Orthogonal all the same: G's off-diagonals vanish to round-off, so
    # the flag follows the axes, not the orthogonality.
    assert np.abs(rotated.coef.g12).max() < 1e-12 * np.abs(rotated.coef.g11).max()


stretches = {
    "lengths": st.tuples(*(st.floats(0.2, 3.0, allow_nan=False),) * 3),
    "grading": st.tuples(*(st.floats(0.0, 1.5, allow_nan=False),) * 3),
    "seed": st.integers(0, 2**32 - 1),
}


@settings(max_examples=10, deadline=None, derandomize=True)
@given(**stretches)
def test_diagonal_metric_matches_nine_term_oracle(lengths, grading, seed):
    """On stretched boxes the diagonal-metric kernels equal the nine-term
    per-axis oracles: ``ax_poisson``, ``ax_helmholtz`` and ``convect_weak``."""
    space = stretched_box_space(lengths, grading)
    assert space.coef.axis_aligned
    rng = np.random.default_rng(seed)
    u = random_field(space, rng)

    def check(got, ref):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    check(ax_poisson(u, space.coef, space.dx), per_axis_helmholtz(u, space.coef, space.dx, 1.0, 0.0))
    check(
        ax_helmholtz(u, space.coef, space.dx, 0.7, 3.0),
        per_axis_helmholtz(u, space.coef, space.dx, 0.7, 3.0),
    )
    dl = Dealiaser(space)
    cx, cy, cz = (random_field(space, rng) for _ in range(3))
    check(dl.convect_weak(cx, cy, cz, u), nine_metric_convection(cx, cy, cz, u, space, dl.lxd))


@settings(max_examples=6, deadline=None, derandomize=True)
@given(**deformations)
def test_full_metric_convection_matches_nine_term_oracle(seed, amplitude):
    """The stacked ``einsum`` path of ``convect_weak`` on deformed meshes."""
    space = deformed_space(seed, amplitude)
    rng = np.random.default_rng(seed ^ 0xC0417)
    u, cx, cy, cz = (random_field(space, rng) for _ in range(4))
    dl = Dealiaser(space)
    ref = nine_metric_convection(cx, cy, cz, u, space, dl.lxd)
    got = dl.convect_weak(cx, cy, cz, u)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


@settings(max_examples=8, deadline=None)
@given(**deformations)
def test_probe_reproduces_polynomials_on_deformed_mesh(seed, amplitude):
    """Probing a polynomial of degree < lx is exact anywhere in the mesh.

    The batched-matmul evaluation path must reproduce any field in the
    polynomial space exactly (up to roundoff); a trilinear-with-cross-terms
    polynomial exercises every tensor axis.
    """
    space = deformed_space(seed, amplitude)
    rng = np.random.default_rng(seed ^ 0x9807)

    def poly(x, y, z):
        return 1.5 - 0.3 * x + 0.8 * y * z + 0.25 * x * y * z + 0.5 * z**2

    field = poly(space.x, space.y, space.z)
    pts = rng.uniform(0.12, 0.88, size=(7, 3))
    probes = FieldProbes(space, pts)
    vals = probes.evaluate(field)
    expect = poly(pts[:, 0], pts[:, 1], pts[:, 2])
    np.testing.assert_allclose(vals, expect, rtol=0, atol=1e-9)


def test_probe_geometry_inversion_roundtrip():
    """x(rst(p)) == p: the batched Newton geometry evaluation is consistent."""
    space = deformed_space(5, 0.05)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.1, 0.9, size=(5, 3))
    probes = FieldProbes(space, pts)
    assert probes.n_found == 5
    for ip in range(5):
        e = int(probes.element[ip])
        pos, jac = probes._geom_at(e, probes.rst[ip])
        np.testing.assert_allclose(pos, pts[ip], atol=1e-8)
        # The element map must stay orientation-preserving.
        assert np.linalg.det(jac) > 0.0


def test_probe_coordinate_fields_roundtrip():
    """Probing the coordinate fields returns the probe coordinates."""
    space = deformed_space(9, 0.02)
    pts = np.array([[0.2, 0.3, 0.7], [0.9, 0.1, 0.4]])
    probes = FieldProbes(space, pts)
    np.testing.assert_allclose(probes.evaluate(space.x), pts[:, 0], atol=1e-9)
    np.testing.assert_allclose(probes.evaluate(space.y), pts[:, 1], atol=1e-9)
    np.testing.assert_allclose(probes.evaluate(space.z), pts[:, 2], atol=1e-9)
