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
    """``divergence`` is the trace of the nine-derivative physical
    gradient on random deformed meshes."""
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
# The kernels contract with batched matmul and the sparse metric's
# ``apply``; the per-axis einsum forms with all nine metric terms below are
# the independent references they are pinned to on every mesh kind.  Probe
# evaluation rides the same batched contraction structure, so its
# polynomial-reproduction identities live here too.

from repro.sem.coef import (  # noqa: E402
    SparseMetric,
    tensor_derivatives,
    tensor_derivatives_stacked,
)
from repro.sem.operators import ax_helmholtz  # noqa: E402
from repro.sem.basis import lagrange_interpolation_matrix  # noqa: E402
from repro.sem.dealias import Dealiaser, interp3  # noqa: E402
from repro.sem.operators import curl  # noqa: E402
from repro.timeint.cfl import courant_number  # noqa: E402
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
    oracle: it never looks at ``axis_aligned`` or the sparse metric)."""
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
    """Sparse-metric and per-axis nine-term forms produce the same A u."""
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


def test_sparse_g_mirrors_components():
    """The sparse G holds the six symmetric components themselves: its
    stacked diagonal is what ``g11``/``g22``/``g33`` view, and a kept pair is
    one shared array.  On an axis-aligned box it is the diagonal alone."""
    bent = deformed_space(11, 0.04)
    box = FunctionSpace(box_mesh((2, 2, 2), lengths=(1.0, 2.0, 0.5)), 4)
    for space in (bent, box):
        c = space.coef
        assert c.g.diag.shape == (3,) + space.shape
        for k, comp in enumerate((c.g11, c.g22, c.g33)):
            np.testing.assert_array_equal(c.g.diag[k], comp)
            assert np.shares_memory(c.g.diag, comp)
        components = {(0, 1): c.g12, (0, 2): c.g13, (1, 2): c.g23}
        for i, a, m in c.g.off:
            assert m is components[min(i, a), max(i, a)]
    assert len(bent.coef.g.off) == 6
    assert box.coef.g.off == ()


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
    """``convect_weak`` with every fine-metric entry kept (deformed meshes)."""
    space = deformed_space(seed, amplitude)
    rng = np.random.default_rng(seed ^ 0xC0417)
    u, cx, cy, cz = (random_field(space, rng) for _ in range(4))
    dl = Dealiaser(space)
    ref = nine_metric_convection(cx, cy, cz, u, space, dl.lxd)
    got = dl.convect_weak(cx, cy, cz, u)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


# -- the sparse metric: kept entries and nine-term oracles ---------------------

ALL_OFF = {(i, a) for i in range(3) for a in range(3) if i != a}
XY_RS = {(0, 1), (1, 0)}

SPARSE_MESHES = {
    "box": lambda: FunctionSpace(box_mesh((2, 2, 2)), 4),
    "cylinder": lambda: FunctionSpace(cylinder_mesh(n_square=2, n_ring=2, n_z=2), 4),
    "deformed": lambda: deformed_space(3, 0.03),
    "rotated": lambda: rotated_box_space(30.0),
    "stretched": lambda: stretched_box_space((2.0, 0.5, 1.3), (0.0, 1.5, 0.8)),
}

# (G, inverse map) off-diagonal entries each mesh keeps; the inverse map's
# row is the physical and its column the reference direction.
KEPT = {
    "box": (set(), set()),
    "cylinder": (XY_RS, XY_RS),
    "deformed": (ALL_OFF, ALL_OFF),
    "rotated": (set(), XY_RS),
    "stretched": (set(), set()),
}


@pytest.mark.parametrize("mesh", sorted(KEPT))
def test_sparse_metric_keeps_exactly_the_structural_nonzeros(mesh):
    coef = SPARSE_MESHES[mesh]().coef
    kept_g, kept_inverse = KEPT[mesh]
    assert {(i, a) for i, a, _ in coef.g.off} == kept_g
    assert {(i, a) for i, a, _ in coef.inverse_map.off} == kept_inverse
    assert coef.axis_aligned == (not kept_inverse)


def test_keep_drops_entries_at_round_off_of_the_largest():
    """The rule itself: an off-diagonal entry survives only above 1e-12 of
    the tensor's largest magnitude, wherever that largest entry sits."""
    def const(v):
        return np.full((2, 3, 3, 3), v)

    eye = [[const(2.0 if i == a else 0.0) for a in range(3)] for i in range(3)]
    eye[0][1], eye[2][0], eye[1][2] = const(-1e-11), const(4e-12), const(1e-13)
    eye[1][0] = const(-5.0)  # the largest magnitude is off the diagonal
    sparse = SparseMetric.keep(eye)
    assert [(i, a) for i, a, _ in sparse.off] == [(0, 1), (1, 0)]
    np.testing.assert_array_equal(sparse.diag, np.full((3, 2, 3, 3, 3), 2.0))
    assert [(i, a) for i, a, _ in sparse.T.off] == [(1, 0), (0, 1)]


def nine_term_grad(u, coef, dx):
    """``(du/dx, du/dy, du/dz)`` with all nine inverse-map terms."""
    ur, us, ut = per_axis_derivatives(u, dx)
    c = coef
    return (
        ur * c.drdx + us * c.dsdx + ut * c.dtdx,
        ur * c.drdy + us * c.dsdy + ut * c.dtdy,
        ur * c.drdz + us * c.dsdz + ut * c.dtdz,
    )


def nine_term_divergence(ux, uy, uz, coef, dx):
    return (
        nine_term_grad(ux, coef, dx)[0]
        + nine_term_grad(uy, coef, dx)[1]
        + nine_term_grad(uz, coef, dx)[2]
    )


def nine_term_curl(ux, uy, uz, coef, dx):
    gx, gy, gz = (nine_term_grad(f, coef, dx) for f in (ux, uy, uz))
    return gz[1] - gy[2], gx[2] - gz[0], gy[0] - gx[1]


def nine_term_cdtp(vx, vy, vz, coef, dx):
    """``(grad phi, v)`` with all nine inverse-map terms, one axis at a time."""
    c = coef
    wr = c.mass * (c.drdx * vx + c.drdy * vy + c.drdz * vz)
    ws = c.mass * (c.dsdx * vx + c.dsdy * vy + c.dsdz * vz)
    wt = c.mass * (c.dtdx * vx + c.dtdy * vy + c.dtdz * vz)
    out = np.einsum("ekjl,li->ekji", wr, dx)
    out += np.einsum("lj,ekli->ekji", dx, ws)
    out += np.einsum("lk,elji->ekji", dx, wt)
    return out


def nine_term_courant(space, ux, uy, uz, dt):
    """The reference-space Courant number with all nine inverse-map terms."""
    c = space.coef
    ur = np.abs(ux * c.drdx + uy * c.drdy + uz * c.drdz)
    us = np.abs(ux * c.dsdx + uy * c.dsdy + uz * c.dsdz)
    ut = np.abs(ux * c.dtdx + uy * c.dtdy + uz * c.dtdz)
    x = np.asarray(gll_points_weights(space.lx)[0])
    gaps = np.diff(x)
    d = np.minimum(np.r_[gaps, np.inf], np.r_[np.inf, gaps])  # nearest neighbour
    return dt * np.max(ur / d + us / d[:, None] + ut / d[:, None, None])


@pytest.mark.parametrize("mesh", ["cylinder", "deformed", "rotated", "stretched"])
def test_sparse_contractions_match_nine_term_oracles(mesh):
    """Every contraction through the sparse metric equals its nine-term
    per-axis oracle to 1e-12 of the result."""
    space = SPARSE_MESHES[mesh]()
    coef, dx = space.coef, space.dx
    rng = np.random.default_rng(sorted(KEPT).index(mesh))
    u, vx, vy, vz = (random_field(space, rng) for _ in range(4))

    def check(got, ref):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    check(ax_poisson(u, coef, dx), per_axis_helmholtz(u, coef, dx, 1.0, 0.0))
    check(ax_helmholtz(u, coef, dx, 0.7, 3.0), per_axis_helmholtz(u, coef, dx, 0.7, 3.0))
    for got, ref in zip(physical_grad(u, coef, dx), nine_term_grad(u, coef, dx)):
        check(got, ref)
    check(divergence(vx, vy, vz, coef, dx), nine_term_divergence(vx, vy, vz, coef, dx))
    check(
        weak_gradient_transpose(vx, vy, vz, coef, dx), nine_term_cdtp(vx, vy, vz, coef, dx)
    )
    for got, ref in zip(curl(vx, vy, vz, coef, dx), nine_term_curl(vx, vy, vz, coef, dx)):
        check(got, ref)
    dl = Dealiaser(space)
    check(dl.convect_weak(vx, vy, vz, u), nine_metric_convection(vx, vy, vz, u, space, dl.lxd))
    assert courant_number(space, vx, vy, vz, 0.1) == pytest.approx(
        nine_term_courant(space, vx, vy, vz, 0.1), rel=1e-12, abs=0.0
    )


def test_diagonal_path_is_the_stacked_product():
    """On a box every contraction is one stacked multiply by the diagonal,
    bit for bit the explicit product (the dealiased one with the fine mass
    folded into the interpolated diagonal)."""
    space = stretched_box_space((2.0, 0.5, 1.3), (0.0, 1.5, 0.8))
    c, dx = space.coef, space.dx
    rng = np.random.default_rng(17)
    u, cx, cy, cz = (random_field(space, rng) for _ in range(4))
    du = np.empty((3,) + u.shape)
    tensor_derivatives_stacked(u, dx, du)

    flux = du * np.stack([c.g11, c.g22, c.g33])
    np.testing.assert_array_equal(ax_poisson(u, c, dx), local_grad_transpose(*flux, dx))
    grad = du * np.stack([c.drdx, c.dsdy, c.dtdz])
    for got, ref in zip(physical_grad(u, c, dx), grad):
        np.testing.assert_array_equal(got, ref)

    dl = Dealiaser(space)
    j = dl.interp
    pts_w = np.asarray(gll_points_weights(dl.lxd)[1])
    w3 = np.einsum("k,j,i->kji", pts_w, pts_w, pts_w)
    metric_d = interp3(np.stack([c.drdx, c.dsdy, c.dtdz]), j)
    metric_d *= w3 * interp3(c.jac, j)
    flux_d = interp3(du, j) * metric_d
    c_fine = tuple(dl.to_fine(f) for f in (cx, cy, cz))
    adv = flux_d[0] * c_fine[0] + flux_d[1] * c_fine[1] + flux_d[2] * c_fine[2]
    np.testing.assert_array_equal(
        dl.convect_weak(cx, cy, cz, u, c_fine), interp3(adv, dl.interp_t)
    )


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
