"""Hexahedral meshes for the spectral-element solver.

Two generators are provided, mirroring the production meshes of the paper:

* :func:`box_mesh` -- a tensor-product box, optionally periodic in any
  direction and optionally graded toward walls.  Used for canonical RBC
  between parallel plates and for all the convergence/verification tests.
* :func:`cylinder_mesh` -- a butterfly (O-grid) mesh of a cylindrical cell of
  height ``H = 1`` and given diameter, the geometry of the paper's RBC cell.
  The cross-section consists of a central square block surrounded by four
  blended blocks whose outermost edge is the exact circle; intermediate
  layers are linear blends between the square edge and the circle, the
  classic construction used for Neko/Nek5000 pipe and cylinder meshes.

A mesh is a *geometry provider*: it stores the eight corner vertices of each
element (used by the coarse space of the multigrid preconditioner) plus an
optional per-element curved map, and produces the (nelv, lx, lx, lx) arrays
of GLL node coordinates from which all metric factors are derived.  Element
connectivity is never stored explicitly -- the gather--scatter layer derives
it from coordinates, exactly as Neko derives it from the global numbering.

Index convention for all nodal arrays: ``[e, k, j, i]`` where ``i`` runs
along the local r direction (fastest), ``j`` along s, ``k`` along t.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.sem.quadrature import gll_points_weights

__all__ = ["HexMesh", "box_mesh", "cylinder_mesh", "graded_layers", "FACE_NORMAL_AXIS"]

# face ids 0..5 = r-, r+, s-, s+, t-, t+
FACE_NORMAL_AXIS = {0: "r", 1: "r", 2: "s", 3: "s", 4: "t", 5: "t"}

ElementMap = Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


@dataclass
class HexMesh:
    """An unstructured conforming hexahedral mesh.

    Attributes
    ----------
    corner_coords:
        ``(nelv, 2, 2, 2, 3)`` array of element corner vertices indexed
        ``[e, t, s, r, xyz]``.
    boundary_facets:
        Mapping from a boundary label (e.g. ``"bottom"``) to an integer
        array of shape ``(nfacets, 2)`` with rows ``(element, face_id)``.
    elem_maps:
        Optional per-element curved geometry maps; ``None`` entries fall
        back to trilinear interpolation of the corner vertices.
    periodic_image:
        Optional callable mapping node coordinates to canonical coordinates
        for the purpose of global numbering (implements periodicity).
    """

    corner_coords: np.ndarray
    boundary_facets: dict[str, np.ndarray] = field(default_factory=dict)
    elem_maps: list[ElementMap | None] | None = None
    periodic_image: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "hexmesh"

    def __post_init__(self) -> None:
        self.corner_coords = np.asarray(self.corner_coords, dtype=np.float64)
        if self.corner_coords.ndim != 5 or self.corner_coords.shape[1:] != (2, 2, 2, 3):
            raise ValueError(
                "corner_coords must have shape (nelv, 2, 2, 2, 3), got "
                f"{self.corner_coords.shape}"
            )
        self.boundary_facets = {
            k: np.asarray(v, dtype=np.int64).reshape(-1, 2)
            for k, v in self.boundary_facets.items()
        }

    @property
    def nelv(self) -> int:
        """Number of (local) elements."""
        return self.corner_coords.shape[0]

    def gll_coordinates(self, lx: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinates of the GLL nodes of every element.

        Returns three ``(nelv, lx, lx, lx)`` arrays ``(x, y, z)``.  Straight
        elements use the trilinear map of their corners; curved elements use
        their attached geometry map.
        """
        pts, _ = gll_points_weights(lx)
        r = pts[None, None, :]
        s = pts[None, :, None]
        t = pts[:, None, None]
        rr = np.broadcast_to(r, (lx, lx, lx))
        ss = np.broadcast_to(s, (lx, lx, lx))
        tt = np.broadcast_to(t, (lx, lx, lx))

        # Trilinear shape functions evaluated once; shape (2,2,2,lx,lx,lx).
        hr = np.stack([(1.0 - rr) / 2.0, (1.0 + rr) / 2.0])
        hs = np.stack([(1.0 - ss) / 2.0, (1.0 + ss) / 2.0])
        ht = np.stack([(1.0 - tt) / 2.0, (1.0 + tt) / 2.0])
        shape = np.einsum("aklm,bklm,cklm->cbaklm", hr, hs, ht)

        # corner_coords[e, t, s, r, d] contracted against shape[t, s, r, ...].
        coords = np.einsum("ecbad,cbaklm->edklm", self.corner_coords, shape)
        x, y, z = coords[:, 0], coords[:, 1], coords[:, 2]

        if self.elem_maps is not None:
            for e, emap in enumerate(self.elem_maps):
                if emap is None:
                    continue
                xe, ye, ze = emap(rr, ss, tt)
                x[e], y[e], z[e] = xe, ye, ze
        return x, y, z

    def facet_node_index(self, face_id: int, lx: int) -> tuple[slice | int, ...]:
        """Index tuple selecting the nodes of local face ``face_id``.

        The tuple applies to the trailing ``(k, j, i)`` axes of a field.
        """
        sl: list[slice | int] = [slice(None), slice(None), slice(None)]
        axis = {0: 2, 1: 2, 2: 1, 3: 1, 4: 0, 5: 0}[face_id]
        sl[axis] = 0 if face_id % 2 == 0 else lx - 1
        return tuple(sl)

    def boundary_labels(self) -> list[str]:
        """All boundary labels present on this mesh."""
        return sorted(self.boundary_facets.keys())

    def characteristic_size(self) -> float:
        """Mean element diagonal length -- a crude resolution indicator."""
        lo = self.corner_coords[:, 0, 0, 0]
        hi = self.corner_coords[:, 1, 1, 1]
        return float(np.mean(np.linalg.norm(hi - lo, axis=1)))


def graded_layers(n: int, lo: float, hi: float, beta: float = 0.0) -> np.ndarray:
    """``n + 1`` layer boundaries on ``[lo, hi]``.

    ``beta == 0`` gives a uniform distribution; ``beta > 0`` clusters points
    toward *both* ends with a tanh stretching of strength ``beta`` (values
    around 1.5-2.5 are typical for resolving RBC boundary layers).
    """
    if n < 1:
        raise ValueError("need at least one layer")
    xi = np.linspace(-1.0, 1.0, n + 1)
    if beta > 0.0:
        xi = np.tanh(beta * xi) / np.tanh(beta)
    return lo + (hi - lo) * (xi + 1.0) / 2.0


def _facets_to_array(facets: Sequence[tuple[int, int]]) -> np.ndarray:
    if len(facets) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(facets, dtype=np.int64)


def box_mesh(
    n: tuple[int, int, int],
    lengths: tuple[float, float, float] = (1.0, 1.0, 1.0),
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
    periodic: tuple[bool, bool, bool] = (False, False, False),
    grading: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> HexMesh:
    """Tensor-product box mesh with ``n = (nx, ny, nz)`` elements.

    Boundary labels are ``x-, x+, y-, y+`` for the lateral walls and
    ``bottom`` / ``top`` for the ``z`` extremes (the RBC plates).  Periodic
    directions get a coordinate-wrapping ``periodic_image`` so the
    gather--scatter layer identifies opposite faces, and their boundary
    labels are omitted.
    """
    nx, ny, nz = n
    if min(nx, ny, nz) < 1:
        raise ValueError(f"box_mesh needs at least one element per direction, got {n}")
    lx_, ly_, lz_ = lengths
    ox, oy, oz = origin
    xs = graded_layers(nx, ox, ox + lx_, grading[0])
    ys = graded_layers(ny, oy, oy + ly_, grading[1])
    zs = graded_layers(nz, oz, oz + lz_, grading[2])

    nelv = nx * ny * nz
    corners = np.empty((nelv, 2, 2, 2, 3), dtype=np.float64)
    facets: dict[str, list[tuple[int, int]]] = {
        "x-": [], "x+": [], "y-": [], "y+": [], "bottom": [], "top": [],
    }
    e = 0
    for k in range(nz):
        for j in range(ny):
            for i in range(nx):
                for ct in range(2):
                    for cs in range(2):
                        for cr in range(2):
                            corners[e, ct, cs, cr] = (xs[i + cr], ys[j + cs], zs[k + ct])
                if i == 0:
                    facets["x-"].append((e, 0))
                if i == nx - 1:
                    facets["x+"].append((e, 1))
                if j == 0:
                    facets["y-"].append((e, 2))
                if j == ny - 1:
                    facets["y+"].append((e, 3))
                if k == 0:
                    facets["bottom"].append((e, 4))
                if k == nz - 1:
                    facets["top"].append((e, 5))
                e += 1

    drop = []
    if periodic[0]:
        drop += ["x-", "x+"]
    if periodic[1]:
        drop += ["y-", "y+"]
    if periodic[2]:
        drop += ["bottom", "top"]
    boundary = {
        lab: _facets_to_array(fs) for lab, fs in facets.items() if lab not in drop
    }

    periodic_image = None
    if any(periodic):
        spans = np.array([lx_, ly_, lz_])
        orig = np.array([ox, oy, oz])
        mask = np.array(periodic, dtype=bool)

        def periodic_image(coords: np.ndarray) -> np.ndarray:
            out = coords.copy()
            for d in range(3):
                if not mask[d]:
                    continue
                hi = orig[d] + spans[d]
                wrap = np.isclose(out[..., d], hi, rtol=0.0, atol=1e-10 * max(spans[d], 1.0))
                out[..., d] = np.where(wrap, orig[d], out[..., d])
            return out

    return HexMesh(
        corner_coords=corners,
        boundary_facets=boundary,
        periodic_image=periodic_image,
        name=f"box{nx}x{ny}x{nz}",
    )


def _butterfly_cross_section(
    radius: float,
    n_square: int,
    n_ring: int,
    square_fraction: float,
    ring_grading: float,
) -> tuple[list[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None], np.ndarray, list[bool]]:
    """Build the 2-D butterfly decomposition of a disc.

    Returns a list of per-quad 2-D geometry maps (``None`` = bilinear), the
    quad corner array ``(nquad, 2, 2, 2)`` indexed ``[q, s, r, xy]``, and a
    per-quad flag marking quads whose ``s+`` edge lies on the circle.
    """
    a = square_fraction * radius  # half-width of the central square
    u_sq = np.linspace(-1.0, 1.0, n_square + 1)

    quads_corners: list[np.ndarray] = []
    quad_maps: list[Callable | None] = []
    on_circle: list[bool] = []

    # Central square block: bilinear quads.
    for j in range(n_square):
        for i in range(n_square):
            c = np.empty((2, 2, 2))
            for cs in range(2):
                for cr in range(2):
                    c[cs, cr] = (a * u_sq[i + cr], a * u_sq[j + cs])
            quads_corners.append(c)
            quad_maps.append(None)
            on_circle.append(False)

    # Radial blending fractions g_l in [0, 1]; g=1 is the exact circle.
    # Grading > 0 clusters layers toward the wall (resolving the sidewall BL).
    xi = np.linspace(0.0, 1.0, n_ring + 1)
    if ring_grading > 0.0:
        xi = np.tanh(ring_grading * xi) / np.tanh(ring_grading)
    g = xi

    # Four blocks, one per square side, rotated copies of the +x block.
    # Block b rotates the +x construction by b * 90 degrees.
    for b in range(4):
        ang = b * np.pi / 2.0
        ca, sa = np.cos(ang), np.sin(ang)

        def square_edge(u: np.ndarray, ca: float = ca, sa: float = sa) -> tuple[np.ndarray, np.ndarray]:
            x0, y0 = a, a * u
            return ca * x0 - sa * y0, sa * x0 + ca * y0

        def circle_edge(u: np.ndarray, ca: float = ca, sa: float = sa) -> tuple[np.ndarray, np.ndarray]:
            th = u * np.pi / 4.0
            x0, y0 = radius * np.cos(th), radius * np.sin(th)
            return ca * x0 - sa * y0, sa * x0 + ca * y0

        def layer_curve(u: np.ndarray, gl: float, ca: float = ca, sa: float = sa):
            xs, ys = square_edge(u, ca, sa)
            xc, yc = circle_edge(u, ca, sa)
            return (1.0 - gl) * xs + gl * xc, (1.0 - gl) * ys + gl * yc

        for ring in range(n_ring):
            g_in, g_out = g[ring], g[ring + 1]
            for i in range(n_square):
                # The azimuthal parameter runs *backwards* in r so that the
                # local (r, s) frame is right-handed (r x s = +z): s points
                # radially outward and u increases counter-clockwise.
                u0, u1 = u_sq[i + 1], u_sq[i]

                def qmap(
                    rr: np.ndarray,
                    ss: np.ndarray,
                    u0: float = u0,
                    u1: float = u1,
                    g_in: float = g_in,
                    g_out: float = g_out,
                    ca: float = ca,
                    sa: float = sa,
                ) -> tuple[np.ndarray, np.ndarray]:
                    u = u0 + (rr + 1.0) / 2.0 * (u1 - u0)
                    xi_, yi_ = layer_curve(u, g_in, ca, sa)
                    xo_, yo_ = layer_curve(u, g_out, ca, sa)
                    w = (ss + 1.0) / 2.0
                    return (1.0 - w) * xi_ + w * xo_, (1.0 - w) * yi_ + w * yo_

                c = np.empty((2, 2, 2))
                for cs, gl in ((0, g_in), (1, g_out)):
                    for cr, uu in ((0, u0), (1, u1)):
                        xx, yy = layer_curve(np.asarray(uu), gl, ca, sa)
                        c[cs, cr] = (float(xx), float(yy))
                quads_corners.append(c)
                quad_maps.append(qmap)
                on_circle.append(ring == n_ring - 1)

    return quad_maps, np.stack(quads_corners), on_circle


def cylinder_mesh(
    diameter: float = 0.5,
    height: float = 1.0,
    n_square: int = 2,
    n_ring: int = 2,
    n_z: int = 8,
    z_grading: float = 1.8,
    ring_grading: float = 0.0,
    square_fraction: float = 0.5,
) -> HexMesh:
    """Butterfly (O-grid) mesh of a cylinder of the given diameter and height.

    The cylinder axis is ``z`` in ``[0, height]``; ``diameter / height`` is
    the aspect ratio Gamma of the RBC cell (the paper's production case uses
    Gamma = 1/10; laptop-scale demos typically use Gamma = 1/2 or 1).
    ``z_grading`` clusters element layers toward the plates where the thermal
    boundary layers live.  Boundary labels: ``bottom``, ``top``, ``side``.
    """
    if diameter <= 0 or height <= 0:
        raise ValueError("diameter and height must be positive")
    radius = diameter / 2.0
    quad_maps, quad_corners, on_circle = _butterfly_cross_section(
        radius, n_square, n_ring, square_fraction, ring_grading
    )
    nquad = quad_corners.shape[0]
    zs = graded_layers(n_z, 0.0, height, z_grading)

    nelv = nquad * n_z
    corners = np.empty((nelv, 2, 2, 2, 3), dtype=np.float64)
    elem_maps: list[ElementMap | None] = [None] * nelv
    facets: dict[str, list[tuple[int, int]]] = {"bottom": [], "top": [], "side": []}

    e = 0
    for k in range(n_z):
        z0, z1 = zs[k], zs[k + 1]
        for q in range(nquad):
            for ct, zz in ((0, z0), (1, z1)):
                corners[e, ct, :, :, :2] = quad_corners[q]
                corners[e, ct, :, :, 2] = zz
            qmap = quad_maps[q]
            if qmap is not None:

                def emap(
                    rr: np.ndarray,
                    ss: np.ndarray,
                    tt: np.ndarray,
                    qmap: Callable = qmap,
                    z0: float = z0,
                    z1: float = z1,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
                    xx, yy = qmap(rr, ss)
                    zz = z0 + (tt + 1.0) / 2.0 * (z1 - z0)
                    return (
                        np.broadcast_to(xx, rr.shape).copy(),
                        np.broadcast_to(yy, rr.shape).copy(),
                        np.broadcast_to(zz, rr.shape).copy(),
                    )

                elem_maps[e] = emap
            if k == 0:
                facets["bottom"].append((e, 4))
            if k == n_z - 1:
                facets["top"].append((e, 5))
            if on_circle[q]:
                facets["side"].append((e, 3))
            e += 1

    return HexMesh(
        corner_coords=corners,
        boundary_facets={k: _facets_to_array(v) for k, v in facets.items()},
        elem_maps=elem_maps,
        name=f"cylinder_G{diameter / height:g}",
    )
