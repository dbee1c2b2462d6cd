"""Point evaluation of SEM fields at arbitrary physical locations.

The equivalent of Neko's probe/point-interpolation machinery (used for
history points, slices and visualization): locate the element containing
each query point by inverting the (possibly curved) geometry map with
Newton's method, then evaluate the nodal interpolant exactly.

Element location uses bounding boxes as candidates and accepts the first
element whose inverse map lands inside the reference cube (within a
tolerance); the inversion works for any element geometry because it
iterates on the *nodal* representation of the coordinates, not on an
assumed trilinear map.
"""

from __future__ import annotations

import numpy as np

from repro.sem.basis import derivative_matrix, lagrange_interpolation_matrix
from repro.sem.space import FunctionSpace

__all__ = ["FieldProbes"]


def _eval_rows(lx: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Row vectors ``l_i(r)`` and ``l_i'(r)`` of the GLL cardinal basis."""
    row = lagrange_interpolation_matrix(np.array([r]), lx)[0]
    drow = lagrange_interpolation_matrix(np.array([r]), lx)[0] @ derivative_matrix(lx)
    return row, drow


class FieldProbes:
    """Located query points bound to a function space.

    Parameters
    ----------
    space:
        The function space whose fields will be probed.
    points:
        ``(n, 3)`` physical coordinates.  Points outside the mesh raise
        ``ValueError`` unless ``strict=False``, in which case they are
        flagged in :attr:`found` and evaluate to ``nan``.
    """

    def __init__(
        self,
        space: FunctionSpace,
        points: np.ndarray,
        strict: bool = True,
        newton_tol: float = 1e-11,
        ref_tol: float = 1e-8,
    ) -> None:
        self.space = space
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        self.points = pts
        n = pts.shape[0]
        lx = space.lx

        # Element bounding boxes (slightly inflated).
        coords = np.stack(
            [space.x.reshape(space.nelv, -1), space.y.reshape(space.nelv, -1),
             space.z.reshape(space.nelv, -1)], axis=2,
        )
        lo = coords.min(axis=1)
        hi = coords.max(axis=1)
        margin = 1e-8 + 1e-6 * (hi - lo)
        lo -= margin
        hi += margin

        self.element = np.full(n, -1, dtype=np.int64)
        self.rst = np.zeros((n, 3))
        self.found = np.zeros(n, dtype=bool)

        for ip, p in enumerate(pts):
            candidates = np.flatnonzero(np.all((p >= lo) & (p <= hi), axis=1))
            for e in candidates:
                ok, rst = self._invert(int(e), p, newton_tol, ref_tol)
                if ok:
                    self.element[ip] = int(e)
                    self.rst[ip] = rst
                    self.found[ip] = True
                    break
            if not self.found[ip] and strict:
                raise ValueError(f"point {p} not found in any element")

        # Precompute basis rows for fast repeated evaluation.
        self._rows = []
        for ip in range(n):
            if not self.found[ip]:
                self._rows.append(None)
                continue
            rr, ss, tt = self.rst[ip]
            li = lagrange_interpolation_matrix(np.array([rr]), lx)[0]
            lj = lagrange_interpolation_matrix(np.array([ss]), lx)[0]
            lk = lagrange_interpolation_matrix(np.array([tt]), lx)[0]
            self._rows.append((li, lj, lk))
        # Batched layout for evaluate(): stacked rows over the found probes,
        # so one einsum evaluates every probe (the per-probe Python loop was
        # the hot spot of in-situ sampling).
        self._found_idx = np.flatnonzero(self.found)
        if len(self._found_idx):
            rows = [self._rows[ip] for ip in self._found_idx]
            self._li = np.stack([r[0] for r in rows])
            self._lj = np.stack([r[1] for r in rows])
            self._lk = np.stack([r[2] for r in rows])
        else:
            self._li = self._lj = self._lk = np.zeros((0, lx))

    # -- geometry inversion -----------------------------------------------------

    def _geom_at(self, e: int, rst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Position and Jacobian of the geometry map at a reference point.

        One batched-``matmul`` sweep per tensor axis evaluates all eight
        (value, derivative) basis combinations of all three coordinates at
        once -- the same contraction structure as the field operators,
        replacing twelve scalar ``einsum`` reductions per Newton step.
        """
        lx = self.space.lx
        li = lagrange_interpolation_matrix(np.array([rst[0]]), lx)[0]
        lj = lagrange_interpolation_matrix(np.array([rst[1]]), lx)[0]
        lk = lagrange_interpolation_matrix(np.array([rst[2]]), lx)[0]
        # Derivative rows: l'(r) = l(r) @ D (differentiate-then-interpolate
        # is exact for the polynomial basis).
        d = np.asarray(derivative_matrix(lx))
        rows_i = np.stack([li, li @ d])  # (2, lx): value row, derivative row
        rows_j = np.stack([lj, lj @ d])
        rows_k = np.stack([lk, lk @ d])

        # coords[dim] = (lx, lx, lx) nodal coordinates of element e.
        coords = np.stack(
            [self.space.x[e], self.space.y[e], self.space.z[e]]
        )
        # Contract axis by axis; c[dim, kt, js, ir] holds the interpolant
        # with value (0) or derivative (1) rows along each direction.
        c = np.matmul(rows_k, coords.reshape(3, lx, lx * lx))  # (3, 2, lx*lx)
        c = np.matmul(rows_j, c.reshape(3, 2, lx, lx))  # (3, 2, 2, lx)
        c = np.matmul(c, rows_i.T)  # (3, 2, 2, 2)

        pos = c[:, 0, 0, 0].copy()
        jac = np.empty((3, 3))
        jac[:, 0] = c[:, 0, 0, 1]  # d/dr
        jac[:, 1] = c[:, 0, 1, 0]  # d/ds
        jac[:, 2] = c[:, 1, 0, 0]  # d/dt
        return pos, jac

    def _invert(
        self, e: int, p: np.ndarray, newton_tol: float, ref_tol: float
    ) -> tuple[bool, np.ndarray]:
        rst = np.zeros(3)
        scale = max(1.0, float(np.abs(p).max()))
        for _ in range(25):
            pos, jac = self._geom_at(e, rst)
            res = pos - p
            if np.abs(res).max() < newton_tol * scale:
                break
            try:
                step = np.linalg.solve(jac, res)
            except np.linalg.LinAlgError:
                return False, rst
            # Damped to stay in the basin for curved elements.
            step = np.clip(step, -0.5, 0.5)
            rst -= step
            if np.abs(rst).max() > 2.0:
                return False, rst
        else:
            return False, rst
        inside = np.all(np.abs(rst) <= 1.0 + ref_tol)
        return bool(inside), np.clip(rst, -1.0, 1.0)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, field: np.ndarray) -> np.ndarray:
        """Values of a nodal field at the probe points (nan where not found)."""
        if field.shape != self.space.shape:
            raise ValueError(f"field shape {field.shape} != {self.space.shape}")
        out = np.full(self.points.shape[0], np.nan)
        if len(self._found_idx):
            lx = self.space.lx
            f = field[self.element[self._found_idx]]  # (p, lx, lx, lx)
            p = f.shape[0]
            # Batched matmul, one tensor axis at a time (the same
            # (batch, n, n) contraction shape as the field operators).
            t = np.matmul(self._lk[:, None, :], f.reshape(p, lx, lx * lx))
            t = np.matmul(self._lj[:, None, :], t.reshape(p, lx, lx))
            vals = np.matmul(t, self._li[:, :, None]).reshape(p)
            out[self._found_idx] = vals
        return out

    @property
    def n_found(self) -> int:
        return int(np.count_nonzero(self.found))
