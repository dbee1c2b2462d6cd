"""Flow statistics: Nusselt-number estimators, Reynolds number, energies.

Three independent Nusselt estimators are provided; their mutual agreement
in a statistically steady state is the standard consistency check for RBC
DNS (used heavily in the Ra = 1e15 reference simulations the paper builds
on):

* volume average of the convective + conductive heat flux,
* plate-averaged temperature gradient (bottom / top),
* volume-averaged thermal dissipation rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sem.operators import physical_grad
from repro.sem.quadrature import gll_points_weights
from repro.sem.space import FunctionSpace

__all__ = [
    "facet_integral",
    "facet_area",
    "nusselt_volume",
    "nusselt_plate",
    "nusselt_dissipation",
    "NusseltNumbers",
    "compute_nusselt",
    "reynolds_number",
]


def _facet_quadrature(space: FunctionSpace, e: int, face: int) -> np.ndarray:
    """Surface quadrature weights (dA) on one element face."""
    c = space.coef
    idx = (e, *space.mesh.facet_node_index(face, space.lx))
    axis = {0: "r", 1: "r", 2: "s", 3: "s", 4: "t", 5: "t"}[face]
    # Tangent vectors are the derivatives along the two in-face directions.
    if axis == "r":
        t1 = np.stack([c.dxds[idx], c.dyds[idx], c.dzds[idx]])
        t2 = np.stack([c.dxdt[idx], c.dydt[idx], c.dzdt[idx]])
    elif axis == "s":
        t1 = np.stack([c.dxdr[idx], c.dydr[idx], c.dzdr[idx]])
        t2 = np.stack([c.dxdt[idx], c.dydt[idx], c.dzdt[idx]])
    else:
        t1 = np.stack([c.dxdr[idx], c.dydr[idx], c.dzdr[idx]])
        t2 = np.stack([c.dxds[idx], c.dyds[idx], c.dzds[idx]])
    cross = np.cross(t1, t2, axis=0)
    darea = np.sqrt(np.sum(cross**2, axis=0))
    _, w = gll_points_weights(space.lx)
    w = np.asarray(w)
    return darea * w[:, None] * w[None, :]


def _facet_weights(space: FunctionSpace, label: str) -> list[tuple[tuple, np.ndarray]]:
    """``(node index, dA weights)`` of every face of a labelled boundary.

    Built once per space and label, and memoized on the space instance the
    way :func:`~repro.precond.cache.space_signature` is: the Nusselt
    sample integrates over both plates every time it runs.
    """
    cache = getattr(space, "_facet_weight_cache", None)
    if cache is None:
        cache = space._facet_weight_cache = {}
    if label not in cache:
        cache[label] = [
            (
                (int(e), *space.mesh.facet_node_index(int(face), space.lx)),
                _facet_quadrature(space, int(e), int(face)),
            )
            for e, face in space.mesh.boundary_facets[label]
        ]
    return cache[label]


def facet_integral(space: FunctionSpace, label: str, field: np.ndarray) -> float:
    """Surface integral of a nodal field over a labelled boundary."""
    total = 0.0
    for idx, w in _facet_weights(space, label):
        total += float(np.sum(field[idx] * w))
    return total


def facet_area(space: FunctionSpace, label: str) -> float:
    """Total area of a labelled boundary."""
    total = 0.0
    for _, w in _facet_weights(space, label):
        total += float(np.sum(w))
    return total


def _volume(
    space: FunctionSpace, uz: np.ndarray, temperature: np.ndarray, dtdz: np.ndarray,
    rayleigh: float, prandtl: float,
) -> float:
    kappa = 1.0 / np.sqrt(rayleigh * prandtl)
    flux = space.mean(uz * temperature) - kappa * space.mean(dtdz)
    return flux / kappa


def _plate(space: FunctionSpace, dtdz: np.ndarray, label: str) -> float:
    return -facet_integral(space, label, dtdz) / facet_area(space, label)


def _dissipation(space: FunctionSpace, grad: tuple[np.ndarray, ...]) -> float:
    gx, gy, gz = grad
    return space.mean(gx**2 + gy**2 + gz**2)


def nusselt_volume(
    space: FunctionSpace,
    uz: np.ndarray,
    temperature: np.ndarray,
    rayleigh: float,
    prandtl: float,
) -> float:
    """Volume-flux Nusselt number.

    ``Nu = (<u_z T> - kappa <dT/dz>) / (kappa DeltaT / H)`` with
    ``kappa = 1/sqrt(Ra Pr)`` and ``DeltaT = H = 1`` in free-fall units.
    """
    _, _, dtdz = physical_grad(temperature, space.coef, space.dx)
    return _volume(space, uz, temperature, dtdz, rayleigh, prandtl)


def nusselt_plate(space: FunctionSpace, temperature: np.ndarray, label: str) -> float:
    """Plate-gradient Nusselt number ``-<dT/dz>_plate / (DeltaT/H)``.

    For the top plate the outward heat flux is ``-dT/dz`` as well (heat
    leaves through the top), so the same expression applies to both plates.
    """
    _, _, dtdz = physical_grad(temperature, space.coef, space.dx)
    return _plate(space, dtdz, label)


def nusselt_dissipation(space: FunctionSpace, temperature: np.ndarray) -> float:
    """Thermal-dissipation Nusselt number ``<|grad T|^2> H^2 / DeltaT^2``.

    The exact relation ``Nu = <eps_T> / (kappa DeltaT^2 / H^2)`` holds for
    statistically steady RBC; the diffusivity cancels in free-fall units.
    """
    return _dissipation(space, physical_grad(temperature, space.coef, space.dx))


@dataclass
class NusseltNumbers:
    """The three estimators plus their spread (a convergence diagnostic)."""

    volume: float
    plate_bottom: float
    plate_top: float
    dissipation: float

    @property
    def mean(self) -> float:
        return 0.25 * (self.volume + self.plate_bottom + self.plate_top + self.dissipation)

    @property
    def spread(self) -> float:
        """Max relative deviation between estimators."""
        vals = [self.volume, self.plate_bottom, self.plate_top, self.dissipation]
        m = self.mean
        if m == 0.0:
            return float("inf")
        return max(abs(v - m) for v in vals) / abs(m)


def compute_nusselt(
    space: FunctionSpace,
    uz: np.ndarray,
    temperature: np.ndarray,
    rayleigh: float,
    prandtl: float,
    bottom_label: str = "bottom",
    top_label: str = "top",
) -> NusseltNumbers:
    """All Nusselt estimators in one call, on one temperature gradient."""
    space.check_fields("compute_nusselt", uz=uz, temperature=temperature)
    grad = physical_grad(temperature, space.coef, space.dx)
    return NusseltNumbers(
        volume=_volume(space, uz, temperature, grad[2], rayleigh, prandtl),
        plate_bottom=_plate(space, grad[2], bottom_label),
        plate_top=_plate(space, grad[2], top_label),
        dissipation=_dissipation(space, grad),
    )


def reynolds_number(
    space: FunctionSpace,
    ux: np.ndarray,
    uy: np.ndarray,
    uz: np.ndarray,
    rayleigh: float,
    prandtl: float,
) -> float:
    """Free-fall Reynolds number ``u_rms * sqrt(Ra/Pr)``."""
    space.check_fields("reynolds_number", ux=ux, uy=uy, uz=uz)
    urms = np.sqrt(space.mean(ux**2 + uy**2 + uz**2))
    return float(urms * np.sqrt(rayleigh / prandtl))
