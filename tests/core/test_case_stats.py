"""Tests for case configuration, statistics and region timers."""

import time

import numpy as np
import pytest

from repro.core import CaseConfig, RegionTimers
from repro.core.rbc import conductive_profile, default_perturbation, rbc_box_case, rbc_cylinder_case
from repro.core import statistics
from repro.core.statistics import (
    compute_nusselt,
    facet_area,
    facet_integral,
    nusselt_dissipation,
    nusselt_plate,
    nusselt_volume,
    reynolds_number,
)
from repro.sem.mesh import box_mesh, cylinder_mesh
from repro.sem.operators import physical_grad
from repro.sem.space import FunctionSpace
from repro.timeint.cfl import courant_number


class TestCaseConfig:
    def test_nondimensional_groups(self):
        cfg = CaseConfig(mesh=box_mesh((1, 1, 1)), rayleigh=1e8, prandtl=1.0)
        assert cfg.viscosity == pytest.approx(1e-4)
        assert cfg.conductivity == pytest.approx(1e-4)

    def test_prandtl_asymmetry(self):
        cfg = CaseConfig(mesh=box_mesh((1, 1, 1)), rayleigh=1e4, prandtl=4.0)
        assert cfg.viscosity == pytest.approx(0.02)
        assert cfg.conductivity == pytest.approx(0.005)

    def test_validate_rejects_bad_labels(self):
        cfg = CaseConfig(mesh=box_mesh((1, 1, 1)), no_slip_labels=("wall",))
        with pytest.raises(ValueError, match="no-slip"):
            cfg.validate()

    def test_validate_rejects_bad_params(self):
        mesh = box_mesh((1, 1, 1))
        CaseConfig(mesh=mesh, pressure_projection_dim=0, adaptive_cfl=0.5).validate()
        for bad in (
            {"rayleigh": -1.0},
            {"dt": 0.0},
            {"pressure_projection_dim": -1},
            {"pressure_tol": 0.0},
            {"velocity_tol": -1e-9},
            {"temperature_tol": 0.0},
            {"dt_min": 1.0, "dt_max": 0.1},
            {"adaptive_cfl": 0.0},
            {"time_order": 0},
            {"time_order": 4},
        ):
            with pytest.raises(ValueError):
                CaseConfig(mesh=mesh, **bad).validate()

    def test_box_factory(self):
        cfg = rbc_box_case(1e5, n=(2, 2, 2), lx=5)
        assert cfg.temperature_bcs == {"bottom": 0.5, "top": -0.5}
        assert "bottom" in cfg.no_slip_labels
        assert cfg.dt <= 2e-2

    def test_box_factory_walls(self):
        cfg = rbc_box_case(1e4, n=(2, 2, 2), lx=4, periodic_lateral=False)
        assert set(cfg.no_slip_labels) == {"bottom", "top", "x-", "x+", "y-", "y+"}

    def test_cylinder_factory(self):
        cfg = rbc_cylinder_case(1e5, aspect=0.5, n_z=4, lx=4)
        assert set(cfg.no_slip_labels) == {"bottom", "top", "side"}
        cfg.validate()

    def test_perturbation_vanishes_at_plates(self):
        p = default_perturbation()
        x = np.linspace(0, 1, 5)
        assert np.allclose(p(x, x, np.zeros(5)), 0.0, atol=1e-12)
        assert np.allclose(p(x, x, np.ones(5)), 0.0, atol=1e-12)

    def test_conductive_profile(self):
        z = np.array([0.0, 0.5, 1.0])
        assert np.allclose(conductive_profile(z, z, z), [0.5, 0.0, -0.5])


class TestFacetIntegrals:
    @pytest.fixture(scope="class")
    def sp(self):
        return FunctionSpace(box_mesh((2, 2, 2), lengths=(2.0, 3.0, 1.0)), 5)

    def test_area_box(self, sp):
        assert facet_area(sp, "bottom") == pytest.approx(6.0, rel=1e-12)
        assert facet_area(sp, "x-") == pytest.approx(3.0, rel=1e-12)

    def test_area_cylinder(self):
        spc = FunctionSpace(cylinder_mesh(diameter=1.0, n_square=3, n_ring=3, n_z=2), 6)
        assert facet_area(spc, "bottom") == pytest.approx(np.pi * 0.25, rel=5e-4)
        assert facet_area(spc, "side") == pytest.approx(np.pi * 1.0, rel=1e-6)

    def test_integral_of_polynomial(self, sp):
        # int x over bottom [0,2]x[0,3]: 2*3 = 6... mean x = 1 -> 6.
        val = facet_integral(sp, "bottom", sp.x)
        assert val == pytest.approx(6.0, rel=1e-12)


class TestNusselt:
    @pytest.fixture(scope="class")
    def sp(self):
        return FunctionSpace(box_mesh((2, 2, 2)), 5)

    def test_conduction_state_gives_unity(self, sp):
        t = 0.5 - sp.z
        zero = np.zeros(sp.shape)
        assert nusselt_volume(sp, zero, t, 1e5, 1.0) == pytest.approx(1.0, abs=1e-10)
        assert nusselt_plate(sp, t, "bottom") == pytest.approx(1.0, abs=1e-10)
        assert nusselt_plate(sp, t, "top") == pytest.approx(1.0, abs=1e-10)
        assert nusselt_dissipation(sp, t) == pytest.approx(1.0, abs=1e-10)

    def test_compute_nusselt_bundle(self, sp):
        t = 0.5 - sp.z
        zero = np.zeros(sp.shape)
        nu = compute_nusselt(sp, zero, t, 1e5, 1.0)
        assert nu.mean == pytest.approx(1.0, abs=1e-9)
        assert nu.spread < 1e-9

    def test_convective_flux_raises_nu(self, sp):
        t = 0.5 - sp.z
        # Correlated uz and T fluctuation raises the volume Nusselt number.
        uz = np.sin(np.pi * sp.z) * np.ones(sp.shape)
        tt = t + 0.1 * np.sin(np.pi * sp.z)
        ra, pr = 1e6, 1.0
        nuv = nusselt_volume(sp, uz, tt, ra, pr)
        assert nuv > 1.5

    def test_samples_exact_and_facet_quadrature_built_once(self, monkeypatch):
        # A fresh deformed space, so its facet weights are not yet cached.
        mesh = cylinder_mesh(diameter=1.0, n_square=2, n_ring=2, n_z=2)
        sp = FunctionSpace(mesh, 5)
        rng = np.random.default_rng(7)
        t = 0.5 - sp.z + 0.05 * np.sin(3.0 * sp.x) * np.cos(2.0 * sp.y)
        uz = rng.standard_normal(sp.shape)
        built = []
        quadrature = statistics._facet_quadrature

        def counting(space, e, face):
            built.append((e, face))
            return quadrature(space, e, face)

        monkeypatch.setattr(statistics, "_facet_quadrature", counting)
        first = compute_nusselt(sp, uz, t, 1e5, 0.7)
        n_facets = len(sp.mesh.boundary_facets["bottom"]) + len(sp.mesh.boundary_facets["top"])
        assert len(built) == n_facets
        second = compute_nusselt(sp, uz, t, 1e5, 0.7)
        assert len(built) == n_facets  # the second sample builds no quadrature
        assert second == first

        # The estimators as computed with the quadrature rebuilt per facet
        # and one gradient per estimator: equal to the last bit.
        def rebuilt_integral(label, field):
            total = 0.0
            for e, face in sp.mesh.boundary_facets[label]:
                idx = (int(e), *sp.mesh.facet_node_index(int(face), sp.lx))
                total += float(np.sum(field[idx] * quadrature(sp, int(e), int(face))))
            return total

        def rebuilt_plate(label):
            _, _, dtdz = physical_grad(t, sp.coef, sp.dx)
            area = rebuilt_integral(label, np.ones(sp.shape))
            return -rebuilt_integral(label, dtdz) / area

        gx, gy, gz = physical_grad(t, sp.coef, sp.dx)
        kappa = 1.0 / np.sqrt(1e5 * 0.7)
        assert first.volume == (sp.mean(uz * t) - kappa * sp.mean(gz)) / kappa
        assert first.plate_bottom == rebuilt_plate("bottom")
        assert first.plate_top == rebuilt_plate("top")
        assert first.dissipation == sp.mean(gx**2 + gy**2 + gz**2)

    def test_reynolds_number(self, sp):
        u = np.ones(sp.shape)
        z = np.zeros(sp.shape)
        assert reynolds_number(sp, u, z, z, 1e6, 1.0) == pytest.approx(1e3)

    @pytest.mark.parametrize(
        "diagnostic",
        [
            lambda sp, one, full: compute_nusselt(sp, one, full, 1e5, 1.0),
            lambda sp, one, full: reynolds_number(sp, one, full, full, 1e5, 1.0),
            lambda sp, one, full: courant_number(sp, one, full, full, 0.1),
        ],
        ids=["compute_nusselt", "reynolds_number", "courant_number"],
    )
    def test_single_element_field_is_rejected(self, sp, diagnostic):
        # One element's (lx, lx, lx) block would broadcast against the
        # (nelv, lx, lx, lx) geometry and return a plausible wrong number.
        full = np.ones(sp.shape)
        with pytest.raises(ValueError, match=r"has shape \(5, 5, 5\)"):
            diagnostic(sp, full[0], full)


class TestRegionTimers:
    def test_accumulation(self):
        t = RegionTimers()
        with t.region("a"):
            time.sleep(0.01)
        with t.region("a"):
            pass
        with t.region("b"):
            pass
        assert t.counts["a"] == 2
        assert t.totals["a"] >= 0.01
        fr = t.fractions()
        assert fr["a"] + fr["b"] == pytest.approx(1.0)

    def test_empty_fractions(self):
        assert RegionTimers().fractions() == {}

    def test_report_contains_regions(self):
        t = RegionTimers()
        with t.region("pressure"):
            pass
        rep = t.report()
        assert "pressure" in rep

    def test_reset(self):
        t = RegionTimers()
        with t.region("x"):
            pass
        t.reset()
        assert t.total() == 0.0
