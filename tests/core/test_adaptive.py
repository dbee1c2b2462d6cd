"""Tests for adaptive (CFL-targeted) time stepping."""

import numpy as np
import pytest

from repro.core import Simulation, load_checkpoint, rbc_box_case, write_checkpoint


@pytest.fixture(scope="module")
def adaptive_sim():
    cfg = rbc_box_case(1e5, n=(2, 2, 2), lx=5, aspect=2.0, dt=5e-3,
                       perturbation_amplitude=0.2, adaptive_cfl=0.3, dt_max=4e-2)
    sim = Simulation(cfg)
    sim.run(n_steps=120)
    return sim


class TestAdaptiveStepping:
    def test_scheme_spans_the_steps_taken(self, adaptive_sim):
        taken = [r.dt for r in adaptive_sim.history]
        assert adaptive_sim.scheme.dts == taken[::-1][:2]
        assert adaptive_sim.scheme.dts[0] == adaptive_sim.dt

    def test_dt_grows_when_quiescent(self, adaptive_sim):
        # Early steps (tiny velocities) must ramp dt up from the initial 5e-3.
        dts = [r.dt for r in adaptive_sim.history]
        assert max(dts[:40]) > 2 * dts[0]

    def test_cfl_tracks_target_once_active(self, adaptive_sim):
        cfls = [r.cfl for r in adaptive_sim.history[-20:]]
        # Either still below target (dt capped at dt_max) or near target.
        assert all(c < 0.45 for c in cfls)

    def test_dt_bounds_respected(self, adaptive_sim):
        dts = [r.dt for r in adaptive_sim.history]
        assert max(dts) <= adaptive_sim.config.dt_max + 1e-15
        assert min(dts) >= adaptive_sim.config.dt_min

    def test_change_rate_limited(self, adaptive_sim):
        dts = np.array([r.dt for r in adaptive_sim.history])
        ratios = dts[1:] / dts[:-1]
        assert ratios.max() <= 1.2 + 1e-12
        assert ratios.min() >= 0.75 - 1e-12

    def test_time_accumulates_actual_dts(self, adaptive_sim):
        total = sum(r.dt for r in adaptive_sim.history)
        assert adaptive_sim.time == pytest.approx(total, rel=1e-12)

    def test_physics_stays_sane(self, adaptive_sim):
        r = adaptive_sim.history[-1]
        assert np.isfinite(r.kinetic_energy)
        assert r.divergence < 1.0
        t = adaptive_sim.temperature
        assert t.max() <= 0.6 and t.min() >= -0.6

    def test_checkpoint_restart_with_adaptive(self, tmp_path):
        cfg = rbc_box_case(2e4, n=(2, 2, 2), lx=4, aspect=2.0, dt=5e-3,
                           perturbation_amplitude=0.1, adaptive_cfl=0.3)
        sim1 = Simulation(cfg)
        sim1.run(n_steps=6)
        write_checkpoint(sim1, tmp_path / "ck.npz")
        sim1.run(n_steps=4)

        cfg2 = rbc_box_case(2e4, n=(2, 2, 2), lx=4, aspect=2.0, dt=5e-3,
                            perturbation_amplitude=0.1, adaptive_cfl=0.3)
        sim2 = Simulation(cfg2)
        load_checkpoint(sim2, tmp_path / "ck.npz")
        sim2.run(n_steps=4)
        assert np.array_equal(sim1.temperature, sim2.temperature)
        assert sim1.dt == pytest.approx(sim2.dt)


class TestConstantStillDefault:
    def test_constant_dt_unchanged(self):
        cfg = rbc_box_case(2e4, n=(2, 2, 2), lx=4, aspect=2.0, dt=1e-2)
        sim = Simulation(cfg)
        sim.run(n_steps=5)
        assert all(r.dt == pytest.approx(1e-2) for r in sim.history)
        assert not sim.adaptive
