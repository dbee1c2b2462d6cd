"""Integration tests of the coupled RBC solver.

These run short real simulations at laptop scale; the physics assertions
(conduction stability below onset, convection above, Nusselt-estimator
consistency) are the standard validation battery for RBC codes.
"""

import numpy as np
import pytest

from repro.core import Simulation, load_checkpoint, load_snapshot, write_checkpoint
from repro.core.output import FieldWriter
from repro.core.rbc import rbc_box_case, rbc_cylinder_case


@pytest.fixture(scope="module")
def small_sim():
    """A tiny supercritical case advanced a few steps (shared, read-only)."""
    cfg = rbc_box_case(1e4, n=(2, 2, 2), lx=5, aspect=2.0, dt=1e-2)
    sim = Simulation(cfg)
    sim.run(n_steps=5)
    return sim


class TestSetup:
    def test_initial_temperature_has_bc_values(self, small_sim):
        t = small_sim.temperature
        mask = small_sim.scalar.mask
        lift = small_sim.scalar.lift
        assert np.allclose(t[mask == 0.0], lift[mask == 0.0])

    def test_temperature_within_physical_bounds(self, small_sim):
        # Maximum principle (discretely approximate): T stays within the
        # plate values plus a small overshoot tolerance.
        t = small_sim.temperature
        assert t.max() <= 0.55
        assert t.min() >= -0.55

    def test_velocity_noslip(self, small_sim):
        mask = small_sim.fluid.vel_mask
        for comp in small_sim.velocity:
            assert np.allclose(comp[mask == 0.0], 0.0, atol=1e-14)

    def test_order_ramp_progressed(self, small_sim):
        assert small_sim.scheme.order == 3
        assert small_sim.step_count == 5

    def test_step_results_recorded(self, small_sim):
        assert len(small_sim.history) == 5
        assert small_sim.history[-1].time == pytest.approx(5e-2)
        assert np.isfinite(small_sim.history[-1].kinetic_energy)


class TestPhysics:
    def test_subcritical_conduction_decays(self):
        # Ra = 800 < Ra_c = 1708: perturbation energy must decay.
        cfg = rbc_box_case(800.0, n=(2, 2, 2), lx=5, aspect=2.0, dt=1e-2,
                           perturbation_amplitude=0.1)
        sim = Simulation(cfg)
        sim.run(n_steps=10)
        ke_early = sim.fluid.kinetic_energy()
        sim.run(n_steps=90)
        ke_late = sim.fluid.kinetic_energy()
        assert ke_late < ke_early

    def test_supercritical_nusselt_above_one(self):
        # Vigorous convection at Ra = 1e5 raises Nu well above 1.
        cfg = rbc_box_case(1e5, n=(3, 3, 3), lx=5, aspect=2.0, dt=2e-2,
                           perturbation_amplitude=0.1)
        sim = Simulation(cfg)
        sim.run(n_steps=200, stats_interval=20)
        s = sim.sample_statistics()
        assert s.nusselt.volume > 1.5
        assert s.nusselt.dissipation > 1.5
        assert sim.history[-1].kinetic_energy > 1e-3

    def test_nusselt_estimator_consistency(self):
        # In (quasi-)steady convection the three estimators agree within
        # a modest tolerance even at coarse resolution.
        cfg = rbc_box_case(5e4, n=(3, 3, 3), lx=5, aspect=2.0, dt=2e-2,
                           perturbation_amplitude=0.1)
        sim = Simulation(cfg)
        sim.run(n_steps=400, stats_interval=20)
        nu = sim.time_averaged_nusselt(discard_fraction=0.5)
        assert nu.mean > 1.5
        assert nu.spread < 0.25

    def test_divergence_stays_bounded(self, small_sim):
        assert small_sim.history[-1].divergence < 1.0

    def test_cylinder_case_runs(self):
        cfg = rbc_cylinder_case(1e4, aspect=1.0, n_square=2, n_ring=1, n_z=3,
                                lx=4, dt=1e-2)
        sim = Simulation(cfg)
        res = sim.run(n_steps=5)
        assert np.isfinite(res[-1].kinetic_energy)
        s = sim.sample_statistics()
        assert np.isfinite(s.nusselt.volume)

    def test_energy_injection_consistent_with_buoyancy(self):
        # dKE/dt ~ buoyancy work at early times (viscous losses small):
        # the sign of the energy input must be positive once convection
        # starts.
        cfg = rbc_box_case(1e5, n=(2, 2, 2), lx=5, aspect=2.0, dt=1e-2,
                           perturbation_amplitude=0.2)
        sim = Simulation(cfg)
        sim.run(n_steps=50)
        uz = sim.velocity[2]
        work = sim.space.integrate(uz * sim.temperature)
        assert work > 0.0


class TestPressureProjection:
    def test_projection_keeps_paying_after_the_basis_overflows(self):
        # Steps 20-60 of a run with an 8-direction space are several
        # overflows in.  Restarting the space from the current solution
        # keeps the deflation (measured: 16 iterations/step against 46
        # undeflated); dropping its oldest direction instead loses it (41).
        def mean_iterations(dim):
            cfg = rbc_box_case(1e5, n=(3, 3, 3), lx=6, aspect=2.0, dt=0.025,
                               perturbation_amplitude=0.1)
            cfg.pressure_projection_dim = dim
            sim = Simulation(cfg)
            counts = [sim.step().pressure_iterations for _ in range(60)]
            return np.mean(counts[20:])

        assert mean_iterations(8) <= (2.0 / 3.0) * mean_iterations(0)


class TestHelmholtzSolves:
    """Velocity and temperature CG stop against ||b|| and start from the
    EXT-extrapolated history, on solver objects that are built once."""

    def test_half_the_iterations_same_answer(self):
        # The box of TestPressureProjection.  With tol measured against the
        # warm-started residual and u^n as the guess (this repo until PR 22)
        # steps 10-40 took 7.0 velocity and 7.0 temperature iterations and
        # ended at the kinetic energy pinned below.
        cfg = rbc_box_case(1e5, n=(3, 3, 3), lx=6, aspect=2.0, dt=0.025,
                           perturbation_amplitude=0.1)
        sim = Simulation(cfg)
        results, converged = [], []
        for _ in range(40):
            results.append(sim.step())
            monitors = (*sim.fluid.monitors.values(), *sim.scalar.monitors.values())
            converged.append(all(m.converged for m in monitors))
        assert all(converged)
        assert np.mean([r.velocity_iterations for r in results[10:]]) <= 0.6 * 7.0
        assert np.mean([r.temperature_iterations for r in results[10:]]) <= 0.6 * 7.0
        assert results[-1].kinetic_energy == pytest.approx(0.001733587860704966, rel=1e-7)
        # The monitors say what tol was relative to: the right-hand side,
        # which the extrapolated guess had already reduced a lot.
        mon = sim.scalar.monitors["temperature"]
        assert mon.reference > 1e3 * mon.initial_residual
        assert mon.final_residual <= cfg.temperature_tol * mon.reference

    def test_solvers_are_built_once(self):
        cfg = rbc_box_case(2e4, n=(2, 2, 2), lx=4, aspect=2.0, dt=5e-3,
                           perturbation_amplitude=0.1, adaptive_cfl=0.3)
        sim = Simulation(cfg)
        velocity, temperature = sim.fluid.velocity_solver, sim.scalar.solver
        inner = (velocity.cg, velocity.precond, temperature.cg, temperature.precond)
        h2 = []
        for _ in range(6):  # the order ramp (steps 1-3), then set_dt every step
            sim.step()
            assert sim.fluid.velocity_solver is velocity
            assert sim.scalar.solver is temperature
            assert velocity.h2 == temperature.h2
            h2.append(velocity.h2)
        assert (velocity.cg, velocity.precond, temperature.cg, temperature.precond) == inner
        assert len(set(h2)) == 6
        assert len({r.dt for r in sim.history}) > 1


class TestDeterminism:
    def test_runs_are_reproducible(self):
        def run():
            cfg = rbc_box_case(2e4, n=(2, 2, 2), lx=4, aspect=2.0, dt=1e-2)
            sim = Simulation(cfg)
            sim.run(n_steps=5)
            return sim.temperature.copy()

        assert np.array_equal(run(), run())


class TestOutputCheckpoint:
    def test_field_writer_and_loader(self, small_sim, tmp_path):
        writer = FieldWriter(tmp_path)
        p = writer(small_sim)
        assert p.exists()
        snap = load_snapshot(p)
        assert snap["meta"]["step"] == small_sim.step_count
        assert np.allclose(snap["temperature"], small_sim.temperature)
        assert snap["ux"].shape == small_sim.space.shape

    def test_writer_numbering(self, small_sim, tmp_path):
        writer = FieldWriter(tmp_path, prefix="s")
        p0 = writer(small_sim)
        p1 = writer(small_sim)
        assert p0.name == "s00000.npz"
        assert p1.name == "s00001.npz"

    def test_checkpoint_restart_bitexact(self, tmp_path):
        cfg = rbc_box_case(2e4, n=(2, 2, 2), lx=4, aspect=2.0, dt=1e-2)
        sim1 = Simulation(cfg)
        sim1.run(n_steps=4)
        write_checkpoint(sim1, tmp_path / "ck.npz")
        sim1.run(n_steps=3)

        cfg2 = rbc_box_case(2e4, n=(2, 2, 2), lx=4, aspect=2.0, dt=1e-2)
        sim2 = Simulation(cfg2)
        load_checkpoint(sim2, tmp_path / "ck.npz")
        assert sim2.step_count == 4
        sim2.run(n_steps=3)
        assert np.array_equal(sim1.temperature, sim2.temperature)
        assert np.array_equal(sim1.velocity[2], sim2.velocity[2])

    def test_callbacks_fire_on_interval(self):
        cfg = rbc_box_case(2e4, n=(2, 2, 2), lx=4, aspect=2.0, dt=1e-2)
        sim = Simulation(cfg)
        calls = []
        sim.callbacks.append(lambda s: calls.append(s.step_count))
        sim.run(n_steps=6, callback_interval=2)
        assert calls == [2, 4, 6]

    def test_run_requires_termination_criterion(self, small_sim):
        with pytest.raises(ValueError):
            small_sim.run()


class TestDivergenceGuard:
    def test_nan_temperature_aborts_with_named_quantity(self):
        cfg = rbc_box_case(2e4, n=(2, 2, 2), lx=4, aspect=2.0, dt=1e-2)
        sim = Simulation(cfg)
        sim.run(n_steps=2)
        sim.scalar.temperature[0, 0, 0, 0] = np.nan  # poisons the buoyancy
        with pytest.raises(FloatingPointError, match="diverged"):
            sim.run(n_steps=3)

    def test_guard_names_each_quantity(self):
        cfg = rbc_box_case(2e4, n=(2, 2, 2), lx=4, aspect=2.0, dt=1e-2)
        sim = Simulation(cfg)
        sim.run(n_steps=1)
        res = sim.history[-1]
        assert sim._nonfinite_quantity(res) is None
        sim.scalar.temperature[0, 0, 0, 0] = np.inf
        assert sim._nonfinite_quantity(res) == "temperature field"
        sim.scalar.temperature[0, 0, 0, 0] = 0.0
        bad = type(res)(**{**res.__dict__, "divergence": np.nan})
        assert sim._nonfinite_quantity(bad) == "divergence"
        bad = type(res)(**{**res.__dict__, "kinetic_energy": np.inf})
        assert sim._nonfinite_quantity(bad) == "kinetic energy"
