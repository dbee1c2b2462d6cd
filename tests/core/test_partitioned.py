"""The one Simulation on simulated ranks agrees with the serial run.

A partitioned run sums every dssum in holder-rank order and every inner
product rank by rank, so it is not bitwise equal to the serial run; the
bar is the serial run's own sensitivity.  Measured on the 4x4x4 lx 6 box at
Ra 1e5 over the 10 steps below, halving ``pressure_tol`` moves the serial
run by 1.8e-10 in Nu_vol, 3.4e-9 in kinetic energy (both relative) and
4.6e-10 in max |dT|, and lifts the mean pressure iterations from 33.1 to
36.1.  The runs on 1, 2 and 8 ranks read at most 6.9e-11, 8.7e-11 and
1.2e-10, at 33.0-33.1 iterations.
"""

import numpy as np
import pytest

from repro.comm import DistributedGatherScatter
from repro.core import Simulation, compute_nusselt, distribute, rbc_box_case
from repro.core.overlap import InlineExecutor
from repro.sem.gather_scatter import GatherScatter

N_STEPS = 10
NU_RTOL = 1.8e-10
KE_RTOL = 3.4e-9
T_ATOL = 4.6e-10


def run(nranks=None):
    sim = Simulation(rbc_box_case(1e5))
    if nranks is not None:
        distribute(sim, nranks)
    sim.run(n_steps=N_STEPS)
    return sim


def nusselt(sim):
    cfg = sim.config
    return compute_nusselt(
        sim.space, sim.velocity[2], sim.temperature, cfg.rayleigh, cfg.prandtl
    ).volume


def mean_pressure_iterations(sim):
    return np.mean([r.pressure_iterations for r in sim.history])


@pytest.fixture(scope="module")
def serial():
    return run()


@pytest.mark.parametrize("nranks", [1, 2, 8])
def test_partitioned_run_matches_serial(serial, nranks):
    sim = run(nranks)
    assert isinstance(sim.space.gs, DistributedGatherScatter)
    assert nusselt(sim) == pytest.approx(nusselt(serial), rel=NU_RTOL, abs=0)
    ke, ke_serial = sim.history[-1].kinetic_energy, serial.history[-1].kinetic_energy
    assert ke == pytest.approx(ke_serial, rel=KE_RTOL, abs=0)
    assert np.max(np.abs(sim.temperature - serial.temperature)) <= T_ATOL
    assert mean_pressure_iterations(sim) == pytest.approx(
        mean_pressure_iterations(serial), rel=0.01
    )
    # Every dssum of the step went through the ranks' exchange.
    assert sim.space.gs.calls > 0
    assert sim.space.gs.world.stats.allreduce_calls > 0
    if nranks > 1:
        assert sim.space.gs.world.stats.p2p_messages > 0


def test_stepping_never_reaches_the_serial_gather_scatter():
    # The solvers reduce through ``space.dot`` and assemble through
    # ``space.gs.add``, so after the swap no step touches the serial
    # operator the schemes were built with.
    sim = Simulation(rbc_box_case(1e4, n=(2, 2, 2), lx=4, dt=0.02))
    serial_gs = sim.space.gs
    assert isinstance(serial_gs, GatherScatter)
    dgs = distribute(sim, 4)
    assert sim.space.gs is dgs

    def unreachable(*args):
        raise AssertionError("the serial gather-scatter was used after the swap")

    serial_gs.add = serial_gs.dot = unreachable
    sim.run(n_steps=2)
    assert dgs.calls > 0
    assert dgs.world.stats.allreduce_calls > sum(r.pressure_iterations for r in sim.history)


def test_partitioned_run_steps_inline(monkeypatch):
    # The rank world is single-threaded: a field large enough for the step
    # worker still steps on the calling thread once distributed.
    import repro.core.simulation as simulation

    monkeypatch.setattr(simulation, "step_executor", lambda points, tracer: _Sentinel())
    sim = Simulation(rbc_box_case(1e4, n=(2, 2, 2), lx=4, dt=0.02))
    worker = sim.executor
    distribute(sim, 2)
    assert isinstance(sim.executor, InlineExecutor)
    assert worker.shut_down
    sim.run(n_steps=1)
    assert not worker.submitted


class _Sentinel:
    """Stands in for the step worker: records a shutdown, refuses work."""

    def __init__(self):
        self.shut_down = False
        self.submitted = False

    def submit(self, fn, *args):
        self.submitted = True
        raise AssertionError("a partitioned run submitted to the step worker")

    def shutdown(self):
        self.shut_down = True
