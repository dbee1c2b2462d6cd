"""The step's worker thread: same bits, the size rule, failures and lifetime."""

import gc
import os
import threading
import time

import numpy as np
import pytest

from repro.core import Simulation, rbc_box_case
from repro.core.overlap import (
    BLAS_THREAD_VARS,
    MIN_OVERLAP_POINTS,
    InlineExecutor,
    WorkerExecutor,
    blas_threads,
    step_executor,
)
from repro.resilience import ResilientRunner


def _two_cores(monkeypatch, blas="1"):
    """Two usable cores, BLAS on ``blas`` threads (unset when ``None``)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    if blas is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)


def _box(n, lx):
    return rbc_box_case(1e5, n=n, lx=lx, aspect=1.0, perturbation_amplitude=0.1)


def _run(sim, steps):
    calls = sim.space.gs.calls
    sim.run(n_steps=steps, stats_interval=1)
    return sim.space.gs.calls - calls


def test_worker_steps_equal_inline_steps_bitwise(monkeypatch):
    _two_cores(monkeypatch)
    threaded = Simulation(_box((4, 4, 2), 8))
    assert isinstance(threaded.executor, WorkerExecutor)
    inline = Simulation(_box((4, 4, 2), 8))
    inline.executor = InlineExecutor()

    assert _run(threaded, 5) == _run(inline, 5)
    assert threaded.history == inline.history  # iterations, KE, CFL, divergence
    assert [s.nusselt for s in threaded.stat_samples] == [s.nusselt for s in inline.stat_samples]
    a, b = threaded.state_arrays(), inline.state_arrays()
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), key


class TestPolicy:
    def test_small_fields_run_inline(self, monkeypatch):
        _two_cores(monkeypatch)
        sim = Simulation(_box((3, 3, 3), 6))  # the rbc_nu_p5 mesh: 5,832 points
        assert isinstance(sim.executor, InlineExecutor)

    def test_one_core_runs_inline(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert isinstance(step_executor(4 * MIN_OVERLAP_POINTS), InlineExecutor)

    def test_large_fields_on_two_cores_get_the_worker(self, monkeypatch):
        _two_cores(monkeypatch)
        assert isinstance(step_executor(MIN_OVERLAP_POINTS - 1), InlineExecutor)
        assert isinstance(step_executor(MIN_OVERLAP_POINTS), WorkerExecutor)
        assert isinstance(step_executor(40_960), WorkerExecutor)  # rbc_cyl_p7

    def test_the_worker_needs_a_core_beside_blas(self, monkeypatch):
        _two_cores(monkeypatch, blas="2")
        assert isinstance(step_executor(40_960), InlineExecutor)
        _two_cores(monkeypatch, blas=None)  # OpenBLAS's default: every core
        assert blas_threads() == 2
        assert isinstance(step_executor(40_960), InlineExecutor)
        monkeypatch.setenv("MKL_NUM_THREADS", "1")
        assert isinstance(step_executor(40_960), WorkerExecutor)

    def test_blas_threads_reads_the_first_variable_set(self, monkeypatch):
        _two_cores(monkeypatch, blas=None)
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.setenv("MKL_NUM_THREADS", "4")
        assert blas_threads() == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert blas_threads() == 3
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")  # empty counts as unset
        assert blas_threads() == 1


class _FailingFluidStep:
    """Stand-in for ``fluid.step`` that raises on call number ``fail_on``."""

    def __init__(self, step, fail_on, log):
        self.step, self.fail_on, self.log, self.calls = step, fail_on, log, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.fail_on:
            self.log.append("fluid raised")
            raise FloatingPointError("injected fluid failure")
        return self.step(*args, **kwargs)


def _slow_scalar_step(step, log):
    def slow(*args, **kwargs):
        time.sleep(0.1)  # still running when the fluid step raises
        result = step(*args, **kwargs)
        log.append("scalar done")
        return result

    return slow


def test_failed_fluid_step_joins_the_scalar_step_first():
    sim = Simulation(_box((2, 2, 2), 4))
    sim.executor = WorkerExecutor()
    log: list[str] = []
    try:
        sim.fluid.step = _FailingFluidStep(sim.fluid.step, 1, log)
        sim.scalar.step = _slow_scalar_step(sim.scalar.step, log)
        with pytest.raises(FloatingPointError, match="injected"):
            sim.step()
        assert log == ["fluid raised", "scalar done"]
    finally:
        sim.executor.shutdown()


def test_resilient_runner_restores_after_the_join():
    sim = Simulation(_box((2, 2, 2), 4))
    sim.executor = WorkerExecutor()
    log: list[str] = []
    load_state = sim.load_state

    def logged_load_state(arrays):
        log.append("restored")
        load_state(arrays)

    try:
        sim.fluid.step = _FailingFluidStep(sim.fluid.step, 3, log)
        sim.scalar.step = _slow_scalar_step(sim.scalar.step, log)
        sim.load_state = logged_load_state
        result = ResilientRunner(sim, checkpoint_interval=2).run(n_steps=4)
    finally:
        sim.executor.shutdown()
    assert result.recovered
    assert sim.step_count == 4
    i = log.index("fluid raised")
    assert log[i : i + 3] == ["fluid raised", "scalar done", "restored"]


def test_worker_thread_ends_with_the_simulation(monkeypatch):
    # Follows the one thread this simulation started, not the process's
    # thread count, which other libraries may change meanwhile.
    _two_cores(monkeypatch)
    before = set(threading.enumerate())
    sim = Simulation(_box((4, 4, 2), 8))
    sim.step()
    (worker,) = [
        t for t in set(threading.enumerate()) - before if t.name.startswith("repro-step")
    ]
    del sim
    gc.collect()
    worker.join(timeout=10.0)
    assert not worker.is_alive()
