"""Tests for the in-situ pipeline, streaming POD and processors."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import SpectralCompressor
from repro.insitu import (
    CompressionProcessor,
    InSituPipeline,
    PODProcessor,
    Processor,
    RunningStatsProcessor,
    StreamingPOD,
    direct_pod,
)
from repro.sem.mesh import box_mesh
from repro.sem.space import FunctionSpace


class Collector(Processor):
    name = "collect"

    def __init__(self):
        self.items = []
        self.finalized = False

    def process(self, tag, array, sim_time):
        self.items.append((tag, array.copy(), sim_time))

    def finalize(self):
        self.finalized = True


class TestPipeline:
    def test_basic_flow(self):
        c = Collector()
        with InSituPipeline([c]) as pipe:
            for i in range(5):
                pipe.put("ux", np.full(3, float(i)), sim_time=i * 0.1)
        assert len(c.items) == 5
        assert c.items[3][0] == "ux"
        assert np.allclose(c.items[3][1], 3.0)
        assert c.finalized

    def test_stats_counts(self):
        c = Collector()
        pipe = InSituPipeline([c]).open()
        a = np.zeros(10)
        pipe.put("t", a)
        pipe.put("t", a)
        stats = pipe.close()
        assert stats.items == 2
        assert stats.bytes_in == 2 * a.nbytes
        assert "collect" in stats.processor_time

    def test_put_copies_data(self):
        c = Collector()
        with InSituPipeline([c]) as pipe:
            a = np.ones(4)
            pipe.put("x", a)
            a[:] = 99.0
        assert np.allclose(c.items[0][1], 1.0)

    def test_backpressure_blocks_producer_at_max_queue(self):
        gate = threading.Event()

        class Gated(Processor):
            name = "gated"

            def process(self, tag, array, sim_time):
                gate.wait(timeout=10.0)

        pipe = InSituPipeline([Gated()], max_queue=2).open()
        returned = []

        def produce():
            for i in range(3):
                pipe.put("x", np.zeros(2))
                returned.append(i)

        t = threading.Thread(target=produce)
        t.start()
        try:
            deadline = time.monotonic() + 10.0
            while len(returned) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.1)
            assert returned == [0, 1]  # the third put waits on the oldest snapshot
        finally:
            gate.set()
        t.join(timeout=10.0)
        assert not t.is_alive()
        stats = pipe.close()
        assert returned == [0, 1, 2]
        assert stats.producer_wait > 0
        assert stats.items == 3

    def test_processor_error_surfaces_on_close(self):
        class Boom(Processor):
            name = "boom"

            def process(self, tag, array, sim_time):
                raise RuntimeError("bad")

        pipe = InSituPipeline([Boom()]).open()
        pipe.put("x", np.zeros(1))
        with pytest.raises(RuntimeError, match="in-situ processor failed"):
            pipe.close()

    def test_put_before_open_raises(self):
        pipe = InSituPipeline([Collector()])
        with pytest.raises(RuntimeError):
            pipe.put("x", np.zeros(1))

    def test_double_open_raises(self):
        pipe = InSituPipeline([Collector()]).open()
        with pytest.raises(RuntimeError):
            pipe.open()
        pipe.close()

    def test_worker_runs_off_thread(self):
        seen = []

        class Who(Processor):
            name = "who"

            def process(self, tag, array, sim_time):
                seen.append(threading.current_thread())

        with InSituPipeline([Who()]) as pipe:
            pipe.put("x", np.zeros(1))
        assert len(seen) == 1
        assert seen[0] is not threading.current_thread()


def snapshots_matrix(n_dofs=60, n_snaps=25, rank=4, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(n_dofs, rank)))[0]
    coeffs = rng.normal(size=(rank, n_snaps)) * np.geomspace(10, 1, rank)[:, None]
    x = u @ coeffs
    if noise:
        x = x + noise * rng.normal(size=x.shape)
    return x


class TestStreamingPOD:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StreamingPOD(0)
        with pytest.raises(ValueError):
            StreamingPOD(2, batch_size=0)

    def test_exact_rank_recovery(self):
        x = snapshots_matrix(rank=3)
        pod = StreamingPOD(n_modes=3, batch_size=5)
        for j in range(x.shape[1]):
            pod.push(x[:, j])
        pod.finalize()
        u_ref, s_ref = direct_pod(x, 3)
        assert np.allclose(np.sort(pod.singular_values), np.sort(s_ref), rtol=1e-8)
        # Subspaces agree: projector difference is small.
        p1 = pod.modes @ pod.modes.T
        p2 = u_ref @ u_ref.T
        assert np.linalg.norm(p1 - p2) < 1e-8

    def test_noisy_data_close_to_direct(self):
        x = snapshots_matrix(rank=4, noise=0.05, n_snaps=40)
        pod = StreamingPOD(n_modes=4, batch_size=8)
        for j in range(x.shape[1]):
            pod.push(x[:, j])
        pod.finalize()
        _, s_ref = direct_pod(x, 4)
        assert np.allclose(pod.singular_values, s_ref, rtol=0.05)

    def test_weighted_orthonormality(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(0.5, 2.0, size=60)
        x = snapshots_matrix(rank=3)
        pod = StreamingPOD(n_modes=3, batch_size=4, weight=w)
        for j in range(x.shape[1]):
            pod.push(x[:, j])
        pod.finalize()
        m = pod.modes
        gram = m.T @ (w[:, None] * m)
        assert np.allclose(gram, np.eye(3), atol=1e-10)

    def test_project_reconstruct_roundtrip(self):
        x = snapshots_matrix(rank=2)
        pod = StreamingPOD(n_modes=2, batch_size=25)
        for j in range(x.shape[1]):
            pod.push(x[:, j])
        pod.finalize()
        snap = x[:, 7]
        rec = pod.reconstruct(pod.project(snap))
        assert np.allclose(rec, snap, atol=1e-8)

    def test_memory_bound_rank(self):
        x = snapshots_matrix(rank=6, n_snaps=50)
        pod = StreamingPOD(n_modes=2, batch_size=5)
        for j in range(x.shape[1]):
            pod.push(x[:, j])
        pod.finalize()
        assert pod.modes.shape[1] == 2

    def test_access_before_data_raises(self):
        pod = StreamingPOD(2)
        with pytest.raises(RuntimeError):
            _ = pod.modes


@settings(max_examples=15, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=12),
    rank=st.integers(min_value=1, max_value=4),
)
def test_property_streaming_pod_matches_direct(batch, rank):
    """Property: for low-rank data the streaming result is batch-invariant."""
    x = snapshots_matrix(rank=rank, n_snaps=20, seed=rank)
    pod = StreamingPOD(n_modes=rank, batch_size=batch)
    for j in range(x.shape[1]):
        pod.push(x[:, j])
    pod.finalize()
    _, s_ref = direct_pod(x, rank)
    assert np.allclose(pod.singular_values, s_ref, rtol=1e-6)


class TestProcessors:
    @pytest.fixture(scope="class")
    def sp(self):
        return FunctionSpace(box_mesh((2, 1, 1)), 5)

    def test_compression_processor(self, sp):
        proc = CompressionProcessor(SpectralCompressor(sp, error_bound=0.02))
        u = np.sin(2 * np.pi * sp.x) * np.cos(np.pi * sp.z)
        with InSituPipeline([proc]) as pipe:
            for i in range(3):
                pipe.put("ux", u * (i + 1), sim_time=0.1 * i)
        assert len(proc.compressed) == 3
        assert proc.overall_reduction > 0.5
        assert proc.compressed[1].time == pytest.approx(0.1)

    def test_running_stats(self):
        proc = RunningStatsProcessor()
        data = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])]
        with InSituPipeline([proc]) as pipe:
            for d in data:
                pipe.put("t", d)
        assert np.allclose(proc.mean("t"), [3.0, 4.0])
        assert np.allclose(proc.variance("t"), [4.0, 4.0])
        assert proc.count("t") == 3

    def test_pod_processor_filters_by_tag(self):
        pod = StreamingPOD(n_modes=1, batch_size=2)
        proc = PODProcessor(pod, tag="temperature")
        with InSituPipeline([proc]) as pipe:
            pipe.put("temperature", np.array([1.0, 0.0]))
            pipe.put("junk", np.array([0.0, 5.0]))
            pipe.put("temperature", np.array([2.0, 0.0]))
        assert pod.n_seen == 2
        # The single mode is e_0: junk never entered.
        m = pod.modes[:, 0]
        assert abs(abs(m[0]) - 1.0) < 1e-10
