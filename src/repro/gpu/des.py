"""The discrete-event simulator: host threads, streams, device scheduler.

Model
-----
* Each **host thread** executes a linear program of ops: kernel launches
  (host busy for the API overhead, then the kernel is handed to a stream),
  host compute, stream synchronization, host-blocking MPI (allreduce /
  halo wait) and thread barriers.
* Each **stream** is a FIFO: its kernels start in order, but kernels from
  *different* streams may overlap on the device subject to an occupancy
  budget (total occupancy <= 1).
* The **device scheduler** starts pending kernels either in priority order
  (stream priorities, as the paper configures on NVIDIA) or in strict
  arrival order (head-of-line blocking -- what happens on NVIDIA without
  priorities; AMD behaves like the priority scheduler regardless).

The simulator records every interval (host API, host compute, MPI, device
kernels) so traces akin to the paper's Fig. 2 Nsight timeline can be
rendered in text and asserted on in tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.perfmodel.machine import GpuModel

__all__ = [
    "Launch",
    "HostCompute",
    "StreamSync",
    "AllReduce",
    "Barrier",
    "HostProgram",
    "TraceInterval",
    "DeviceSimulator",
]


# -- host ops -----------------------------------------------------------------


@dataclass(frozen=True)
class Launch:
    """Launch a kernel onto a stream."""

    kernel: str
    stream: int
    duration_us: float
    occupancy: float = 0.85


@dataclass(frozen=True)
class HostCompute:
    """Host-side CPU work (packing buffers, small host solves)."""

    label: str
    duration_us: float


@dataclass(frozen=True)
class StreamSync:
    """Block the host thread until the stream has drained."""

    stream: int


@dataclass(frozen=True)
class AllReduce:
    """Host-blocking MPI operation (reduction or halo wait)."""

    label: str
    duration_us: float


@dataclass(frozen=True)
class Barrier:
    """OpenMP-style barrier across all host threads."""

    tag: str = "omp"


HostOp = Launch | HostCompute | StreamSync | AllReduce | Barrier


@dataclass
class HostProgram:
    """One host thread's op sequence."""

    thread_id: int
    ops: list[HostOp] = field(default_factory=list)


@dataclass(frozen=True)
class TraceInterval:
    """One bar of the timeline."""

    lane: str  # "host0", "stream1", "mpi0", ...
    name: str
    start_us: float
    end_us: float
    kind: str  # "api", "host", "kernel", "mpi", "barrier"

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us


@dataclass
class _PendingKernel:
    kernel: str
    stream: int
    duration: float
    occupancy: float
    arrival: float
    seq: int


class DeviceSimulator:
    """Event-driven execution of host programs against one GPU model.

    Parameters
    ----------
    device:
        Timing model of the GPU.
    stream_priorities:
        ``stream -> priority`` (higher runs first).  An empty mapping means
        all streams share the default priority.
    use_priorities:
        Explicitly control the scheduler mode; defaults to
        ``True`` when any priority was set or when the device does not
        require priorities for concurrency (the AMD behaviour).
    """

    def __init__(
        self,
        device: GpuModel,
        stream_priorities: dict[int, int] | None = None,
        use_priorities: bool | None = None,
    ) -> None:
        self.device = device
        self.priorities = dict(stream_priorities or {})
        if use_priorities is None:
            use_priorities = bool(self.priorities) or not device.requires_priority_for_concurrency
        self.use_priorities = use_priorities
        self.trace: list[TraceInterval] = []

    # -- public API ---------------------------------------------------------

    def run(self, programs: list[HostProgram]) -> float:
        """Execute the programs; returns the makespan in microseconds."""
        self.trace = []
        now = 0.0
        seq = 0
        events: list[tuple[float, int, str, object]] = []

        # Per-thread state.
        pc = {p.thread_id: 0 for p in programs}
        progs = {p.thread_id: p for p in programs}
        blocked: dict[int, tuple[str, object]] = {}

        # Device state.
        pending: list[_PendingKernel] = []
        running: list[tuple[float, _PendingKernel]] = []  # (end, k)
        capacity = 1.0
        outstanding: dict[int, int] = {}

        barrier_waiting: dict[str, set[int]] = {}
        n_threads = len(programs)

        def push(t: float, kind: str, payload: object) -> None:
            nonlocal seq
            heapq.heappush(events, (t, seq, kind, payload))
            seq += 1

        def try_schedule(t: float) -> None:
            nonlocal capacity
            changed = True
            while changed:
                changed = False
                avail = [k for k in pending if k.arrival <= t]
                if not avail:
                    break
                if self.use_priorities:
                    avail.sort(key=lambda k: (-self.priorities.get(k.stream, 0), k.arrival, k.seq))
                else:
                    # Strict arrival order with head-of-line blocking: only
                    # the earliest-arrived kernel may start.
                    avail.sort(key=lambda k: (k.arrival, k.seq))
                    avail = avail[:1]
                for k in avail:
                    # In-order within a stream: a kernel may start only if no
                    # earlier kernel of its stream is pending or running.
                    earlier_pending = any(
                        o.stream == k.stream and o.seq < k.seq for o in pending if o is not k
                    )
                    earlier_running = any(o.stream == k.stream for _, o in running)
                    if earlier_pending or earlier_running:
                        continue
                    if k.occupancy <= capacity + 1e-12:
                        pending.remove(k)
                        capacity -= k.occupancy
                        end = t + k.duration
                        running.append((end, k))
                        self.trace.append(
                            TraceInterval(f"stream{k.stream}", k.kernel, t, end, "kernel")
                        )
                        push(end, "kernel_done", k)
                        changed = True
                        break

        def wake_syncers(t: float) -> None:
            for tid, (why, arg) in list(blocked.items()):
                if why == "sync" and outstanding.get(arg, 0) == 0:
                    del blocked[tid]
                    push(t, "host", tid)

        for p in programs:
            push(0.0, "host", p.thread_id)

        makespan = 0.0
        while events:
            t, _, kind, payload = heapq.heappop(events)
            now = t
            makespan = max(makespan, now)

            if kind == "kernel_done":
                k = payload
                running[:] = [(e, o) for e, o in running if o is not k]
                capacity += k.occupancy
                outstanding[k.stream] -= 1
                try_schedule(now)
                wake_syncers(now)
                makespan = max(makespan, now)
                continue

            if kind == "arrival":
                try_schedule(now)
                continue

            # Host thread ready to run its next op.
            tid = payload
            if tid in blocked:
                continue
            prog = progs[tid]
            if pc[tid] >= len(prog.ops):
                continue
            op = prog.ops[pc[tid]]
            pc[tid] += 1

            if isinstance(op, Launch):
                api_end = now + self.device.launch_overhead_us
                self.trace.append(
                    TraceInterval(f"host{tid}", f"launch:{op.kernel}", now, api_end, "api")
                )
                arrival = api_end + self.device.submit_delay_us
                pending.append(
                    _PendingKernel(
                        op.kernel, op.stream, max(op.duration_us, self.device.min_kernel_us),
                        op.occupancy, arrival, seq,
                    )
                )
                outstanding[op.stream] = outstanding.get(op.stream, 0) + 1
                push(arrival, "arrival", None)
                push(api_end, "host", tid)
            elif isinstance(op, HostCompute):
                end = now + op.duration_us
                self.trace.append(TraceInterval(f"host{tid}", op.label, now, end, "host"))
                push(end, "host", tid)
            elif isinstance(op, StreamSync):
                if outstanding.get(op.stream, 0) == 0:
                    push(now, "host", tid)
                else:
                    blocked[tid] = ("sync", op.stream)
            elif isinstance(op, AllReduce):
                end = now + op.duration_us
                self.trace.append(TraceInterval(f"mpi{tid}", op.label, now, end, "mpi"))
                push(end, "host", tid)
            elif isinstance(op, Barrier):
                waiting = barrier_waiting.setdefault(op.tag, set())
                waiting.add(tid)
                if len(waiting) == n_threads:
                    for other in waiting:
                        blocked.pop(other, None)
                        push(now, "host", other)
                    waiting.clear()
                else:
                    blocked[tid] = ("barrier", op.tag)
            else:  # pragma: no cover - exhaustive
                raise TypeError(f"unknown op {op!r}")

            try_schedule(now)
            wake_syncers(now)

        return makespan

    # -- analysis -------------------------------------------------------------

    def device_busy_time(self) -> float:
        """Union length of all kernel intervals (true device utilization)."""
        ivs = sorted(
            (i.start_us, i.end_us) for i in self.trace if i.kind == "kernel"
        )
        busy = 0.0
        cur_s, cur_e = None, None
        for s, e in ivs:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    busy += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            busy += cur_e - cur_s
        return busy

    def render_timeline(self, width: int = 100, lanes: list[str] | None = None) -> str:
        """ASCII timeline of the trace (one row per lane)."""
        if not self.trace:
            return "<empty trace>"
        t_max = max(i.end_us for i in self.trace)
        if lanes is None:
            lanes = sorted({i.lane for i in self.trace})
        rows = []
        scale = width / t_max if t_max > 0 else 1.0
        for lane in lanes:
            row = [" "] * width
            for iv in self.trace:
                if iv.lane != lane:
                    continue
                a = min(width - 1, int(iv.start_us * scale))
                b = min(width, max(a + 1, int(iv.end_us * scale)))
                ch = {"api": "a", "host": "h", "kernel": "#", "mpi": "M", "barrier": "|"}[iv.kind]
                for c in range(a, b):
                    row[c] = ch
            rows.append(f"{lane:>9s} |{''.join(row)}|")
        rows.append(f"{'':>9s}  0{'':{width - 12}}{t_max:9.1f} us")
        return "\n".join(rows)
