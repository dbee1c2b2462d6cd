"""Independent parts of one time step, run beside each other on two host threads.

The paper's Section 5.3 runs independent work at the same time (OpenMP
threads plus stream priorities).  Within one step of this solver the
explicit coupling makes the temperature step independent of the fluid
step, and the three velocity Helmholtz solves are independent of each
other.  :class:`~repro.core.simulation.Simulation` submits the temperature
step, and :class:`~repro.core.fluid.FluidScheme` the v-component solve, to
a step executor, runs the rest on the calling thread and joins both tasks
before the step returns.  A task does the same arithmetic as the serial
step, reads only inputs that nobody writes while it runs, and no reduction
spans two tasks, so every field and iteration count is bit-identical with
and without the worker.

NumPy releases the interpreter lock inside ``matmul``, ``einsum`` and its
ufunc loops, so the two threads overlap when the arrays are large.  On
small fields the lock changes hands between many tiny NumPy calls, and the
hand-offs cost more than the overlap saves.  :func:`step_executor` therefore
gives a simulation a worker thread only when one field has at least
:data:`MIN_OVERLAP_POINTS` points and the process may run on two cores;
otherwise every task runs inline, when it is submitted.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, TypeVar

from repro.observability.tracer import NULL_TRACER, TracerProtocol

__all__ = [
    "MIN_OVERLAP_POINTS",
    "INLINE",
    "InlineExecutor",
    "WorkerExecutor",
    "usable_cores",
    "step_executor",
]

T = TypeVar("T")

#: Points per field (elements x lx^3) from which a step overlaps its tasks.
#: The size sweep in EXPERIMENTS.md (Fig. 2) reads overlap/serial step time
#: 1.27 at 5,832 points, 0.94-0.98 at 9-14k and 0.80-0.89 from 16,384 on.
MIN_OVERLAP_POINTS = 16_384


class InlineExecutor:
    """Runs each task on the calling thread, when it is submitted.

    An exception leaves :meth:`submit` itself, before the caller runs the
    work it meant to overlap -- the order of the serial step.
    """

    def submit(self, fn: Callable[..., T], *args: Any) -> Future[T]:
        future: Future[T] = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self) -> None:
        """Nothing to release."""


#: The executor of a scheme stepped on its own (no :class:`Simulation`).
INLINE = InlineExecutor()


class WorkerExecutor:
    """One persistent worker thread, started by the first :meth:`submit`.

    A task opens its trace spans as children of the span that was open on
    the submitting thread when it was submitted, so the trace keeps the
    step's hierarchy and shows the worker as a second lane.
    """

    def __init__(self, tracer: TracerProtocol = NULL_TRACER) -> None:
        self.tracer = tracer
        self._pool: ThreadPoolExecutor | None = None

    def submit(self, fn: Callable[..., T], *args: Any) -> Future[T]:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-step")
        return self._pool.submit(self._run, self.tracer.current, fn, *args)

    def _run(self, parent: Any, fn: Callable[..., T], *args: Any) -> T:
        with self.tracer.within(parent):
            return fn(*args)

    def shutdown(self) -> None:
        """Let the worker exit once its queue is empty (it may be idle already)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the OS has one)."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


def step_executor(
    points: int, tracer: TracerProtocol = NULL_TRACER
) -> InlineExecutor | WorkerExecutor:
    """The executor for a simulation whose fields have ``points`` points each."""
    if points >= MIN_OVERLAP_POINTS and usable_cores() >= 2:
        return WorkerExecutor(tracer)
    return InlineExecutor()
