"""The measurement spine: the repo's benchmark (see ``README.md`` here).

Four workloads, end-to-end metrics from an untraced pass and per-layer
metrics from a traced pass whose spans are recorded *from outside*, by
wrapping public callables on the live solver objects.  Nothing under
``src/`` is edited and ``repro.observability`` tracing stays off.

Entry points (both run :func:`benchmarks.spine.run.main`)::

    python3 benchmarks/spine/run.py --workload rbc_nu_p5 --seed 0 --seconds 20 --trace 0
    python3 -m benchmarks.spine --seed 0 --out bench_out/spine
"""
