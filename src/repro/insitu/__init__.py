"""Asynchronous in-situ data analysis (Section 5.2).

The paper streams simulation data through ADIOS2 to Python post-processing
running on the otherwise-idle CPUs while the GPUs advance the solution.
The equivalent here is an in-process producer/consumer pipeline: the
simulation thread hands snapshots to a worker thread (a
:class:`~repro.core.overlap.WorkerExecutor`), which runs them through
registered processors -- the bundled ones being streaming POD (the
split-and-merge partitioned method of snapshots of refs. [18, 26]),
running statistics, and the lossy compressor as a processor.
"""

from repro.insitu.pipeline import InSituPipeline, Processor, PipelineStats
from repro.insitu.pod import StreamingPOD, direct_pod
from repro.insitu.processors import CompressionProcessor, RunningStatsProcessor, PODProcessor

__all__ = [
    "InSituPipeline",
    "Processor",
    "PipelineStats",
    "StreamingPOD",
    "direct_pod",
    "CompressionProcessor",
    "RunningStatsProcessor",
    "PODProcessor",
]
