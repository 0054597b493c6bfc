"""GPU-cluster scheduling substrate.

The paper runs ingest workers per stream and parallelizes query work
across machines with idle GPUs (Section 5).  This package models the
cluster: GPU devices with calibrated throughput, a scheduler with
per-device work queues that turns GPU-seconds of classification work
into wall-clock time, and the two dispatchers that share it -- ingest
CNN batches (:class:`IngestDispatcher`) and query-time GT verification
(:class:`QueryCoordinator`), which contend for the same queues.
"""

from repro.sched.gpu import GPUDevice
from repro.sched.cluster import (
    DispatchReport,
    GPUCluster,
    IngestDispatcher,
    QueryCoordinator,
    ScheduledWork,
    WorkItem,
)

__all__ = [
    "GPUDevice",
    "GPUCluster",
    "WorkItem",
    "ScheduledWork",
    "DispatchReport",
    "IngestDispatcher",
    "QueryCoordinator",
]
