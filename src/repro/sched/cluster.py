"""Multi-GPU cluster scheduling.

Models the paper's query-time cluster (Section 5: "We parallelize a
query's work across many worker processes if resources are idle") with
real per-GPU work queues: every submitted :class:`WorkItem` is assigned
to the earliest-free device, appended to that device's queue with its
start/end times, and advances the cluster clock.  A batch of items
dispatched together reports when it started and when its last item
ends -- the wall-clock latency the paper measures.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.cnn.costs import GPUSpec, DEFAULT_GPU
from repro.cnn.model import ClassifierModel
from repro.sched.gpu import GPUDevice


@dataclass(frozen=True)
class WorkItem:
    """A batch of classification work."""

    gpu_seconds: float
    label: str = ""


@dataclass(frozen=True)
class ScheduledWork:
    """One work item placed on a specific device's queue."""

    item: WorkItem
    device_id: int
    start: float
    end: float


@dataclass(frozen=True)
class DispatchReport:
    """Outcome of dispatching one batch of items onto the cluster."""

    scheduled: List[ScheduledWork]
    start: float
    end: float

    @property
    def gpu_seconds(self) -> float:
        return sum(s.item.gpu_seconds for s in self.scheduled)


def batch_work_items(
    model: ClassifierModel,
    num_inferences: int,
    batch_size: int,
    spec: GPUSpec,
    label: str = "",
) -> List[WorkItem]:
    """Split ``num_inferences`` classifications into fixed-size GPU
    batch WorkItems (shared by ingest and query dispatchers)."""
    if num_inferences < 0:
        raise ValueError("num_inferences must be non-negative")
    items = []
    for start in range(0, num_inferences, batch_size):
        n = min(batch_size, num_inferences - start)
        items.append(WorkItem(gpu_seconds=model.cost_seconds(n, spec), label=label))
    return items


class GPUCluster:
    """A pool of identical GPUs with per-device work queues.

    Scheduling is greedy earliest-free: each submitted item goes to the
    device that frees up soonest.  Queues persist across dispatches so
    back-to-back query batches contend for the same devices, which is
    what makes concurrent-query batching (``repro.serve``) meaningful.
    """

    def __init__(
        self,
        num_gpus: int,
        spec: GPUSpec = DEFAULT_GPU,
        max_queue_history: int = 256,
    ):
        if num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        if max_queue_history < 1:
            raise ValueError("max_queue_history must be >= 1")
        self.devices = [GPUDevice(spec=spec, device_id=i) for i in range(num_gpus)]
        #: per-device FIFO of recent work; bounded so a long-lived
        #: service does not retain every item ever dispatched
        self.max_queue_history = max_queue_history
        self.queues: Dict[int, List[ScheduledWork]] = {
            d.device_id: [] for d in self.devices
        }

    def clone_idle(self) -> "GPUCluster":
        """A fresh, idle cluster with this cluster's exact shape.

        Non-mutating what-if scheduling
        (:meth:`QueryCoordinator.latency`) runs on a clone so the live
        queues stay untouched; the clone must carry *every* configured
        knob -- ``num_gpus``, ``spec`` and ``max_queue_history`` -- or a
        tuned bound silently reverts to the default mid-estimate.
        """
        return GPUCluster(
            self.num_gpus, self.spec, max_queue_history=self.max_queue_history
        )

    def _enqueue(self, device_id: int, work: ScheduledWork) -> None:
        queue = self.queues[device_id]
        queue.append(work)
        if len(queue) > self.max_queue_history:
            del queue[: len(queue) - self.max_queue_history]

    @property
    def num_gpus(self) -> int:
        return len(self.devices)

    @property
    def spec(self) -> GPUSpec:
        return self.devices[0].spec

    @property
    def now(self) -> float:
        """Earliest time a new item could start (min over device clocks)."""
        return min(d.busy_until for d in self.devices)

    def submit(self, item: WorkItem, not_before: float = 0.0) -> ScheduledWork:
        """Queue one item on the earliest-free device."""
        device = min(self.devices, key=lambda d: (d.busy_until, d.device_id))
        start = max(device.busy_until, not_before)
        end = device.submit(item.gpu_seconds, not_before=not_before)
        work = ScheduledWork(item=item, device_id=device.device_id, start=start, end=end)
        self._enqueue(device.device_id, work)
        return work

    def dispatch(
        self, items: Sequence[WorkItem], not_before: float = 0.0
    ) -> DispatchReport:
        """Queue a batch of items; report its makespan.

        The batch's start is the moment the first item could begin
        (devices may still be draining earlier dispatches).
        """
        start = max(self.now, not_before)
        scheduled = [self.submit(item, not_before=not_before) for item in items]
        end = max((s.end for s in scheduled), default=start)
        return DispatchReport(scheduled=scheduled, start=start, end=end)

    def run(self, items: Iterable[WorkItem], start_time: float = 0.0) -> float:
        """Schedule items greedily; returns the makespan end time."""
        heap = [(d.busy_until, d.device_id) for d in self.devices]
        heapq.heapify(heap)
        by_id = {d.device_id: d for d in self.devices}
        end = start_time
        for item in items:
            free_at, device_id = heapq.heappop(heap)
            device = by_id[device_id]
            start = max(free_at, start_time)
            done = device.submit(item.gpu_seconds, not_before=start)
            self._enqueue(
                device_id,
                ScheduledWork(item=item, device_id=device_id, start=start, end=done),
            )
            heapq.heappush(heap, (done, device_id))
            end = max(end, done)
        return end

    @property
    def total_busy_seconds(self) -> float:
        return sum(d.busy_seconds for d in self.devices)

    def queue_depth(self) -> float:
        """Seconds of committed work still queued past the earliest-free
        clock (a point-in-time backlog gauge: 0 on a drained or
        perfectly balanced pool, positive while dispatches are still
        draining behind the front of the queues)."""
        now = self.now
        return sum(max(0.0, d.busy_until - now) for d in self.devices)

    def counters(self) -> Dict[str, float]:
        """Per-cluster scheduling totals for multi-node observability.

        ``gpus`` and ``busy-gpu-seconds`` add across clusters (a sharded
        fabric gives every shard its own cluster and sums them into a
        fleet view); ``utilization`` and ``queue-depth`` are per-cluster
        levels and must be read per node, never summed.  The front
        door's ingest backpressure (``repro.serve.frontdoor``) keys off
        the monotone ``busy-gpu-seconds`` total sampled per shard.
        """
        return {
            "gpus": float(self.num_gpus),
            "busy-gpu-seconds": float(self.total_busy_seconds),
            "utilization": self.utilization(),
            "queue-depth": self.queue_depth(),
        }

    def utilization(self) -> float:
        """Busy fraction across the pool up to the latest device clock."""
        horizon = max(d.busy_until for d in self.devices)
        if horizon <= 0:
            return 0.0
        return self.total_busy_seconds / (horizon * self.num_gpus)


class IngestDispatcher:
    """Submits ingest-CNN batches onto a (shared) GPU cluster.

    Live ingest is continuous, so its cheap-CNN work is not free: when
    the dispatcher is given the same :class:`GPUCluster` the query
    coordinator uses, ingest chunks and query verification contend for
    the same per-device work queues -- the contention Section 6.3 of the
    paper measures when queries arrive on a machine that is also
    ingesting.
    """

    def __init__(self, cluster: GPUCluster, batch_size: int = 64):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.cluster = cluster
        self.batch_size = batch_size

    def batch_items(
        self, model: ClassifierModel, num_inferences: int, label: str = ""
    ) -> List[WorkItem]:
        """Split a chunk's CNN inferences into GPU batch WorkItems."""
        return batch_work_items(
            model, num_inferences, self.batch_size, self.cluster.spec, label
        )

    def dispatch(
        self, model: ClassifierModel, num_inferences: int, stream: str = ""
    ) -> DispatchReport:
        """Queue one ingest chunk's CNN work; mutates the cluster queues."""
        label = "ingest stream=%s" % stream if stream else "ingest"
        return self.cluster.dispatch(self.batch_items(model, num_inferences, label))


class QueryCoordinator:
    """Fans verification work out over the cluster in GPU batches."""

    def __init__(self, cluster: GPUCluster, batch_size: int = 32):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.cluster = cluster
        self.batch_size = batch_size

    def batch_items(
        self, gt_model: ClassifierModel, num_centroids: int, label: str = ""
    ) -> List[WorkItem]:
        """Split ``num_centroids`` GT verifications into batch WorkItems."""
        return batch_work_items(
            gt_model, num_centroids, self.batch_size, self.cluster.spec, label
        )

    def dispatch(
        self, gt_model: ClassifierModel, num_centroids: int, label: str = ""
    ) -> DispatchReport:
        """Queue ``num_centroids`` verifications on the shared cluster.

        Unlike :meth:`latency`, this mutates the cluster's queues: a
        second dispatch issued while the first is still draining starts
        behind it, exactly like concurrent queries contending for GPUs.
        """
        return self.cluster.dispatch(self.batch_items(gt_model, num_centroids, label))

    def latency(self, gt_model: ClassifierModel, num_centroids: int) -> float:
        """Wall-clock seconds to verify ``num_centroids`` on an idle
        cluster (non-mutating; runs on a fresh clone)."""
        items = self.batch_items(gt_model, num_centroids)
        if not items:
            return 0.0
        return self.cluster.clone_idle().run(items)
