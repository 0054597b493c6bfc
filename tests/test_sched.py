"""Unit tests for the GPU-cluster scheduling substrate."""

import pytest

from repro.cnn.zoo import resnet152
from repro.sched.cluster import GPUCluster, QueryCoordinator, WorkItem
from repro.sched.gpu import GPUDevice


class TestDevice:
    def test_submit_accumulates(self):
        dev = GPUDevice()
        done = dev.submit(2.0)
        assert done == 2.0
        assert dev.submit(1.0) == 3.0
        assert dev.busy_seconds == 3.0

    def test_not_before(self):
        dev = GPUDevice()
        assert dev.submit(1.0, not_before=5.0) == 6.0

    def test_negative_work(self):
        with pytest.raises(ValueError):
            GPUDevice().submit(-1.0)


class TestCluster:
    def test_work_spreads_across_gpus(self):
        cluster = GPUCluster(4)
        end = cluster.run([WorkItem(1.0) for _ in range(8)])
        assert end == pytest.approx(2.0)

    def test_single_gpu_serializes(self):
        cluster = GPUCluster(1)
        end = cluster.run([WorkItem(1.0) for _ in range(3)])
        assert end == pytest.approx(3.0)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            GPUCluster(0)


class TestQueryCoordinator:
    def test_parallelism_shrinks_latency(self):
        gt = resnet152()
        small = QueryCoordinator(GPUCluster(1)).latency(gt, 640)
        big = QueryCoordinator(GPUCluster(10)).latency(gt, 640)
        assert big < small
        assert big == pytest.approx(small / 10.0, rel=0.3)

    def test_zero_centroids(self):
        assert QueryCoordinator(GPUCluster(4)).latency(resnet152(), 0) == 0.0

    def test_two_minute_headline(self):
        """Paper Section 6.2: on a 10-GPU cluster, querying 24 h of
        video drops from ~1 hour (Query-all) to under 2 minutes."""
        gt = resnet152()
        # Query-all on 24h: ~276k detected objects (the paper's ~280
        # GPU-hour/month workload scaled down by motion filtering)
        query_all_objects = 276_000
        query_all_latency = QueryCoordinator(GPUCluster(10)).latency(gt, query_all_objects)
        # Focus verifies ~37x fewer centroids
        focus_latency = QueryCoordinator(GPUCluster(10)).latency(gt, query_all_objects // 37)
        assert query_all_latency > 300
        assert focus_latency < 120

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryCoordinator(GPUCluster(1), batch_size=0)
        with pytest.raises(ValueError):
            QueryCoordinator(GPUCluster(1)).latency(resnet152(), -1)


class TestCloneIdle:
    def test_clone_carries_every_knob(self):
        from repro.sched.cluster import DEFAULT_GPU

        cluster = GPUCluster(3, max_queue_history=7)
        clone = cluster.clone_idle()
        assert clone is not cluster
        assert clone.num_gpus == 3
        assert clone.spec == DEFAULT_GPU
        assert clone.max_queue_history == 7
        assert clone.total_busy_seconds == 0.0

    def test_clone_history_bound_enforced(self):
        # regression: the old what-if clones dropped max_queue_history,
        # so a tuned bound silently reverted to the 256 default
        cluster = GPUCluster(1, max_queue_history=2)
        clone = cluster.clone_idle()
        for i in range(5):
            clone.submit(WorkItem(gpu_seconds=0.1, label="w%d" % i))
        assert len(clone.queues[0]) == 2

    def test_latency_does_not_mutate(self):
        cluster = GPUCluster(2, max_queue_history=3)
        cluster.submit(WorkItem(gpu_seconds=1.0, label="live"))
        busy = cluster.total_busy_seconds
        queues = {k: list(v) for k, v in cluster.queues.items()}
        coordinator = QueryCoordinator(cluster)
        assert coordinator.latency(resnet152(), 100) > 0
        assert cluster.total_busy_seconds == busy
        assert {k: list(v) for k, v in cluster.queues.items()} == queues
