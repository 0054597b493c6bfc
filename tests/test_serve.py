"""Tests for the cross-stream query service (repro.serve).

Covers the acceptance path of the serving subsystem: a class query
fanned across >= 3 ingested streams with batched GT verification, the
verification cache making a repeated query cheaper (asserted via ledger
counts), concurrent-query dedup, cold-start via
``FocusSystem.load_indexes``, and the serving counters surfaced in
``cost_summary()``.
"""

import numpy as np
import pytest

from repro.cnn.zoo import resnet152
from repro.core.costmodel import CostCategory, GPULedger
from repro.core.metrics import grade
from repro.core.system import FocusSystem
from repro.sched.cluster import GPUCluster, QueryCoordinator, WorkItem
from repro.serve.cache import VerificationCache
from repro.serve.planner import QueryRequest
from repro.storage.docstore import DocumentStore
from repro.video.classes import class_id

# the ingested three-camera system itself comes from conftest.py
# (session-scoped ``service_system`` / ``store_with_streams``): tuning +
# ingest is the expensive part and other suites share the same workload
SERVICE_STREAMS = ["lausanne", "auburn_c", "jacksonh"]


class TestQueryAll:
    def test_answers_across_three_streams(self, service_system):
        answer = service_system.query_all("car")
        assert answer.streams == sorted(SERVICE_STREAMS)
        assert answer.class_name == "car"
        assert answer.total_frames > 0
        assert answer.candidates > 0

    def test_matches_per_stream_queries(self, service_system):
        """The fanned-out answer returns the same frames per stream as
        three independent single-stream queries."""
        answer = service_system.query_all("car")
        for stream in SERVICE_STREAMS:
            single = service_system.query(stream, "car")
            np.testing.assert_array_equal(
                answer.slices[stream].frames, single.frames
            )

    def test_verification_is_batched(self, table_factory):
        """Fresh cross-stream verification dispatches real work onto the
        cluster's per-GPU queues."""
        system = FocusSystem()
        for stream in SERVICE_STREAMS:
            system.ingest_stream(table_factory(stream, 60.0, 15.0))
        busy_before = system.cluster.total_busy_seconds
        answer = system.query_all("car")
        assert answer.gt_inferences > 0
        assert system.cluster.total_busy_seconds > busy_before
        assert any(len(q) for q in system.cluster.queues.values())
        assert answer.latency_seconds > 0

    def test_stream_subset_and_unknown_stream(self, service_system):
        answer = service_system.query_all("car", streams=["lausanne"])
        assert answer.streams == ["lausanne"]
        with pytest.raises(KeyError):
            service_system.query_all("car", streams=["lausanne", "nope"])

    def test_kx_clamped_per_shard(self, service_system):
        # the per-stream tuned indexes have different K; an oversized Kx
        # must clamp instead of raising
        answer = service_system.query_all("car", kx=1000)
        assert answer.total_frames > 0


class TestVerificationCacheAccounting:
    def test_repeat_query_hits_cache(self, table_factory):
        """Acceptance: a repeated query_all performs fewer GT inferences,
        verified by ledger counts."""
        system = FocusSystem()
        for stream in SERVICE_STREAMS:
            system.ingest_stream(table_factory(stream, 60.0, 15.0))

        before = system.ledger.inferences(CostCategory.QUERY_GT)
        first = system.query_all("car")
        mid = system.ledger.inferences(CostCategory.QUERY_GT)
        second = system.query_all("car")
        after = system.ledger.inferences(CostCategory.QUERY_GT)

        assert first.gt_inferences > 0
        assert mid - before == first.gt_inferences
        # every centroid verdict is cached: the repeat adds zero
        assert after == mid
        assert second.gt_inferences == 0
        assert second.cache_hits == first.candidates
        assert second.total_frames == first.total_frames

    def test_counters_in_cost_summary(self, service_system):
        service_system.query_all("bus")
        service_system.query_all("bus")
        summary = service_system.cost_summary()
        assert summary["verification-cache-hits"] > 0
        assert summary["verification-cache-misses"] > 0
        assert summary["queries-served"] >= 2

    def test_concurrent_queries_coalesce(self, table_factory):
        """Two identical queries in one batch verify each centroid once."""
        system = FocusSystem()
        system.ingest_stream(table_factory("lausanne", 60.0, 15.0))
        requests = [QueryRequest("car"), QueryRequest("car")]
        a, b = system.query_batch(requests)
        assert a.duplicates_coalesced == a.candidates
        # fresh work is attributed to the first query; the second rides along
        assert a.gt_inferences + b.gt_inferences == a.candidates
        np.testing.assert_array_equal(
            a.slices["lausanne"].frames, b.slices["lausanne"].frames
        )

    def test_reingest_invalidates_cache(self, table_factory):
        system = FocusSystem()
        system.ingest_stream(table_factory("lausanne", 60.0, 15.0))
        system.query_all("car")
        assert len(system.service.cache) > 0
        system.ingest_stream(table_factory("lausanne", 60.0, 15.0))
        assert len(system.service.cache) == 0


class TestLoadIndexes:
    def test_round_trip_through_docstore(
        self, service_system, store_with_streams, tmp_path
    ):
        path = str(tmp_path / "indexes.json")
        store_with_streams.save(path)

        cold = FocusSystem()
        restored = cold.load_indexes(DocumentStore.load(path))
        assert sorted(restored) == sorted(SERVICE_STREAMS)
        assert cold.streams() == sorted(SERVICE_STREAMS)
        assert all(cold.handle(s).restored for s in SERVICE_STREAMS)

        warm = service_system.query_all("car")
        cold_answer = cold.query_all("car")
        assert cold_answer.total_frames == warm.total_frames
        for stream in SERVICE_STREAMS:
            np.testing.assert_array_equal(
                cold_answer.slices[stream].frames, warm.slices[stream].frames
            )

    def test_cold_start_skips_ingest_cost(self, store_with_streams):
        cold = FocusSystem()
        cold.load_indexes(store_with_streams)
        cold.query_all("car")
        summary = cold.cost_summary()
        assert "ingest-cnn" not in summary
        assert "retrain-gt" not in summary
        assert summary["query-gt"] > 0

    def test_single_stream_query_on_restored_handle(
        self, service_system, store_with_streams
    ):
        cold = FocusSystem()
        cold.load_indexes(store_with_streams, streams=["lausanne"])
        answer = cold.query("lausanne", "car")
        warm = service_system.query("lausanne", "car")
        np.testing.assert_array_equal(answer.frames, warm.frames)

    def test_second_generation_save_preserves_token_map(self, store_with_streams):
        """Re-saving from a restored system keeps the specialized
        head/OTHER token mapping, so tail-class queries still hit the
        OTHER bucket two generations later."""
        gen1 = FocusSystem()
        gen1.load_indexes(store_with_streams)
        second = DocumentStore()
        gen1.save_indexes(second)
        gen2 = FocusSystem()
        gen2.load_indexes(second)
        # traffic_light is a tail class on the traffic cameras
        a1 = gen1.query_all("traffic_light")
        a2 = gen2.query_all("traffic_light")
        assert a2.candidates == a1.candidates
        for stream in SERVICE_STREAMS:
            np.testing.assert_array_equal(
                a2.slices[stream].frames, a1.slices[stream].frames
            )

    def test_missing_stream_rejected(self, store_with_streams):
        with pytest.raises(KeyError):
            FocusSystem().load_indexes(store_with_streams, streams=["oxford"])

    def test_table_mismatch_detected(self):
        """An index saved over a non-default table cannot be restored
        against the default regeneration: the checksum catches it
        instead of silently mis-mapping member rows."""
        from repro.video.synthesis import generate_observations

        system = FocusSystem()
        table = generate_observations("lausanne", 60.0, 15.0, seed_salt=7)
        system.ingest_stream(table)
        store = DocumentStore()
        system.save_indexes(store)
        with pytest.raises(ValueError, match="does not match"):
            FocusSystem().load_indexes(store)
        # the escape hatch: hand the original table back in
        cold = FocusSystem()
        cold.load_indexes(store, tables={"lausanne": table})
        warm = system.query("lausanne", "car")
        restored = cold.query("lausanne", "car")
        np.testing.assert_array_equal(restored.frames, warm.frames)

    def test_resave_is_upsert(self, service_system):
        store = DocumentStore()
        service_system.save_indexes(store)
        n_meta = len(store.collection("index-meta"))
        n_clusters = len(store.collection("clusters:lausanne"))
        service_system.save_indexes(store)
        assert len(store.collection("index-meta")) == n_meta
        assert len(store.collection("clusters:lausanne")) == n_clusters
        assert len(store.collection("stream-meta")) == len(SERVICE_STREAMS)


class TestTimeRangeMetrics:
    def test_query_time_range_metrics(self, service_system):
        """FocusSystem.query with a window restricts rows AND ground
        truth to the window."""
        handle = service_system.handle("auburn_c")
        cls = int(handle.table.dominant_classes()[0])
        full = service_system.query("auburn_c", cls)
        windowed = service_system.query("auburn_c", cls, time_range=(0.0, 30.0))
        if len(windowed.frames):
            assert (handle.table.time_s[windowed.result.returned_rows] < 30.0).all()
        tables = {"auburn_c": handle.table}
        graded = grade(windowed, tables, time_range=(0.0, 30.0))
        whole = grade(full, tables)
        assert graded.per_stream["auburn_c"].true_segments <= whole.per_stream["auburn_c"].true_segments
        # truth restricted to the window keeps recall well-defined
        assert 0.0 <= graded.recall <= 1.0
        assert 0.0 <= graded.precision <= 1.0

    def test_query_all_time_range(self, service_system):
        answer = service_system.query_all("car", time_range=(0.0, 30.0))
        for stream in SERVICE_STREAMS:
            handle = service_system.handle(stream)
            rows = answer.slices[stream].returned_rows
            if len(rows):
                assert (handle.table.time_s[rows] < 30.0).all()


class TestIncrementalRefund:
    def test_refund_adjusts_ledger_totals(self, service_system):
        """query_incremental's dedup refund shrinks the QUERY_GT totals
        so cost_summary stays consistent with gt_inferences."""
        engine = service_system.handle("auburn_c").engine
        ledger = engine.ledger
        before_inf = ledger.inferences(CostCategory.QUERY_GT)
        before_sec = ledger.seconds(CostCategory.QUERY_GT)
        cls = int(service_system.handle("auburn_c").table.dominant_classes()[0])
        k = engine.index.k
        batches = [max(1, k // 2), k] if k > 1 else [1, 1]
        results = engine.query_incremental(cls, batches)
        charged_inf = ledger.inferences(CostCategory.QUERY_GT) - before_inf
        charged_sec = ledger.seconds(CostCategory.QUERY_GT) - before_sec
        assert charged_inf == sum(r.gt_inferences for r in results)
        assert charged_sec == pytest.approx(sum(r.gpu_seconds for r in results))

    def test_refund_validation(self):
        ledger = GPULedger()
        gt = resnet152()
        with pytest.raises(ValueError):
            ledger.refund(CostCategory.QUERY_GT, gt, 1)  # nothing recorded yet
        ledger.record(CostCategory.QUERY_GT, gt, 5)
        ledger.refund(CostCategory.QUERY_GT, gt, 2)
        assert ledger.inferences(CostCategory.QUERY_GT) == 3
        assert ledger.seconds(CostCategory.QUERY_GT) == pytest.approx(
            gt.cost_seconds(3)
        )
        with pytest.raises(ValueError):
            ledger.refund(CostCategory.QUERY_GT, gt, -1)


class TestVerificationCacheUnit:
    def test_lru_eviction(self):
        cache = VerificationCache(capacity=2)
        cache.put(("s", 1, "gt"), 7)
        cache.put(("s", 2, "gt"), 8)
        assert cache.get(("s", 1, "gt")) == 7  # refresh 1
        cache.put(("s", 3, "gt"), 9)           # evicts 2
        assert cache.get(("s", 2, "gt")) is None
        assert cache.get(("s", 1, "gt")) == 7
        assert cache.evictions == 1

    def test_counters_and_stats(self):
        cache = VerificationCache(capacity=4)
        assert cache.get(("s", 1, "gt")) is None
        cache.put(("s", 1, "gt"), 3)
        assert cache.get(("s", 1, "gt")) == 3
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_invalidate_stream(self):
        cache = VerificationCache()
        cache.put(("a", 1, "gt"), 0)
        cache.put(("b", 1, "gt"), 0)
        assert cache.invalidate_stream("a") == 1
        assert ("b", 1, "gt") in cache
        assert ("a", 1, "gt") not in cache

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            VerificationCache(capacity=0)


class TestClusterWorkQueues:
    def test_dispatch_records_queues(self):
        cluster = GPUCluster(2)
        report = cluster.dispatch([WorkItem(1.0) for _ in range(4)])
        assert report.end - report.start == pytest.approx(2.0)
        assert {s.device_id for s in report.scheduled} == {0, 1}
        assert sum(len(q) for q in cluster.queues.values()) == 4

    def test_consecutive_dispatches_contend(self):
        cluster = GPUCluster(1)
        first = cluster.dispatch([WorkItem(1.0)])
        second = cluster.dispatch([WorkItem(1.0)])
        # the second batch queues behind the first on the busy device
        assert second.start == pytest.approx(first.end)
        assert second.end == pytest.approx(2.0)

    def test_coordinator_dispatch_batches(self):
        gt = resnet152()
        coordinator = QueryCoordinator(GPUCluster(4), batch_size=32)
        report = coordinator.dispatch(gt, 100)
        assert len(report.scheduled) == 4  # ceil(100/32)
        assert report.gpu_seconds == pytest.approx(gt.cost_seconds(100))
        # idle-cluster latency matches a fresh dispatch of the same work
        assert coordinator.latency(gt, 100) <= report.gpu_seconds

    def test_utilization(self):
        cluster = GPUCluster(2)
        cluster.dispatch([WorkItem(1.0), WorkItem(1.0)])
        assert cluster.utilization() == pytest.approx(1.0)

    def test_queue_history_bounded(self):
        """A long-lived service must not retain every item ever run."""
        cluster = GPUCluster(1, max_queue_history=10)
        for _ in range(5):
            cluster.dispatch([WorkItem(0.1) for _ in range(8)])
        assert len(cluster.queues[0]) == 10
        # busy-time accounting is unaffected by trimming
        assert cluster.total_busy_seconds == pytest.approx(4.0)


class _StubIndex:
    def __init__(self, classes, fail_on=()):
        self._classes = classes
        self._fail_on = set(fail_on)

    def centroid_class(self, cluster_id):
        if cluster_id in self._fail_on:
            raise KeyError("cluster %d retired mid-round" % cluster_id)
        return self._classes[cluster_id]


class _StubEngine:
    def __init__(self, classes, fail_on=()):
        self.index = _StubIndex(classes, fail_on)


def _plan(stream, engine, candidates, priority=None, deadline_s=None):
    from repro.serve.planner import DEFAULT_PRIORITY, QueryPlan
    from repro.serve.planner import ShardPlan

    shard = ShardPlan(
        stream=stream, engine=engine, class_id=0, token=0,
        candidates=list(candidates), kx=None, time_range=None,
    )
    return QueryPlan(
        class_id=0, shards=[shard],
        priority=DEFAULT_PRIORITY if priority is None else priority,
        deadline_s=deadline_s,
    )


def _scheduler(gt):
    from repro.serve.scheduler import BatchVerificationScheduler

    ledger = GPULedger()
    scheduler = BatchVerificationScheduler(
        QueryCoordinator(GPUCluster(2)), gt, ledger, cache=VerificationCache()
    )
    return scheduler, ledger


class TestSchedulerRefund:
    def test_mid_round_failure_refunds_unverified_remainder(self):
        """Regression: verify() charges the ledger before computing
        verdicts; a cluster lookup failing mid-round must refund the
        unverified remainder and leave the cache holding exactly the
        completed verdicts."""
        gt = resnet152()
        scheduler, ledger = _scheduler(gt)
        classes = {1: 10, 2: 11, 3: 12, 4: 13}
        engine = _StubEngine(classes, fail_on=(3,))
        with pytest.raises(KeyError):
            scheduler.verify([_plan("cam", engine, [1, 2, 3, 4])])
        # 4 were charged up front; 2 verdicts completed before the
        # failure; the 2 unverified were refunded
        assert ledger.inferences(CostCategory.QUERY_GT) == 2
        assert scheduler.cache.get(("cam", 1, gt.name)) == 10
        assert scheduler.cache.get(("cam", 2, gt.name)) == 11
        assert scheduler.cache.get(("cam", 3, gt.name)) is None
        assert scheduler.cache.get(("cam", 4, gt.name)) is None

    def test_retry_after_failure_charges_only_the_remainder(self):
        """Cache and ledger agree after the refund: a retry serves the
        completed verdicts from cache and pays only for the rest."""
        gt = resnet152()
        scheduler, ledger = _scheduler(gt)
        classes = {1: 10, 2: 11, 3: 12, 4: 13}
        broken = _StubEngine(classes, fail_on=(3,))
        with pytest.raises(KeyError):
            scheduler.verify([_plan("cam", broken, [1, 2, 3, 4])])
        healed = _StubEngine(classes)
        report = scheduler.verify([_plan("cam", healed, [1, 2, 3, 4])])
        assert report.cache_hits == 2
        assert report.fresh_inferences == 2
        assert report.verdicts == {
            ("cam", 1): 10, ("cam", 2): 11, ("cam", 3): 12, ("cam", 4): 13,
        }
        assert ledger.inferences(CostCategory.QUERY_GT) == 4

    def test_clean_round_refunds_nothing(self):
        gt = resnet152()
        scheduler, ledger = _scheduler(gt)
        engine = _StubEngine({1: 10, 2: 11})
        scheduler.verify([_plan("cam", engine, [1, 2])])
        assert ledger.inferences(CostCategory.QUERY_GT) == 2
        assert all(e.inferences >= 0 for e in ledger.entries)


class TestPriorityFormation:
    def test_groups_order_priority_then_deadline_then_arrival(self):
        from repro.serve.scheduler import BatchVerificationScheduler

        engine = _StubEngine({})
        plans = [
            _plan("a", engine, [], priority=2),
            _plan("b", engine, [], priority=0, deadline_s=1.0),
            _plan("c", engine, [], priority=0, deadline_s=0.2),
            _plan("d", engine, [], priority=0, deadline_s=0.2),
            _plan("e", engine, [], priority=1),
        ]
        groups = BatchVerificationScheduler._formation_groups(plans)
        assert [(klass, indices) for klass, indices in groups] == [
            ((0, 0.2), [2, 3]),
            ((0, 1.0), [1]),
            ((1, float("inf")), [4]),
            ((2, float("inf")), [0]),
        ]

    def test_urgent_group_dispatches_first(self):
        """A bulk plan arriving *before* an interactive one still has
        its batches enqueued behind the interactive plan's."""
        gt = resnet152()
        scheduler, _ = _scheduler(gt)
        bulk = _StubEngine({1: 10, 2: 11})
        interactive = _StubEngine({7: 20, 8: 21})
        scheduler.verify([
            _plan("bulk", bulk, [1, 2], priority=3),
            _plan("live", interactive, [7, 8], priority=0, deadline_s=0.5),
        ])
        work = [
            w
            for queue in scheduler.coordinator.cluster.queues.values()
            for w in queue
        ]
        urgent = [w for w in work if "p0" in w.item.label]
        bulky = [w for w in work if "p3" in w.item.label]
        assert urgent and bulky
        assert max(w.start for w in urgent) <= min(w.start for w in bulky)
        assert all("d0.5s" in w.item.label for w in urgent)

    def test_uniform_priority_keeps_legacy_single_dispatch_label(self):
        """All-default rounds must look exactly like the pre-QoS
        scheduler: one dispatch, legacy label."""
        gt = resnet152()
        scheduler, _ = _scheduler(gt)
        engine = _StubEngine({1: 10, 2: 11, 3: 12})
        scheduler.verify([
            _plan("a", engine, [1, 2]),
            _plan("b", engine, [3]),
        ])
        labels = {
            w.item.label
            for queue in scheduler.coordinator.cluster.queues.values()
            for w in queue
        }
        assert labels == {"verify x3 (2 queries)"}
