"""Tests for the admission-control front door (repro.serve.frontdoor).

Covers the QoS acceptance story: per-tenant token-bucket budgets and
inflight caps with typed rejections + retry-after hints, ingest
backpressure throttling appends (never queries) off the per-shard GPU
backlog, and the two load-bearing invariants -- an admitted request's
answer is bit-identical to a no-front-door run (both index modes,
in-process and worker fabric), and a rejected request charges zero
ledger/GPU cost.
"""

import numpy as np
import pytest

from repro.core.system import FocusSystem
from repro.serve import COUNTER_KINDS, merge_counters
from repro.serve.frontdoor import (
    AdmissionRejected,
    FrontDoor,
    IngestBackpressure,
    TenantBudget,
)
from repro.serve.planner import QueryRequest

FRONTDOOR_STREAMS = ["lausanne", "auburn_c"]


class FakeClock:
    def __init__(self, t: float = 1000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class StubService:
    """Minimal service surface that records what reached it."""

    def __init__(self):
        self.calls = []

    def query_batch(self, requests, **kwargs):
        self.calls.append(("query_batch", list(requests)))
        return ["answer-%s" % r.clazz for r in requests]

    def append(self, stream, chunk, **kwargs):
        self.calls.append(("append", stream))
        return "appended"

    def append_many(self, chunks, **kwargs):
        self.calls.append(("append_many", list(chunks)))
        return "appended-many"


def make_door(budget=None, clock=None, **door_kwargs):
    clock = clock or FakeClock()
    service = StubService()
    budget = budget or TenantBudget(qps=2.0)
    door = FrontDoor(
        service, {"t": budget}, clock=clock,
        backpressure=door_kwargs.pop("backpressure", False), **door_kwargs
    )
    return door, service, clock


# ---------------------------------------------------------------------------
# budgets + token bucket
# ---------------------------------------------------------------------------

class TestTenantBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantBudget(qps=0.0)
        with pytest.raises(ValueError):
            TenantBudget(qps=1.0, burst=0.5)
        with pytest.raises(ValueError):
            TenantBudget(qps=1.0, max_inflight=0)
        with pytest.raises(ValueError):
            TenantBudget(qps=1.0, priority=-1)

    def test_default_bucket_size(self):
        assert TenantBudget(qps=5.0).bucket_size == 5.0
        # sub-1qps tenants still get one whole token
        assert TenantBudget(qps=0.25).bucket_size == 1.0
        assert TenantBudget(qps=5.0, burst=2.0).bucket_size == 2.0


class TestRateLimit:
    def test_burst_then_rejected_with_retry_after(self):
        door, service, clock = make_door(TenantBudget(qps=2.0, burst=2.0))
        door.query_all("t", 1)
        door.query_all("t", 1)
        with pytest.raises(AdmissionRejected) as exc_info:
            door.query_all("t", 1)
        exc = exc_info.value
        assert (exc.tenant, exc.op, exc.reason) == ("t", "query", "rate")
        # bucket is empty; the next token arrives in 1/qps seconds
        assert exc.retry_after_s == pytest.approx(0.5)
        assert len(service.calls) == 2

    def test_refill_readmits(self):
        door, service, clock = make_door(TenantBudget(qps=2.0, burst=1.0))
        door.query_all("t", 1)
        with pytest.raises(AdmissionRejected):
            door.query_all("t", 1)
        clock.advance(0.5)  # exactly one token refilled
        door.query_all("t", 1)
        assert len(service.calls) == 2

    def test_bucket_caps_at_burst(self):
        door, service, clock = make_door(TenantBudget(qps=10.0, burst=2.0))
        clock.advance(60.0)  # a long idle stretch banks only `burst`
        door.query_all("t", 1)
        door.query_all("t", 1)
        with pytest.raises(AdmissionRejected):
            door.query_all("t", 1)

    def test_unknown_tenant(self):
        door, _, _ = make_door()
        with pytest.raises(KeyError):
            door.query_all("nobody", 1)

    def test_default_budget_admits_unknown_tenants(self):
        clock = FakeClock()
        door = FrontDoor(
            StubService(), {}, default_budget=TenantBudget(qps=1.0),
            clock=clock, backpressure=False,
        )
        door.query_all("walk-in", 1)
        assert door.tenant_report()["walk-in"]["admitted"] == 1


class TestInflightCap:
    def test_reentrant_call_hits_cap(self):
        """With max_inflight=1, a request issued while another is being
        served is rejected with reason "inflight" (and no token taken)."""
        clock = FakeClock()
        budget = TenantBudget(qps=100.0, burst=50.0, max_inflight=1)

        class ReentrantService(StubService):
            def query_batch(self, requests, **kwargs):
                with pytest.raises(AdmissionRejected) as exc_info:
                    door.query_all("t", 2)
                assert exc_info.value.reason == "inflight"
                return super().query_batch(requests, **kwargs)

        service = ReentrantService()
        door = FrontDoor(service, {"t": budget}, clock=clock, backpressure=False)
        door.query_all("t", 1)
        report = door.tenant_report()["t"]
        assert report["admitted"] == 1
        assert report["rejected"]["inflight"] == 1
        assert report["inflight"] == 0  # slot released on completion

    def test_slot_released_on_service_error(self):
        clock = FakeClock()

        class FailingService(StubService):
            def query_batch(self, requests, **kwargs):
                raise RuntimeError("boom")

        door = FrontDoor(
            FailingService(), {"t": TenantBudget(qps=100.0, max_inflight=1)},
            clock=clock, backpressure=False,
        )
        with pytest.raises(RuntimeError):
            door.query_all("t", 1)
        assert door.tenant_report()["t"]["inflight"] == 0


# ---------------------------------------------------------------------------
# ingest backpressure
# ---------------------------------------------------------------------------

class TestIngestBackpressure:
    def test_leaky_bucket_levels(self):
        clock = FakeClock()
        committed = {"shard-0": 0.0}
        bp = IngestBackpressure(
            lambda: committed, high_water_s=5.0, drain_rate=1.0,
            sample_interval_s=0.0, clock=clock,
        )
        assert bp.check() == (False, 0.0)
        # 8 GPU-seconds of new committed work arrive at once
        committed["shard-0"] = 8.0
        clock.advance(0.01)
        throttled, retry_after = bp.check()
        assert throttled
        assert retry_after == pytest.approx(8.0 - 0.01 - 5.0, abs=0.05)
        # the backlog drains at drain_rate per wall second
        clock.advance(4.0)
        assert bp.check()[0] is False

    def test_first_sample_is_baseline_not_backlog(self):
        """A service with a long committed history isn't instantly
        throttled: the first sample only establishes the baseline."""
        clock = FakeClock()
        bp = IngestBackpressure(
            lambda: {"s": 1e6}, high_water_s=1.0, sample_interval_s=0.0,
            clock=clock,
        )
        assert bp.check() == (False, 0.0)

    def test_sampling_is_rate_limited(self):
        clock = FakeClock()
        samples = []

        def depth_fn():
            samples.append(clock.t)
            return {"s": 0.0}

        bp = IngestBackpressure(
            depth_fn, sample_interval_s=1.0, clock=clock
        )
        for _ in range(5):
            bp.check()
            clock.advance(0.1)
        assert len(samples) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            IngestBackpressure(lambda: {}, high_water_s=0.0)
        with pytest.raises(ValueError):
            IngestBackpressure(lambda: {}, drain_rate=0.0)

    def test_throttles_appends_never_queries(self):
        clock = FakeClock()
        committed = {"shard-0": 0.0}
        bp = IngestBackpressure(
            lambda: dict(committed), high_water_s=1.0, drain_rate=1.0,
            sample_interval_s=0.0, clock=clock,
        )
        service = StubService()
        door = FrontDoor(
            service, {"t": TenantBudget(qps=1000.0, burst=100.0)},
            clock=clock, backpressure=bp,
        )
        committed["shard-0"] = 50.0
        clock.advance(0.01)
        with pytest.raises(AdmissionRejected) as exc_info:
            door.append("t", "cam", object())
        assert exc_info.value.reason == "backpressure"
        assert exc_info.value.retry_after_s > 0
        with pytest.raises(AdmissionRejected):
            door.append_many("t", [("cam", object())])
        # queries sail through the same high-water condition
        door.query_all("t", 1)
        assert [c[0] for c in service.calls] == ["query_batch"]
        assert door.tenant_report()["t"]["rejected"]["backpressure"] == 2

    def test_disabled_for_services_without_gpu_surface(self):
        door = FrontDoor(StubService(), {"t": TenantBudget(qps=10.0)})
        assert door.backpressure is None
        door.append("t", "cam", object())  # not throttled


# ---------------------------------------------------------------------------
# QoS stamping + counters
# ---------------------------------------------------------------------------

class TestStamping:
    def test_priority_and_deadline_stamped(self):
        door, service, _ = make_door(TenantBudget(qps=10.0, priority=3))
        door.query_all("t", 7, deadline_s=0.25)
        (_, requests), = service.calls
        assert requests[0].priority == 3
        assert requests[0].deadline_s == 0.25

    def test_explicit_request_deadline_wins(self):
        door, service, _ = make_door(TenantBudget(qps=10.0, priority=2))
        door.query_batch(
            "t", [QueryRequest(clazz=1, deadline_s=0.1)], deadline_s=9.0
        )
        (_, requests), = service.calls
        assert requests[0].deadline_s == 0.1
        assert requests[0].priority == 2

    def test_other_fields_forwarded_verbatim(self):
        door, service, _ = make_door(TenantBudget(qps=10.0))
        door.query_all(
            "t", 5, streams=["a", "b"], kx=3, time_range=(1.0, 2.0)
        )
        (_, requests), = service.calls
        request = requests[0]
        assert (request.clazz, request.kx) == (5, 3)
        assert list(request.streams) == ["a", "b"]
        assert request.time_range == (1.0, 2.0)


class TestCounters:
    def test_every_admission_counter_is_classified(self):
        door, _, _ = make_door()
        for key in door.counters():
            assert key in COUNTER_KINDS

    def test_counters_merge_across_doors(self):
        door_a, _, _ = make_door(TenantBudget(qps=1.0, burst=1.0))
        door_b, _, _ = make_door(TenantBudget(qps=1.0, burst=1.0))
        for door in (door_a, door_b):
            door.query_all("t", 1)
            with pytest.raises(AdmissionRejected):
                door.query_all("t", 1)
        merged = merge_counters([door_a.counters(), door_b.counters()])
        assert merged["admission-admitted"] == 2.0
        assert merged["admission-rejected-rate"] == 2.0
        # gauges are per-node readings; the fleet merge drops them
        assert "admission-inflight" not in merged


# ---------------------------------------------------------------------------
# the two properties: bit-identity + zero-cost rejection
# ---------------------------------------------------------------------------

def build_system(table_factory, live_config, index_mode):
    system = FocusSystem()
    for stream in FRONTDOOR_STREAMS:
        system.open_stream(
            stream, fps=10.0, config=live_config, index_mode=index_mode
        )
        system.append(stream, table_factory(stream, 20.0, 10.0))
    return system


def assert_same_answer(left, right):
    assert left.class_id == right.class_id
    assert sorted(left.slices) == sorted(right.slices)
    for name in left.slices:
        np.testing.assert_array_equal(
            left.slices[name].frames, right.slices[name].frames
        )
        np.testing.assert_array_equal(
            left.slices[name].returned_rows, right.slices[name].returned_rows
        )
    assert left.gt_inferences == right.gt_inferences
    assert left.candidates == right.candidates


class TestBitIdentity:
    @pytest.mark.parametrize("index_mode", ["lazy", "materialized"])
    def test_admitted_answers_match_no_frontdoor(
        self, table_factory, live_config, index_mode
    ):
        """The property the whole design hangs on: the door stamps
        priority/deadline onto admitted queries, and the answers are
        still bit-identical to an un-doored run on an identical system."""
        reference = build_system(table_factory, live_config, index_mode)
        gated = build_system(table_factory, live_config, index_mode)
        door = FrontDoor(
            gated,
            {"t": TenantBudget(qps=1000.0, burst=100.0, priority=2)},
            backpressure=False,
        )
        # classes 25 and 8 dominate the two streams' synthetic
        # windows, so the round does real GT verification work
        answers = []
        for clazz in (25, 8):
            gated_answer = door.query_all("t", clazz, deadline_s=0.5)
            assert_same_answer(gated_answer, reference.query_all(clazz))
            answers.append(gated_answer)
        assert any(a.candidates > 0 for a in answers)
        # batched round with mixed per-request deadlines: same property
        requests = [
            QueryRequest(clazz=25),
            QueryRequest(clazz=34, deadline_s=0.05),
        ]
        gated_answers = door.query_batch("t", requests)
        reference_answers = reference.query_batch(
            [QueryRequest(clazz=25), QueryRequest(clazz=34)]
        )
        for gated_answer, reference_answer in zip(
            gated_answers, reference_answers
        ):
            assert_same_answer(gated_answer, reference_answer)

    def test_admitted_answers_match_worker_fabric(self, table_factory):
        """Same property through the worker-process fabric: door-gated
        answers match an un-doored router over identical worker fleets."""
        from repro.fabric import FabricRouter, FabricSupervisor

        tables = {
            stream: table_factory(stream, 20.0, 10.0)
            for stream in FRONTDOOR_STREAMS
        }
        from repro.core.config import FocusConfig
        from repro.cnn.zoo import cheap_cnn

        config = FocusConfig(model=cheap_cnn(1), k=2, cluster_threshold=0.12)

        def build(worker: bool):
            supervisor = None
            if worker:
                supervisor = FabricSupervisor(["shard-0", "shard-1"])
                shards = supervisor.clients()
            else:
                from repro.fabric import ShardNode

                shards = [ShardNode("shard-0"), ShardNode("shard-1")]
            router = FabricRouter(shards)
            for name, table in tables.items():
                router.open_stream(
                    name, fps=10.0, config=config,
                    index_mode="materialized", durable=False,
                )
                router.append(name, table)
            return router, supervisor

        reference, _ = build(worker=False)
        gated, supervisor = build(worker=True)
        try:
            door = FrontDoor(
                gated,
                {"t": TenantBudget(qps=1000.0, burst=100.0, priority=1)},
                backpressure=False,
            )
            for clazz in (25, 8):
                assert_same_answer(
                    door.query_all("t", clazz, deadline_s=0.5),
                    reference.query_all(clazz),
                )
        finally:
            if supervisor is not None:
                supervisor.shutdown()


class TestRejectedChargesNothing:
    def test_rejected_query_leaves_cost_summary_untouched(
        self, table_factory, live_config
    ):
        system = build_system(table_factory, live_config, "lazy")
        door = FrontDoor(
            system, {"t": TenantBudget(qps=1.0, burst=1.0)},
            backpressure=False,
        )
        door.query_all("t", 25)  # consumes the only token
        before = dict(system.cost_summary())
        busy_before = system.cluster.total_busy_seconds
        for _ in range(3):
            with pytest.raises(AdmissionRejected):
                door.query_all("t", 25)
        assert dict(system.cost_summary()) == before
        assert system.cluster.total_busy_seconds == busy_before
        report = door.tenant_report()["t"]
        assert report["rejected"]["rate"] == 3
        # and the bucket itself was not debited by the rejections
        assert door.counters()["admission-admitted"] == 1.0

    def test_rejected_append_ingests_nothing(self, table_factory, live_config):
        clock = FakeClock()
        system = build_system(table_factory, live_config, "lazy")
        bp = IngestBackpressure(
            lambda: {"local": system.cluster.counters()["busy-gpu-seconds"]},
            high_water_s=0.001, drain_rate=0.001, sample_interval_s=0.0,
            clock=clock,
        )
        door = FrontDoor(
            system, {"t": TenantBudget(qps=1000.0, burst=100.0)},
            clock=clock, backpressure=bp,
        )
        table = table_factory("jacksonh", 20.0, 10.0)
        system.open_stream("jacksonh", fps=10.0, config=live_config)
        rows_before = len(system.handle("jacksonh").table)
        # a query pushes committed GPU seconds past the tiny high-water
        answer = door.query_all("t", 25)
        assert answer.gt_inferences > 0
        clock.advance(0.01)
        before = dict(system.cost_summary())
        with pytest.raises(AdmissionRejected) as exc_info:
            door.append("t", "jacksonh", table)
        assert exc_info.value.reason == "backpressure"
        assert dict(system.cost_summary()) == before
        assert len(system.handle("jacksonh").table) == rows_before
