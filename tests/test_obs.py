"""Unit tests for the observability package (repro.obs).

The package is the substrate every layer records into, so its own
contracts are pinned tightly here: histogram quantiles stay within the
log-bucket error bound and merge losslessly, the kind registry is live
and conflict-checked, the event ring is bounded, and trace sampling is
deterministic with the first eligible request always sampled (the CI
smoke guarantee).  Integration across the serve/fabric layers lives in
``test_obs_keys.py``.
"""

import json
import math

import numpy as np
import pytest

from repro.obs.events import EventLog
from repro.obs.metrics import (
    GROWTH,
    LatencyHistogram,
    MetricsRegistry,
    kind_registry,
    register_keys,
)
from repro.obs.trace import (
    SpanSink,
    Tracer,
    chrome_trace_events,
    dump_spans,
    export_chrome_trace,
    finish_span,
    load_spans,
    span,
    start_span,
)

#: log-bucket quantile error: one bucket of relative width, plus slack
#: for the interpolation inside the bucket
QUANTILE_RTOL = GROWTH - 1.0 + 0.02


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

class TestLatencyHistogram:
    def test_quantiles_within_bucket_error(self):
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=-5.0, sigma=1.5, size=20_000)
        hist = LatencyHistogram()
        for s in samples:
            hist.observe(float(s))
        for q in (50.0, 95.0, 99.0):
            exact = float(np.percentile(samples, q))
            approx = hist.percentile(q)
            assert approx == pytest.approx(exact, rel=QUANTILE_RTOL)

    def test_summary_tracks_exact_extremes_and_mean(self):
        hist = LatencyHistogram()
        values = [0.001, 0.002, 0.004, 0.008, 0.5]
        for v in values:
            hist.observe(v)
        s = hist.summary()
        assert s["count"] == len(values)
        assert s["min_s"] == pytest.approx(min(values))
        assert s["max_s"] == pytest.approx(max(values))
        assert s["mean_s"] == pytest.approx(sum(values) / len(values))
        assert hist.mean == pytest.approx(sum(values) / len(values))
        # percentiles are clamped to the observed range
        assert s["min_s"] <= s["p50_s"] <= s["p95_s"] <= s["p99_s"] <= s["max_s"]

    def test_merge_equals_combined(self):
        rng = np.random.default_rng(11)
        a_vals = rng.lognormal(-4.0, 1.0, 5000)
        b_vals = rng.lognormal(-6.0, 1.0, 5000)
        a, b, combined = (
            LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        )
        for v in a_vals:
            a.observe(float(v))
            combined.observe(float(v))
        for v in b_vals:
            b.observe(float(v))
            combined.observe(float(v))
        a.merge(b)
        assert a.count == combined.count
        assert a.sum == pytest.approx(combined.sum)
        assert a.min == combined.min and a.max == combined.max
        for q in (50.0, 95.0, 99.0):
            assert a.percentile(q) == pytest.approx(combined.percentile(q))

    def test_dict_round_trip_is_lossless(self):
        hist = LatencyHistogram()
        for v in (1e-7, 1e-3, 0.05, 2.0, 500.0):  # under- and overflow too
            hist.observe(v)
        clone = LatencyHistogram.from_dict(hist.to_dict())
        assert clone.count == hist.count
        assert clone.sum == pytest.approx(hist.sum)
        assert clone.min == hist.min and clone.max == hist.max
        for q in (50.0, 95.0, 99.0):
            assert clone.percentile(q) == hist.percentile(q)
        # the wire encoding is sparse and JSON-safe
        json.dumps(hist.to_dict())

    def test_garbage_observations_ignored(self):
        hist = LatencyHistogram()
        hist.observe(-1.0)
        hist.observe(float("nan"))
        assert hist.count == 0
        assert hist.summary()["count"] == 0
        # an empty histogram reports NaN, never a divide-by-zero
        assert math.isnan(hist.percentile(99.0))
        assert math.isnan(hist.mean)

    def test_extreme_values_clamp_to_edge_buckets(self):
        hist = LatencyHistogram()
        hist.observe(0.0)     # below the 1us floor: underflow bucket
        hist.observe(1e9)     # above the 100s ceiling: last bucket
        assert hist.count == 2
        assert hist.min == 0.0 and hist.max == 1e9


# ---------------------------------------------------------------------------
# registry + kinds
# ---------------------------------------------------------------------------

class TestMetricsRegistry:
    def test_snapshot_is_the_histograms(self):
        reg = MetricsRegistry()
        reg.observe("lat_s", 0.01)
        snap = reg.snapshot()
        assert set(snap) == {"histograms"}
        assert set(snap["histograms"]) == {"lat_s"}

    def test_merge_snapshots_sums_and_merges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("lat_s", 0.01)
        b.observe("lat_s", 0.04)
        # a snapshot written before the counter/gauge sections went
        # still merges: the sections it carried are ignored
        older = dict(b.snapshot(), counters={"ops": 3.0}, gauges={"depth": 4.0})
        total = MetricsRegistry.merge_snapshots([a.snapshot(), older])
        assert set(total) == {"histograms"}
        merged = LatencyHistogram.from_dict(total["histograms"]["lat_s"])
        assert merged.count == 2
        assert merged.min == pytest.approx(0.01)
        assert merged.max == pytest.approx(0.04)
        summaries = MetricsRegistry.summarize(total)
        assert summaries["lat_s"]["count"] == 2

    def test_kind_registry_is_live_and_conflict_checked(self):
        ns = "test-obs-%d" % id(self)
        kinds = kind_registry(ns)
        keys = register_keys(ns, "sum", "a", "b")
        assert keys == ("a", "b")
        assert kinds == {"a": "sum", "b": "sum"}
        assert kind_registry(ns) is kinds  # same mutable dict every call
        register_keys(ns, "sum", "a")  # idempotent re-registration
        with pytest.raises(ValueError):
            register_keys(ns, "gauge", "a")  # kind conflict


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------

class TestEventLog:
    def test_ring_is_bounded_and_ordered(self):
        log = EventLog(capacity=4)
        for i in range(10):
            log.emit("tick", shard="s0", i=i)
        events = log.events()
        assert len(log) == 4
        assert [e["i"] for e in events] == [6, 7, 8, 9]
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        monos = [e["t_mono_s"] for e in events]
        assert monos == sorted(monos)

    def test_event_schema(self):
        log = EventLog()
        log.emit(
            "worker.restart", shard="shard-1", corr_id=42,
            trace_id="abc", restarts=2,
        )
        (event,) = log.events()
        assert event["kind"] == "worker.restart"
        assert event["shard"] == "shard-1"
        assert event["corr_id"] == 42
        assert event["trace_id"] == "abc"
        assert event["restarts"] == 2
        assert "t_wall_s" in event and "t_mono_s" in event

    def test_kind_filter(self):
        log = EventLog()
        log.emit("a")
        log.emit("b")
        log.emit("a")
        assert len(log.events("a")) == 2
        assert len(log.events("b")) == 1

    def test_jsonl_sink(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(jsonl_path=str(path))
        log.emit("breaker.trip", shard="shard-0", failures=3)
        log.emit("breaker.rearm", shard="shard-0")
        log.close()
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines() if line
        ]
        assert [e["kind"] for e in lines] == ["breaker.trip", "breaker.rearm"]
        assert lines[0]["failures"] == 3


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class TestTracer:
    def test_rate_zero_never_samples(self):
        tracer = Tracer(0.0)
        assert not tracer.enabled
        assert all(tracer.sample() is None for _ in range(100))

    def test_rate_one_always_samples(self):
        tracer = Tracer(1.0)
        contexts = [tracer.sample() for _ in range(10)]
        assert all(c is not None for c in contexts)
        assert len({c["trace_id"] for c in contexts}) == 10

    def test_sampling_is_deterministic_and_first_wins(self):
        tracer = Tracer(0.25)
        picks = [tracer.sample() is not None for _ in range(12)]
        # the first eligible request is always sampled (smoke guarantee),
        # then every round(1/rate)-th after it
        assert picks == [True, False, False, False] * 3

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(-0.1)
        with pytest.raises(ValueError):
            Tracer(1.5)


class TestSpans:
    def test_none_context_is_a_noop(self):
        sink = SpanSink()
        with span("x", None, sink=sink) as child:
            assert child is None
        handle, child = start_span("y", None)
        assert handle is None and child is None
        finish_span(handle, sink=sink)
        assert len(sink) == 0

    def test_nesting_links_parents(self):
        sink = SpanSink()
        root = {"trace_id": "t1", "parent_id": None}
        with span("outer", root, sink=sink) as child_ctx:
            assert child_ctx["trace_id"] == "t1"
            with span("inner", child_ctx, sink=sink):
                pass
        inner, outer = sink.drain()
        assert (inner["name"], outer["name"]) == ("inner", "outer")
        assert outer["parent_id"] is None
        assert inner["parent_id"] == outer["span_id"]
        assert inner["trace_id"] == outer["trace_id"] == "t1"
        assert outer["dur_s"] >= inner["dur_s"] >= 0.0

    def test_start_finish_pair(self):
        sink = SpanSink()
        root = {"trace_id": "t2", "parent_id": None}
        handle, child_ctx = start_span("leg", root, shard="s0")
        assert child_ctx["parent_id"] == handle["span_id"]
        finish_span(handle, sink=sink)
        (s,) = sink.drain()
        assert s["name"] == "leg"
        assert s["args"] == {"shard": "s0"}
        assert s["dur_s"] >= 0.0 and "_mono_0" not in s

    def test_sink_is_bounded(self):
        sink = SpanSink(capacity=8)
        root = {"trace_id": "t3", "parent_id": None}
        for i in range(20):
            with span("s%d" % i, root, sink=sink):
                pass
        assert len(sink) == 8
        assert sink.spans()[-1]["name"] == "s19"

    def test_absorb_copies_foreign_spans(self):
        sink = SpanSink()
        shipped = [{"name": "remote", "trace_id": "t", "span_id": "a",
                    "parent_id": None, "ts_wall_s": 1.0, "dur_s": 0.5,
                    "pid": 99, "args": {}}]
        sink.absorb(shipped)
        (got,) = sink.drain()
        assert got == shipped[0]
        assert got is not shipped[0]


class TestExport:
    def _spans(self):
        sink = SpanSink()
        root = {"trace_id": "t9", "parent_id": None}
        with span("router:scatter", root, sink=sink, shard="s0"):
            pass
        return sink.drain()

    def test_chrome_events_shape(self):
        (event,) = chrome_trace_events(self._spans())
        assert event["ph"] == "X"
        assert event["name"] == "router:scatter"
        assert event["cat"] == "router"
        assert event["dur"] > 0.0
        assert event["args"]["trace_id"] == "t9"
        assert event["args"]["shard"] == "s0"

    def test_export_and_jsonl_round_trip(self, tmp_path):
        spans = self._spans()
        trace_path = tmp_path / "trace.json"
        n = export_chrome_trace(spans, str(trace_path))
        assert n == 1
        doc = json.loads(trace_path.read_text())
        assert len(doc["traceEvents"]) == 1
        jsonl_path = tmp_path / "spans.jsonl"
        assert dump_spans(spans, str(jsonl_path)) == 1
        assert load_spans(str(jsonl_path)) == spans
