"""Self-tests of the benchmark harness (no workload is run: fake clocks
and hand-made samples only, well under ten seconds)."""

import json
import os
import re
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench import boundaries, loadgen, metrics, stats  # noqa: E402
from bench.trace import SpanRecorder, self_times  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds >= 0
        self.now += seconds

    def work(self, seconds, ok=True):
        def thunk():
            self.now += seconds
            return ok

        return thunk


# -- the percentile rule -------------------------------------------------------

@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.highest_percentile(n) == expected


def test_over_passes_takes_median_of_per_pass_percentiles_when_each_supports_it():
    calm = list(np.linspace(1.0, 2.0, 200))
    stalled = calm[:150] + [50.0] * 50
    # one stalled pass out of three cannot move the result
    assert stats.over_passes([calm, stalled, calm], 95) == pytest.approx(
        stats.percentile(calm, 95))
    # too few samples a pass: pooled instead
    small = [calm[:50], stalled[100:], calm[:50]]
    pooled = [v for p in small for v in p]
    assert stats.over_passes(small, 95) == pytest.approx(stats.percentile(pooled, 95))


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


# -- open-loop accounting ---------------------------------------------------------

def test_open_loop_times_from_due_and_reports_lateness():
    clock = FakeClock()
    # due at 0, 1, 2 s; the first operation stalls for 2.5 s
    schedule = [(0.0, "q", clock.work(2.5)), (1.0, "q", clock.work(0.1)), (2.0, "q", clock.work(0.1))]
    report = loadgen.run_open_loop(schedule, clock=clock, sleep=clock.sleep)
    assert report.latency["q"] == pytest.approx([2.5, 1.6, 0.7])   # from the due time
    assert report.service["q"] == pytest.approx([2.5, 0.1, 0.1])   # the stall hides here
    assert report.lateness == pytest.approx([0.0, 1.5, 0.6])
    assert report.backlog_end == pytest.approx(0.6)
    assert (report.attempted, report.failed) == (3, 0)


def test_open_loop_sleeps_to_the_due_time_when_the_system_keeps_up():
    clock = FakeClock()
    schedule = [(t, "q", clock.work(0.01)) for t in loadgen.paced(10, 1.0)]
    report = loadgen.run_open_loop(schedule, clock=clock, sleep=clock.sleep)
    assert len(report.latency["q"]) == 10
    assert report.latency["q"] == pytest.approx([0.01] * 10)
    assert max(report.lateness) == pytest.approx(0.0)


def test_failed_and_raising_operations_record_no_latency():
    clock = FakeClock()

    def boom():
        raise RuntimeError("refused")

    wrong_answer = lambda: (lambda: False)  # noqa: E731  the deferred check fails
    schedule = [(0.0, "q", clock.work(0.1, ok=False)), (0.0, "q", boom), (0.0, "q", wrong_answer),
                (0.0, "q", clock.work(0.1))]
    report = loadgen.run_open_loop(schedule, clock=clock, sleep=clock.sleep)
    assert (report.attempted, report.failed) == (4, 3)
    assert len(report.latency["q"]) == 1


def test_closed_loop_wall_excludes_the_deferred_answer_check():
    clock = FakeClock()

    def op():
        clock.now += 0.2

        def check():
            clock.now += 5.0  # verifying is never part of the latency
            return True

        return check

    report = loadgen.run_closed_loop([("q", op), ("q", op)], clock=clock)
    assert report.latency["q"] == pytest.approx([0.2, 0.2])
    assert report.wall == pytest.approx(0.4)


# -- spans ------------------------------------------------------------------------

def test_self_time_is_duration_minus_child_coverage():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    recorder.active = True
    with recorder.span("op", "bench", request=7):
        clock.now += 1.0                       # bench self
        a = recorder.begin("outer", "A")
        clock.now += 2.0                       # A self
        b = recorder.begin("inner", "B")
        clock.now += 3.0                       # B self
        recorder.end(b)
        b2 = recorder.begin("inner", "B")
        clock.now += 0.5
        recorder.end(b2)
        clock.now += 1.0                       # A self again
        recorder.end(a)
    assert recorder.self_times() == pytest.approx({"bench": 1.0, "A": 3.0, "B": 3.5})
    assert recorder.root_seconds() == pytest.approx(7.5)
    assert sum(recorder.self_times().values()) == pytest.approx(recorder.root_seconds())
    assert {s[5] for s in recorder.spans} == {7}  # one request id down the tree
    events = recorder.chrome_trace()["traceEvents"]
    assert [e["ph"] for e in events] == ["X"] * 4 and events[2]["dur"] == pytest.approx(3.0e6)


def test_unclosed_spans_are_ignored():
    assert self_times([["open", "A", 0.0, None, -1, None]]) == {}


def test_boundary_spans_are_recorded_only_inside_an_operation():
    recorder = SpanRecorder()
    recorder.active = True
    assert not recorder.in_operation
    with recorder.span("op", "bench"):
        assert recorder.in_operation
    recorder.active = False
    with recorder.span("op", "bench"):
        assert not recorder.in_operation


# -- the boundary table ---------------------------------------------------------------

@pytest.mark.parametrize("module, qualname, layer", boundaries.BOUNDARIES)
def test_every_boundary_resolves_to_a_live_callable(module, qualname, layer):
    owner, attr, raw = boundaries.resolve(module, qualname)
    assert callable(getattr(owner, attr))


def test_install_wraps_and_uninstall_restores_every_binding():
    from repro.core import ingest, streaming, tuning

    original = ingest.simulate_pixel_diff
    assert streaming.simulate_pixel_diff is original
    recorder = SpanRecorder()
    uninstall = boundaries.install(recorder)
    try:
        # names bound by ``from ... import`` are patched where they landed
        for module in (ingest, streaming, tuning):
            assert module.simulate_pixel_diff is not original
    finally:
        uninstall()
    for module in (ingest, streaming, tuning):
        assert module.simulate_pixel_diff is original
    for module, qualname, _ in boundaries.BOUNDARIES:
        _, _, raw = boundaries.resolve(module, qualname)
        target = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        assert not hasattr(target, "__wrapped__"), qualname


# -- names and the manifest -------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_and_workload_names_are_well_formed_and_unique():
    names = [m.name for m in metrics.METRICS] + list(metrics.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in metrics.METRICS:
        assert UNIT.match(m.unit), (m.name, m.unit)
        assert set(m.workloads) <= set(metrics.WORKLOADS), m.name
        if m.kind == "e2e":
            assert m.bound is not None and 0.0 <= m.bound <= 0.25, m.name
    for why in metrics.WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why


def test_manifest_matches_the_registry():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        on_disk = json.load(fh)
    assert on_disk == metrics.manifest()
    assert set(on_disk) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(on_disk["workloads"]) <= 8
    assert 1 <= len(on_disk["end_to_end"]) <= 16
    assert 1 <= len(on_disk["per_layer"]) <= 128
    setup = [m for m in on_disk["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in on_disk["end_to_end"])}]
    # a bounded metric may never read 0, so it cannot be one that is 0 when healthy
    assert "failed_ops_share" not in {m["name"] for m in on_disk["end_to_end"]}


def test_every_workload_reports_what_the_registry_expects_of_it():
    """Parity of registry and workloads, without running one: what a
    workload folds must be exactly its untraced expectation."""
    from bench.workloads import WORKLOADS

    assert list(WORKLOADS) == list(metrics.WORKLOADS)
    for name, workload in WORKLOADS.items():
        produced = {"setup_s", "peak_rss_mb", "failed_ops_share",
                    "sim_ingest_cheaper_x", "sim_query_faster_x"}
        produced.update(workload.scalar_metrics)
        for wanted in workload.latency_metrics.values():
            produced.update(metric for metric, _ in wanted)
        if name in metrics.OPEN_LOOP:
            produced.update({"bench.late_p95_ms", "bench.backlog_end_s"})
        untraced = set(metrics.expected(name, traced=False))
        assert produced == untraced, name
        # the result line carries exactly the manifest's metrics, on every workload
        assert set(metrics.declared(False)) <= untraced
        assert set(metrics.declared(True)) == set(metrics.expected(name, traced=True)) - untraced


def test_archives_share_their_tuning_sample_across_seeds():
    from bench.workloads import seeded_archive, tuning_sample_frames

    sampled = tuning_sample_frames(180.0)
    one, two = seeded_archive("auburn_c", 180.0, 1), seeded_archive("auburn_c", 180.0, 2)
    in_one, in_two = np.isin(one.frame_idx, sampled), np.isin(two.frame_idx, sampled)
    assert np.array_equal(one.appearance_seed[in_one], two.appearance_seed[in_two])
    assert not np.array_equal(one.appearance_seed[~in_one], two.appearance_seed[~in_two])
    assert (np.diff(one.frame_idx) >= 0).all()


# -- compare ------------------------------------------------------------------------------

def test_verdict_says_unresolved_when_spread_exceeds_the_bound():
    base = [100.0, 101.0, 99.0, 100.5]
    assert stats.verdict(base, [103.0, 104.0, 102.0, 103.5], "lower", 0.10) == "unchanged"
    assert stats.verdict(base, [120.0, 121.0, 119.0, 120.5], "lower", 0.10) == "REGRESSED"
    assert stats.verdict(base, [80.0, 81.0, 79.0, 80.5], "lower", 0.10) == "better"
    noisy = [80.0, 100.0, 120.0, 140.0]
    assert stats.verdict(noisy, [85.0, 105.0, 125.0, 150.0], "lower", 0.10) == "unresolved"
    # ... unless every run of one side beats every run of the other
    assert stats.verdict(noisy, [40.0, 50.0, 60.0, 70.0], "lower", 0.10) == "better"
    assert stats.verdict(noisy, [200.0, 230.0, 260.0, 300.0], "lower", 0.10) == "REGRESSED"
    assert stats.verdict([10.0, 10.1], [12.0, 12.1], "higher", 0.10) == "better"


def test_exact_metrics_must_read_the_same_on_every_run():
    assert stats.exact_verdict([9.98, 9.98], [9.98, 9.98, 9.98]) == "identical"
    assert stats.exact_verdict([9.98, 9.98], [9.98, 9.99]) == "DIFFERS"
