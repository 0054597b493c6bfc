"""The evaluator (``repro.core.metrics.grade``) and a serving path that
never reads the ground truth.

Focus returns frames; the paper grades them offline against GT-CNN
labels (Section 6.1).  The pins below are the per-answer segment counts
and precision/recall the serving path used to attach to its own answers
before grading moved out of it, float for float: single-stream with and
without a window, cross-stream with an evidence-free stream, a
cache-served answer and a sharded one.
"""

import math
import sys

import pytest

from repro.cnn.zoo import cheap_cnn
from repro.core import metrics as metrics_module
from repro.core.config import FocusConfig
from repro.core.metrics import Grade, SegmentMetrics, grade
from repro.core.system import FocusSystem
from repro.fabric import FabricRouter, FabricSupervisor, ShardNode
from repro.serve.frontdoor import FrontDoor, TenantBudget
from repro.serve.planner import QueryRequest
from test_fabric import FABRIC_STREAMS, frame_aligned_chunks

#: "suitcase" is on three of these cameras and absent from lausanne
PIN_STREAMS = ["church_st", "lausanne", "oxford", "sittard"]

#: every answer of the suitcase query, however it was served
SUITCASE = (
    {"church_st": (32, 5, 5), "lausanne": (0, 0, 0), "oxford": (29, 1, 1), "sittard": (16, 33, 16)},
    0.5641025641025641,
    0.2857142857142857,
)
BENCH = (
    {"church_st": (0, 0, 0), "lausanne": (0, 0, 0), "oxford": (24, 1, 1), "sittard": (39, 19, 19)},
    1.0,
    0.31746031746031744,
)


def feed(front, tables, config, **kwargs):
    for name, table in tables.items():
        front.open_stream(name, fps=10.0, config=config, **kwargs)
        for chunk in frame_aligned_chunks(table):
            front.append(name, chunk)
    return front


def pinned(result):
    """``(per-stream segment counts, precision, recall)`` of a grade."""
    counts = {
        name: (m.true_segments, m.returned_segments, m.correct_segments)
        for name, m in result.per_stream.items()
    }
    return counts, result.precision, result.recall


@pytest.fixture(scope="module")
def pin_tables(table_factory):
    return {name: table_factory(name, 60.0, 10.0) for name in PIN_STREAMS}


@pytest.fixture(scope="module")
def pin_config():
    # a loose T and a wide K make impure clusters: precision below 1.0
    return FocusConfig(model=cheap_cnn(1), k=10, cluster_threshold=0.3)


@pytest.fixture(scope="module")
def pin_system(pin_tables, pin_config):
    return feed(FocusSystem(), pin_tables, pin_config)


class TestGradePins:
    @pytest.mark.parametrize(
        "stream, clazz, time_range, want",
        [
            ("sittard", "bench", None, ({"sittard": (39, 19, 19)}, 1.0, 0.48717948717948717)),
            ("sittard", "bench", (10.0, 45.0), ({"sittard": (29, 16, 16)}, 1.0, 0.5517241379310345)),
            ("church_st", "suitcase", (2.0, 40.0), ({"church_st": (25, 5, 5)}, 1.0, 0.2)),
        ],
    )
    def test_single_stream(self, pin_system, pin_tables, stream, clazz, time_range, want):
        answer = pin_system.query(stream, clazz, time_range=time_range)
        assert pinned(grade(answer, pin_tables, time_range)) == want

    def test_cross_stream_with_an_evidence_free_stream(self, pin_system, pin_tables):
        answer = pin_system.query_all("suitcase")
        assert pinned(grade(answer, pin_tables)) == SUITCASE
        window = (5.0, 50.0)
        answer = pin_system.query_all("bench", time_range=window)
        assert pinned(grade(answer, pin_tables, window)) == BENCH

    def test_cache_served_answer(self, pin_system, pin_tables):
        pin_system.query_all("suitcase")
        cached = pin_system.query_all("suitcase")
        assert cached.gt_inferences == 0 and cached.cache_hits > 0
        assert pinned(grade(cached, pin_tables)) == SUITCASE

    def test_sharded_answer(self, pin_tables, pin_config):
        router = FabricRouter([ShardNode("shard-0"), ShardNode("shard-1")])
        feed(router, pin_tables, pin_config, durable=False)
        assert len({router.placement.shard_of(s) for s in PIN_STREAMS}) == 2
        assert pinned(grade(router.query_all("suitcase"), pin_tables)) == SUITCASE
        requests = [
            QueryRequest("bench"),
            QueryRequest("dog", time_range=(2.0, 40.0)),
            QueryRequest("suitcase", streams=["oxford", "sittard"], kx=1),
        ]
        answers = router.query_batch(requests)
        assert [pinned(grade(a, pin_tables, r.time_range)) for a, r in zip(answers, requests)] == [
            BENCH,
            (
                {"church_st": (0, 0, 0), "lausanne": (30, 11, 11), "oxford": (0, 0, 0), "sittard": (0, 0, 0)},
                1.0,
                0.36666666666666664,
            ),
            ({"oxford": (29, 0, 0), "sittard": (16, 0, 0)}, 1.0, 0.0),
        ]


class TestAggregate:
    """Cross-stream precision/recall weight by evidence, not presence."""

    @staticmethod
    def _grade(by_stream):
        return Grade.aggregate(
            {name: SegmentMetrics(0, *counts) for name, counts in by_stream.items()}
        )

    def test_absent_streams_do_not_dilute_recall(self):
        # one stream has the class (recall 0.5); nine report a vacuous
        # 1.0 with zero ground-truth segments
        streams = {"s0": (2, 1, 1)}
        streams.update({"s%d" % i: (0, 0, 0) for i in range(1, 10)})
        assert self._grade(streams).recall == pytest.approx(0.5)

    def test_all_vacuous_is_vacuous(self):
        result = self._grade({"a": (0, 0, 0), "b": (0, 0, 0)})
        assert (result.precision, result.recall) == (1.0, 1.0)

    def test_weighted_by_evidence(self):
        assert self._grade({"a": (8, 8, 8), "b": (2, 2, 0)}).recall == pytest.approx(0.8)

    def test_an_answer_without_streams_has_no_grade(self):
        result = self._grade({})
        assert math.isnan(result.precision) and math.isnan(result.recall)


# ---------------------------------------------------------------------------
# serving never reads the truth
# ---------------------------------------------------------------------------

REQUESTS = [
    QueryRequest("car"),
    QueryRequest("pedestrian", time_range=(2.0, 12.0)),
    QueryRequest(1, streams=FABRIC_STREAMS[:2], kx=1),
]


def single(front):
    """Frames and candidate counts of fixed single-stream queries."""
    out = []
    for clazz in ("car", "pedestrian"):
        answer = front.query(FABRIC_STREAMS[2], clazz, time_range=(3.0, 20.0))
        out.append((answer.frames.tolist(), len(answer.result.candidate_clusters)))
    return out


def batched(query_batch):
    """Frames and candidate counts of a fixed batch, served twice (the
    second round from the verification cache)."""
    out = []
    for answer in query_batch(REQUESTS) + query_batch(REQUESTS):
        frames = {name: r.frames.tolist() for name, r in answer.slices.items()}
        out.append((frames, answer.candidates))
    return out


def served(front):
    return single(front), batched(front.query_batch)


def test_serving_never_reads_the_truth(table_factory, live_config, monkeypatch):
    tables = {name: table_factory(name, 30.0, 10.0) for name in FABRIC_STREAMS}
    want = served(feed(FocusSystem(), tables, live_config))

    def refuse(*args, **kwargs):
        raise AssertionError("the serving path read the ground truth")

    # every binding, including ``from repro.core.metrics import ...``
    # copies, and the helper under every segment count
    truth = [metrics_module.gt_segments, metrics_module.segment_metrics_in_range]
    for module in [m for name, m in sys.modules.items() if name.startswith("repro")]:
        for name, value in list(vars(module).items()):
            if any(value is f for f in truth):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(metrics_module, "_segments_from_rows", refuse)

    system = feed(FocusSystem(), tables, live_config)
    assert served(system) == want
    singly = [system.query_all(r.clazz, r.streams, r.kx, r.time_range) for r in REQUESTS]
    assert batched(lambda requests: singly) == want[1]
    local = FabricRouter([ShardNode("shard-0"), ShardNode("shard-1")])
    assert served(feed(local, tables, live_config, durable=False)) == want
    backend = FabricRouter([ShardNode("door-0"), ShardNode("door-1")])
    door = FrontDoor(
        feed(backend, tables, live_config, durable=False),
        {"t": TenantBudget(qps=1000.0, burst=100.0)},
        backpressure=False,
    )
    assert batched(lambda requests: door.query_batch("t", requests)) == want[1]
    # forked after the patch: the workers cannot read the truth either
    with FabricSupervisor(["shard-0", "shard-1"]) as supervisor:
        remote = FabricRouter(supervisor.clients())
        assert served(feed(remote, tables, live_config, durable=False)) == want
