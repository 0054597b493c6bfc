"""End-to-end integration tests: the paper's headline claims in miniature."""

import numpy as np
import pytest

from repro import AccuracyTarget, FocusSystem, Policy, grade
from repro.baselines import IngestAllBaseline, QueryAllBaseline
from repro.cnn import resnet152


@pytest.fixture(scope="module")
def deployment():
    """One tuned + ingested stream with both baselines alongside."""
    system = FocusSystem()
    handle = system.ingest_stream("auburn_c", duration_s=180.0, fps=30.0)
    gt = resnet152()
    ingest_all = IngestAllBaseline(gt)
    query_all = QueryAllBaseline(gt)
    ia = ingest_all.ingest(handle.table)
    query_all.ingest(handle.table)
    return system, handle, ia, query_all


def test_focus_beats_ingest_all_on_cost(deployment):
    """Headline: Focus ingest is tens of times cheaper than Ingest-all."""
    system, handle, ia, _ = deployment
    factor = ia.ingest_gpu_seconds / handle.ingest.ingest_gpu_seconds
    assert factor > 20


def test_focus_beats_query_all_on_latency(deployment):
    """Headline: Focus queries are many times faster than Query-all."""
    system, handle, _, query_all = deployment
    focus, baseline = [], []
    for cls in handle.tuning.dominant_classes:
        answer = system.query("auburn_c", int(cls))
        focus.append(answer.result.gpu_seconds)
        baseline.append(query_all.query("auburn_c", int(cls)).gpu_seconds)
    assert np.mean(baseline) / np.mean(focus) > 5


def test_accuracy_targets_hold_end_to_end(deployment):
    """Headline: >= 95% precision and recall against the GT-CNN."""
    system, handle, _, _ = deployment
    precisions, recalls = [], []
    for cls in handle.tuning.dominant_classes:
        accuracy = grade(system.query("auburn_c", int(cls)), {"auburn_c": handle.table})
        precisions.append(accuracy.precision)
        recalls.append(accuracy.recall)
    assert np.mean(precisions) >= 0.95
    assert np.mean(recalls) >= 0.94


def test_results_agree_with_ingest_all_queries(deployment):
    """Focus and Ingest-all answer the same question: their returned
    segments overlap almost entirely."""
    system, handle, _, _ = deployment
    cls = int(handle.tuning.dominant_classes[0])
    answer = system.query("auburn_c", cls)
    from repro.core.metrics import gt_segments, result_segments

    truth = gt_segments(handle.table, cls)
    got = result_segments(handle.table, answer.result.returned_rows)
    assert len(got & truth) / max(len(truth), 1) >= 0.9


def test_opt_policies_end_to_end():
    """Opt-Ingest ingests no more expensively than Opt-Query."""
    ingest_costs = {}
    for policy in (Policy.OPT_INGEST, Policy.OPT_QUERY):
        system = FocusSystem(policy=policy)
        handle = system.ingest_stream("jacksonh", duration_s=120.0, fps=30.0)
        ingest_costs[policy] = handle.ingest.ingest_gpu_seconds
    assert ingest_costs[Policy.OPT_INGEST] <= ingest_costs[Policy.OPT_QUERY] * 1.05


def test_stricter_target_still_met():
    """A 98% target is achievable and actually delivered (Section 6.5)."""
    target = AccuracyTarget(precision=0.98, recall=0.98)
    system = FocusSystem(target=target)
    handle = system.ingest_stream("lausanne", duration_s=150.0, fps=30.0)
    recalls = []
    for cls in handle.tuning.dominant_classes:
        answer = system.query("lausanne", int(cls))
        recalls.append(grade(answer, {"lausanne": handle.table}).recall)
    assert np.mean(recalls) >= 0.95
