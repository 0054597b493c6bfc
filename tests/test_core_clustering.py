"""Unit tests for single-pass incremental clustering (Section 4.2)."""

import json

import numpy as np
import pytest

from repro.core.clustering import (
    ClusterSummary,
    IncrementalClusterer,
    cluster_features,
    cluster_table,
    feature_rows_needed,
)
from repro.core.ingest import simulate_pixel_diff


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _clusterer(threshold=0.3, dim=4, **kw):
    return IncrementalClusterer(threshold=threshold, dim=dim, **kw)


def test_first_object_opens_cluster():
    c = _clusterer()
    ids = c.add(np.array([_unit([1, 0, 0, 0])]), np.array([0]))
    assert ids.tolist() == [0]
    assert c.num_clusters == 1


def test_close_objects_share_cluster():
    c = _clusterer(threshold=0.5)
    base = _unit([1, 0, 0, 0])
    near = _unit([1, 0.1, 0, 0])
    ids = c.add(np.stack([base, near]), np.array([0, 1]))
    assert ids[0] == ids[1]


def test_far_object_opens_new_cluster():
    c = _clusterer(threshold=0.5)
    ids = c.add(
        np.stack([_unit([1, 0, 0, 0]), _unit([0, 1, 0, 0])]), np.array([0, 1])
    )
    assert ids[0] != ids[1]
    assert c.num_clusters == 2


def test_joins_nearest_cluster():
    c = _clusterer(threshold=0.8)
    a = _unit([1, 0, 0, 0])
    b = _unit([0, 1, 0, 0])
    probe = _unit([1, 0.2, 0, 0])  # nearer to a
    ids = c.add(np.stack([a, b, probe]), np.array([0, 1, 2]))
    assert ids[2] == ids[0]


def test_track_shortcut_semantics_match_strict():
    """The per-track shortcut must agree with the strict scan on data
    where the previous cluster is the nearest one (the common case)."""
    rng = np.random.RandomState(0)
    n, dim = 400, 8
    track_ids = np.repeat(np.arange(20), 20)
    anchors = rng.normal(size=(20, dim))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    feats = anchors[track_ids] + rng.normal(scale=0.01, size=(n, dim))

    fast = _clusterer(threshold=0.2, dim=dim, strict=False)
    slow = _clusterer(threshold=0.2, dim=dim, strict=True)
    ids_fast = fast.add(feats, track_ids)
    ids_slow = slow.add(feats, track_ids)
    np.testing.assert_array_equal(ids_fast, ids_slow)
    assert fast.shortcut_hits > 0


def test_live_cluster_cap_evicts_smallest():
    c = _clusterer(threshold=0.05, dim=4, max_live_clusters=3)
    # four far-apart singletons: eviction must kick in, ids stay valid
    vectors = np.eye(4)
    ids = c.add(vectors, np.arange(4))
    assert c.num_clusters == 4
    assert sorted(ids.tolist()) == [0, 1, 2, 3]
    summary = c.finalize()
    assert summary.num_clusters == 4
    assert (summary.sizes == 1).all()


def test_evicted_cluster_cannot_absorb():
    c = _clusterer(threshold=0.3, dim=4, max_live_clusters=2)
    a = _unit([1, 0, 0, 0])
    b = _unit([0, 1, 0, 0])
    d = _unit([0, 0, 1, 0])
    c.add(np.stack([a, a, b, d]), np.array([0, 0, 1, 2]))  # a has size 2; b evicted
    # a new object near b opens a fresh cluster (b is retired)
    ids = c.add(np.array([b]), np.array([3]))
    assert int(ids[0]) == c.num_clusters - 1


def test_suppressed_rows_join_track_cluster():
    c = _clusterer(threshold=0.3, dim=4)
    a = _unit([1, 0, 0, 0])
    junk = _unit([0, 0, 0, 1])  # far away; must be ignored for suppressed row
    ids = c.add(np.stack([a, junk]), np.array([7, 7]),
                suppressed=np.array([False, True]))
    assert ids[0] == ids[1]


def test_summary_invariants(small_table, spec_model):
    summary = cluster_table(small_table, spec_model, threshold=0.12)
    assert summary.num_observations == len(small_table)
    # sizes sum to observations; every cluster has a seed row
    assert summary.sizes.sum() == len(small_table)
    assert len(summary.seed_rows) == summary.num_clusters
    # seed row of each cluster is one of its members and carries its id
    members = summary.members_by_cluster()
    for cid in range(summary.num_clusters):
        assert summary.assignments[summary.seed_rows[cid]] == cid
        assert summary.seed_rows[cid] in members[cid]
        assert len(members[cid]) == summary.sizes[cid]


def test_threshold_monotone_cluster_count(small_table, spec_model):
    """Larger T merges more: cluster count decreases monotonically."""
    counts = [
        cluster_table(small_table, spec_model, threshold=t).num_clusters
        for t in (0.05, 0.12, 0.3)
    ]
    assert counts[0] >= counts[1] >= counts[2]


def test_chunked_equals_single_pass(tiny_table, spec_model):
    whole = cluster_table(tiny_table, spec_model, threshold=0.12, chunk_rows=10 ** 9)
    chunked = cluster_table(tiny_table, spec_model, threshold=0.12, chunk_rows=97)
    np.testing.assert_array_equal(whole.assignments, chunked.assignments)


def test_parameter_validation():
    with pytest.raises(ValueError):
        IncrementalClusterer(threshold=-1, dim=4)
    with pytest.raises(ValueError):
        IncrementalClusterer(threshold=0.1, dim=4, max_live_clusters=0)
    c = _clusterer()
    with pytest.raises(ValueError):
        c.add(np.zeros((2, 4)), np.zeros(3))


def _six_rows():
    feats = np.stack([_unit(v) for v in (
        [1, 0, 0, 0], [1, 0.01, 0, 0], [0, 1, 0, 0],
        [0, 1, 0.01, 0], [0, 0, 1, 0], [0, 0, 1, 0.01],
    )])
    return feats, np.array([0, 0, 1, 1, 2, 2])


@pytest.mark.parametrize("arg", ["suppressed", "feature_valid"])
def test_misaligned_mask_rejected_before_any_row(arg):
    """Regression: a short mask used to raise IndexError mid-loop with
    half the chunk already applied (sizes ahead of rows_seen)."""
    feats, tracks = _six_rows()
    c = _clusterer()
    c.add(feats[:2], tracks[:2])
    before = json.dumps(c.state_dict(), sort_keys=True)
    with pytest.raises(ValueError, match=arg):
        c.add(feats, tracks, **{arg: [True, False, True]})
    assert json.dumps(c.state_dict(), sort_keys=True) == before
    assert c.snapshot().num_observations == 2


def test_plain_list_masks_accepted():
    feats, tracks = _six_rows()
    sup = [False, True, False, True, False, True]
    from_list = _clusterer().add(feats, tracks, suppressed=sup,
                                 feature_valid=[not s for s in sup])
    from_array = _clusterer().add(feats, tracks, suppressed=np.array(sup))
    np.testing.assert_array_equal(from_list, from_array)


def test_legacy_checkpoint_keys_ignored():
    """State dicts written while the batch kernel and its selector
    existed carry four extra keys; loading one continues bit-identically
    to a clusterer that never stopped."""
    rng = np.random.RandomState(5)
    n, dim = 300, 8
    tracks = rng.randint(0, 12, size=n)
    anchors = rng.normal(size=(12, dim))
    feats = anchors[tracks] + rng.normal(scale=0.05, size=(n, dim))
    sup = rng.uniform(size=n) < 0.3
    kw = dict(threshold=0.4, dim=dim, max_live_clusters=4)
    whole = IncrementalClusterer(**kw)
    whole.add(feats, tracks, suppressed=sup)

    first = IncrementalClusterer(**kw)
    first.add(feats[:140], tracks[:140], suppressed=sup[:140])
    legacy = dict(first.state_dict(), kernel="auto", recent_scans=17,
                  recent_rows=140, active_kernel="batch")
    resumed = IncrementalClusterer.from_state_dict(
        json.loads(json.dumps(legacy)))
    resumed.add(feats[140:], tracks[140:], suppressed=sup[140:])
    assert resumed.state_dict() == whole.state_dict()


@pytest.mark.parametrize("threshold", [0.4, 0.04])
def test_unextracted_rows_are_never_touched(small_table, cheap_model, threshold):
    """Rows ``feature_valid`` leaves out are ``np.empty`` on the real
    ingest paths: the clusterer may not read them, not even to square
    them into a buffer it then ignores."""
    features = cheap_model.feature_extractor().extract(small_table).astype(np.float64)
    tracks, dim = small_table.track_id, features.shape[1]
    suppressed = simulate_pixel_diff(small_table)
    expected = IncrementalClusterer(threshold, dim).add(
        features, tracks, suppressed=suppressed)

    need = feature_rows_needed(tracks, suppressed)
    assert 0 < need.sum() < len(need)
    poisoned = features.copy()
    poisoned[~need] = np.resize([np.nan, 1e308, -1e308], (int((~need).sum()), 1))
    with np.errstate(all="raise"):
        # one-shot path: whole-table mask, no fill callback
        one_shot = cluster_features([(tracks, suppressed, poisoned, need)], dim, threshold)
        np.testing.assert_array_equal(one_shot.assignments, expected)
        # live path: per-chunk masks against the tracks seen so far
        live = IncrementalClusterer(threshold, dim)
        for a in range(0, len(tracks), 257):
            b = a + 257
            mask = live.feature_rows_needed(tracks[a:b], suppressed[a:b])
            chunk = features[a:b].copy()
            chunk[~mask] = -1e308
            live.add(chunk, tracks[a:b], suppressed=suppressed[a:b], feature_valid=mask)
        np.testing.assert_array_equal(live.finalize().assignments, expected)


def test_empty_finalize():
    summary = _clusterer().finalize()
    assert summary.num_clusters == 0
    assert summary.num_observations == 0
