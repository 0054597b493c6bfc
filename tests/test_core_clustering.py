"""Unit tests for single-pass incremental clustering (Section 4.2)."""

import gc
import json
import tracemalloc

import numpy as np
import pytest

from repro.core.clustering import (
    ClusterSummary,
    IncrementalClusterer,
    cluster_features,
    cluster_table,
    feature_rows_needed,
    summarize,
)
from repro.cnn.zoo import cheap_cnn
from repro.core.config import FocusConfig
from repro.core.ingest import simulate_pixel_diff
from repro.core.system import FocusSystem
from repro.storage.packing import pack_array
from repro.video.synthesis import generate_observations


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def _clusterer(threshold=0.3, dim=4, **kw):
    return IncrementalClusterer(threshold=threshold, dim=dim, **kw)


def clusterer_state(clusterer):
    """What a clusterer holds, as plain data: its live slots
    (``bounded_state``), its track map and its snapshot's arrays."""
    summary = clusterer.snapshot()
    return {
        "live": clusterer.bounded_state(),
        "track_cache": dict(clusterer._track_cache),
        "snapshot": [
            a.tolist() for a in (summary.assignments, summary.seed_rows, summary.sizes)
        ],
    }


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
    summary = c.snapshot()
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
    before = json.dumps(clusterer_state(c), sort_keys=True)
    with pytest.raises(ValueError, match=arg):
        c.add(feats, tracks, **{arg: [True, False, True]})
    assert json.dumps(clusterer_state(c), sort_keys=True) == before
    assert c.snapshot().num_observations == 2


def test_plain_list_masks_accepted():
    feats, tracks = _six_rows()
    sup = [False, True, False, True, False, True]
    from_list = _clusterer().add(feats, tracks, suppressed=sup,
                                 feature_valid=[not s for s in sup])
    from_array = _clusterer().add(feats, tracks, suppressed=np.array(sup))
    np.testing.assert_array_equal(from_list, from_array)


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
        # one-shot path (feature_chunks): one whole-table mask
        one_shot = cluster_features([(tracks, suppressed, poisoned, need)], dim, threshold)
        np.testing.assert_array_equal(one_shot.assignments, expected)
        # live path (extract_and_cluster_chunk): per-chunk masks against
        # the tracks seen so far
        live = IncrementalClusterer(threshold, dim)
        for a in range(0, len(tracks), 257):
            b = a + 257
            mask = live.feature_rows_needed(tracks[a:b], suppressed[a:b])
            chunk = features[a:b].copy()
            chunk[~mask] = -1e308
            live.add(chunk, tracks[a:b], suppressed=suppressed[a:b], feature_valid=mask)
        np.testing.assert_array_equal(live.snapshot().assignments, expected)
    # a mask that leaves out a row the loop reads (row 0 opens the
    # first cluster) is refused, not filled
    short = need.copy()
    short[0] = False
    with pytest.raises(ValueError, match="not extracted"):
        IncrementalClusterer(threshold, dim).add(
            poisoned, tracks, suppressed=suppressed, feature_valid=short)


def test_empty_snapshot():
    summary = _clusterer().snapshot()
    assert summary.num_clusters == 0
    assert summary.num_observations == 0


def test_summarize_continues_as_it_starts():
    """A summary continued from a prefix's equals one built from
    scratch; ids past the count, or one without a row, are refused."""
    assignments = np.array([0, 0, 1, 0, 2, 1, 3, 3, 2])
    whole = summarize(assignments, 4)
    assert whole.seed_rows.tolist() == [0, 2, 4, 6]
    assert whole.sizes.tolist() == [3, 2, 2, 2]
    continued = summarize(assignments, 4, summarize(assignments[:5], 3))
    for a, b in ((continued.seed_rows, whole.seed_rows), (continued.sizes, whole.sizes)):
        assert a.dtype == b.dtype == np.int64
        np.testing.assert_array_equal(a, b)
    for bad, count in (([0, 2], 3), ([0, 1], 1), ([0, 1], 3)):
        with pytest.raises(ValueError, match="next ones"):
            summarize(np.array(bad), count)


def test_restore_derives_history_from_the_rows():
    """``from_state_dict`` gets the live slots and two row columns; the
    seeds, sizes and track map it derives are the live instance's, and
    ingest continues identically -- suppressed rows of a retired
    cluster's track included."""
    feats, tracks = _six_rows()
    sup = np.array([False, True, False, True, False, True])
    live = _clusterer(max_live_clusters=1)
    ids = live.add(feats, tracks, suppressed=sup)
    restored = IncrementalClusterer.from_state_dict(
        json.loads(json.dumps(live.bounded_state())),
        pack_array(ids, np.int64), pack_array(tracks, np.int64))
    assert clusterer_state(restored) == clusterer_state(live)
    # the unpacked columns are read-only: an empty chunk must not write them
    assert len(restored.add(np.zeros((0, 4)), np.zeros(0, dtype=np.int64))) == 0
    more_tracks = np.array([0, 1, 2, 0])
    more_sup = np.array([True, True, True, False])
    more = np.stack([feats[0], feats[2], feats[4], feats[5]])
    np.testing.assert_array_equal(
        restored.add(more, more_tracks, suppressed=more_sup),
        live.add(more, more_tracks, suppressed=more_sup))
    assert clusterer_state(restored) == clusterer_state(live)
    with pytest.raises(ValueError, match="rows seen"):
        IncrementalClusterer.from_state_dict(live.bounded_state(), ids, tracks)


# -- slots on demand ---------------------------------------------------------------

def _slot_rows(clusterer):
    """The one row count every slot column has."""
    (rows,) = {len(column) for column in (
        clusterer._sums, clusterer._centroids, clusterer._cnorm2, clusterer._counts,
        clusterer._scan_buf, clusterer._dense, clusterer._live_ids)}
    return rows


def test_slots_grow_once_from_64_to_max_live():
    """A clusterer holds 64 slots until a 65th cluster is live at once,
    then exactly ``max_live``; a restore sizes by its live clusters."""
    far_apart = np.eye(70)  # every row opens a cluster
    tracks = np.arange(70)
    clusterer = _clusterer(dim=70, max_live_clusters=512)
    assert _slot_rows(clusterer) == 64
    clusterer.add(far_apart[:64], tracks[:64])
    assert (clusterer._n_live, _slot_rows(clusterer)) == (64, 64)
    restored = IncrementalClusterer.from_state_dict(
        clusterer.bounded_state(), clusterer.snapshot().assignments, tracks[:64])
    assert _slot_rows(restored) == 64
    for c in (clusterer, restored):
        c.add(far_apart[64:65], tracks[64:65])
        assert (c._n_live, _slot_rows(c)) == (65, 512)
    assert clusterer_state(restored) == clusterer_state(clusterer)
    assert _slot_rows(IncrementalClusterer.from_state_dict(
        clusterer.bounded_state(), clusterer.snapshot().assignments, tracks[:65])) == 512
    assert _slot_rows(_clusterer(max_live_clusters=5)) == 5


def test_a_stream_holds_slots_for_its_live_clusters():
    """Opening a stream and appending 500 rows holds at most 0.4 MB
    (traced): two ``max_live`` x 128 float64 slot arrays alone were 1 MiB."""
    config = FocusConfig(cheap_cnn(1), k=4, cluster_threshold=0.4)
    chunk = generate_observations("auburn_c", 60.0, 10.0).slice(0, 500)
    systems = [FocusSystem(), FocusSystem()]

    def open_and_append(system):
        system.open_stream("auburn_c", fps=10.0, config=config)
        system.append("auburn_c", chunk)

    open_and_append(systems[0])  # process-wide caches: class prototypes, imports
    gc.collect()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        open_and_append(systems[1])
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert held <= 0.4e6
