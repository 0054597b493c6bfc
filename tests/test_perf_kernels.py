"""Equivalence guarantees of the ingest hot path.

The clusterer has one kernel; what still has two sides is how a stream
reaches it.  These tests pin identical assignments, seed rows, sizes,
and counters, bit for bit, across chunkings and checkpoint round trips
(over random thresholds, suppression masks, and eviction pressure), and
the fast path against the ``strict=True`` always-scan oracle.
"""

import json

import numpy as np
import pytest

from repro.cnn.zoo import cheap_cnn, resnet152
from repro.core.clustering import (
    IncrementalClusterer,
    cluster_table,
    group_rows_by_cluster,
    grouped_min_max,
)
from repro.core.config import FocusConfig
from repro.core.ingest import IngestPipeline, simulate_pixel_diff
from repro.core.streaming import StreamIngestor
from repro.video.synthesis import generate_observations


@pytest.fixture(scope="module")
def stream_table():
    return generate_observations("auburn_c", 90.0, 30.0)


@pytest.fixture(scope="module")
def model():
    return cheap_cnn(1)


def _tracky_workload(rng, n, dim, n_tracks, jump_prob=0.15, sup_prob=0.3):
    """Interleaved multi-track features: tight runs with occasional jumps."""
    track_ids = rng.randint(0, n_tracks, size=n)
    anchors = rng.normal(size=(n_tracks, dim))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    feats = anchors[track_ids] + rng.normal(scale=0.08, size=(n, dim))
    jump = rng.uniform(size=n) < jump_prob
    feats[jump] += rng.normal(scale=1.0, size=(int(jump.sum()), dim))
    sup = rng.uniform(size=n) < sup_prob
    return feats, track_ids, sup


def _run(feats, track_ids, sup, threshold, max_live, bounds,
         restore_at=None):
    """Feed ``bounds``-delimited chunks; ``restore_at`` swaps the
    clusterer for its own state_dict -> from_state_dict copy before the
    chunk starting at that row."""
    clusterer = IncrementalClusterer(
        threshold=threshold, dim=feats.shape[1],
        max_live_clusters=max_live,
    )
    outs = []
    for a, b in zip(bounds, bounds[1:]):
        if a == restore_at:
            clusterer = IncrementalClusterer.from_state_dict(
                json.loads(json.dumps(clusterer.state_dict())))
        outs.append(
            clusterer.add(feats[a:b], track_ids[a:b], suppressed=sup[a:b]))
    summary = clusterer.finalize()
    return (
        np.concatenate(outs), summary,
        clusterer.full_scans, clusterer.shortcut_hits,
    )


def _assert_same_run(got, ref):
    np.testing.assert_array_equal(got[0], ref[0])
    np.testing.assert_array_equal(got[1].assignments, ref[1].assignments)
    np.testing.assert_array_equal(got[1].seed_rows, ref[1].seed_rows)
    np.testing.assert_array_equal(got[1].sizes, ref[1].sizes)
    assert got[2] == ref[2] and got[3] == ref[3]


class TestKernelBitIdentity:
    @pytest.mark.parametrize("seed", range(8))
    def test_chunked_and_restored_match_whole_randomized(self, seed):
        """Assignments, seeds, sizes, and counters agree bit for bit on
        adversarial data (shared clusters, evictions, suppression)
        between one add of the whole input, a chunked feed, and a
        chunked feed checkpointed and restored mid-stream."""
        rng = np.random.RandomState(1000 + seed)
        n = rng.randint(80, 500)
        dim = int(rng.choice([4, 8, 16]))
        threshold = float(rng.choice([0.05, 0.2, 0.5, 1.0]))
        max_live = int(rng.choice([2, 4, 16, 512]))
        sup_prob = float(rng.choice([0.0, 0.3, 0.7]))
        feats, track_ids, sup = _tracky_workload(
            rng, n, dim, rng.randint(2, 25), sup_prob=sup_prob
        )
        cuts = sorted(set(rng.choice(np.arange(1, n), size=3).tolist()))
        bounds = [0] + cuts + [n]
        whole = _run(feats, track_ids, sup, threshold, max_live, [0, n])
        chunked = _run(feats, track_ids, sup, threshold, max_live, bounds)
        _assert_same_run(chunked, whole)
        for cut in cuts:
            restored = _run(feats, track_ids, sup, threshold, max_live,
                            bounds, restore_at=cut)
            _assert_same_run(restored, whole)

    @pytest.mark.parametrize("threshold", [0.1, 0.25, 0.5])
    def test_fast_path_matches_strict_on_dense_input(self, threshold):
        """Acceptance: on dense (non-suppressed) track-structured data,
        the fast path's assignments are bit-identical to strict=True."""
        rng = np.random.RandomState(7)
        n, dim, n_tracks = 600, 16, 12
        track_ids = np.repeat(np.arange(n_tracks), n // n_tracks)
        track_ids = track_ids.reshape(n_tracks, -1).T.ravel()  # interleaved
        anchors = rng.normal(size=(n_tracks, dim))
        anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
        feats = anchors[track_ids] + rng.normal(scale=0.01, size=(n, dim))
        fast = IncrementalClusterer(threshold=threshold, dim=dim)
        strict = IncrementalClusterer(threshold=threshold, dim=dim,
                                      strict=True)
        np.testing.assert_array_equal(
            fast.add(feats, track_ids), strict.add(feats, track_ids)
        )
        assert fast.shortcut_hits > 0

    def test_fast_path_matches_strict_with_suppression(self):
        """Suppressed rows rejoin their track's cluster in both modes.

        Data obeys the paper's Section 2.2.3 premise (consecutive
        observations of one track nearly identical, tracks well
        separated) -- the regime where the shortcut provably agrees
        with the full scan."""
        rng = np.random.RandomState(11)
        track_ids = rng.randint(0, 10, size=400)
        anchors = rng.normal(size=(10, 8))
        anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
        feats = anchors[track_ids] + rng.normal(scale=0.01, size=(400, 8))
        sup = rng.uniform(size=400) < 0.4
        fast = IncrementalClusterer(threshold=0.3, dim=8)
        strict = IncrementalClusterer(threshold=0.3, dim=8, strict=True)
        np.testing.assert_array_equal(
            fast.add(feats, track_ids, suppressed=sup),
            strict.add(feats, track_ids, suppressed=sup),
        )

    def test_chunking_invariance(self, stream_table, model):
        """cluster_table gives identical assignments for any chunking
        (features are extracted dense-rows-only)."""
        sup = simulate_pixel_diff(stream_table)
        whole = cluster_table(stream_table, model, threshold=0.25,
                              suppressed=sup, chunk_rows=10 ** 9)
        for chunk_rows in (97, 1024):
            chunked = cluster_table(
                stream_table, model, threshold=0.25, suppressed=sup,
                chunk_rows=chunk_rows,
            )
            np.testing.assert_array_equal(
                whole.assignments, chunked.assignments
            )


class TestRetiredClusterSemantics:
    def test_suppressed_row_follows_retired_cluster(self):
        """Pixel-diff matching is independent of the live set: a
        suppressed observation extends its track's cluster even after
        that cluster was retired (its id stays valid)."""
        clusterer = IncrementalClusterer(threshold=0.1, dim=4,
                                         max_live_clusters=2)
        eye = np.eye(4)
        # track 0 opens cluster 0; tracks 1..2 force it out of the live set
        clusterer.add(eye[:3], np.array([0, 1, 2]))
        assert 0 not in clusterer._slot_of_id  # cluster 0 retired
        sup = np.array([True])
        ids = clusterer.add(eye[:1] * np.nan, np.array([0]), suppressed=sup)
        assert ids.tolist() == [0]
        summary = clusterer.finalize()
        assert summary.sizes[0] == 2

    def test_dense_row_cannot_rejoin_retired_cluster(self):
        """A dense row of the same track must re-scan: the retired
        cluster is out of the live set (matches pre-PR behaviour)."""
        clusterer = IncrementalClusterer(threshold=0.1, dim=4,
                                         max_live_clusters=2)
        eye = np.eye(4)
        clusterer.add(eye[:3], np.array([0, 1, 2]))
        ids = clusterer.add(eye[:1], np.array([0]))
        assert int(ids[0]) == clusterer.num_clusters - 1  # fresh cluster


class TestGrouping:
    def test_group_rows_by_cluster_empty_groups_not_aliased(self):
        """Regression: empty groups used to share one list-multiplied
        array object; each group must be its own array."""
        assignments = np.array([0, 3, 0, 3], dtype=np.int64)
        groups = group_rows_by_cluster(assignments, 5)
        assert [len(g) for g in groups] == [2, 0, 0, 2, 0]
        empties = [groups[1], groups[2], groups[4]]
        assert len({id(g) for g in empties}) == 3
        np.testing.assert_array_equal(groups[0], [0, 2])
        np.testing.assert_array_equal(groups[3], [1, 3])

    def test_grouped_min_max(self):
        assignments = np.array([1, 0, 1, 1], dtype=np.int64)
        values = np.array([5.0, 2.0, 7.0, 1.0])
        first, last = grouped_min_max(assignments, 3, values)
        np.testing.assert_allclose(first, [2.0, 1.0, 0.0])
        np.testing.assert_allclose(last, [2.0, 7.0, 0.0])


class TestFeatureRowsNeeded:
    def test_only_unknown_first_suppressed_rows_need_features(self):
        clusterer = IncrementalClusterer(threshold=0.3, dim=4)
        tracks = np.array([7, 7, 8, 8])
        sup = np.array([True, True, False, True])
        need = clusterer.feature_rows_needed(tracks, sup)
        # row 0: suppressed but first sight of track 7 -> needed
        # row 1: suppressed, track known by then -> skipped
        # row 3: suppressed, track 8 established by row 2 -> skipped
        assert need.tolist() == [True, False, True, False]
        # after ingesting track 7, its suppressed rows never need features
        clusterer.add(np.eye(4)[:1], np.array([7]))
        need = clusterer.feature_rows_needed(np.array([7]), np.array([True]))
        assert need.tolist() == [False]


class TestBuffersAreOwned:
    """``add`` marks filled rows valid in its *own* copy of
    ``feature_valid`` (one mask can be handed to many clusterers), and
    a restored clusterer shares no scratch with its source."""

    def _chunk(self):
        # row 0 is suppressed, first sight of track 7, and marked
        # invalid: add must call feature_fill for it
        feats = np.zeros((3, 4))
        feats[1:] = np.eye(4)[1:3]
        return feats, np.array([7, 7, 8]), np.array([True, False, False])

    @pytest.mark.parametrize("read_only", [False, True])
    def test_callers_mask_survives_a_fill(self, read_only):
        feats, tracks, sup = self._chunk()
        valid = np.array([False, True, True])
        valid.setflags(write=not read_only)
        filled = []

        def fill(rows):
            filled.append(rows.tolist())
            return np.eye(4)[:1]

        for _ in range(2):  # the second run must see the same mask
            clusterer = IncrementalClusterer(threshold=0.3, dim=4)
            out = clusterer.add(feats.copy(), tracks, suppressed=sup,
                                feature_valid=valid, feature_fill=fill)
            assert out.tolist() == [0, 1, 2]
        assert filled == [[0], [0]]
        assert valid.tolist() == [False, True, True]

    def test_restored_clusterer_has_its_own_scratch(self):
        rng = np.random.RandomState(5)
        feats, tracks, sup = _tracky_workload(rng, 200, 8, 6)
        source = IncrementalClusterer(threshold=0.4, dim=8)
        source.add(feats[:100], tracks[:100], suppressed=sup[:100])
        restored = IncrementalClusterer.from_state_dict(
            json.loads(json.dumps(source.state_dict())))
        assert not np.shares_memory(source._scratch, restored._scratch)
        assert not np.shares_memory(source._centroids, restored._centroids)
        np.testing.assert_array_equal(
            source._centroids[: source._n_live],
            restored._centroids[: restored._n_live])
        # norms are lazy: a restore refreshes them, the source catches
        # up before its next scan
        source._refresh_norms()
        np.testing.assert_array_equal(
            source._cnorm2[: source._n_live],
            restored._cnorm2[: restored._n_live])
        # interleave the two: neither's rows may leak through a buffer
        a = source.add(feats[100:], tracks[100:], suppressed=sup[100:])
        b = restored.add(feats[100:], tracks[100:], suppressed=sup[100:])
        np.testing.assert_array_equal(a, b)


class TestBatchedTopK:
    def test_topk_lists_match_topk_list(self, model, stream_table):
        rng = np.random.RandomState(3)
        seeds = rng.randint(0, 2 ** 63, size=64).astype(np.uint64)
        classes = rng.choice(np.unique(stream_table.class_id), size=64)
        diffs = rng.uniform(0.5, 2.0, size=64)
        batch = model.topk_lists(seeds, classes, diffs, 8)
        singles = [
            model.topk_list(int(s), int(c), float(d), 8)
            for s, c, d in zip(seeds, classes, diffs)
        ]
        assert batch == singles

    def test_specialized_topk_lists_match(self, stream_table):
        from repro.cnn.specialize import specialize

        spec = specialize(cheap_cnn(1), stream_table.class_histogram(), 5,
                          "auburn_c")
        rng = np.random.RandomState(4)
        seeds = rng.randint(0, 2 ** 63, size=48).astype(np.uint64)
        classes = rng.choice(np.unique(stream_table.class_id), size=48)
        diffs = rng.uniform(0.5, 2.0, size=48)
        batch = spec.topk_lists(seeds, classes, diffs, 6)
        singles = [
            spec.topk_list(int(s), int(c), float(d), 6)
            for s, c, d in zip(seeds, classes, diffs)
        ]
        assert batch == singles


class TestBlockedExtraction:
    def test_block_size_cannot_change_features(self, stream_table, model):
        from repro.cnn.features import FeatureExtractor

        small = FeatureExtractor(model.salt,
                                 noise_multiplier=model.feature_noise)
        small.BLOCK_ROWS = 57
        unblocked = FeatureExtractor(model.salt,
                                     noise_multiplier=model.feature_noise)
        unblocked.BLOCK_ROWS = 10 ** 9
        sample = stream_table.slice(0, 700)
        np.testing.assert_array_equal(
            small.extract(sample), unblocked.extract(sample)
        )
        # warm per-track caches are equally invisible
        np.testing.assert_array_equal(
            small.extract(sample), unblocked.extract(sample)
        )

    def test_slice_matches_select(self, stream_table):
        mask = np.zeros(len(stream_table), dtype=bool)
        mask[100:300] = True
        sliced = stream_table.slice(100, 300)
        selected = stream_table.select(mask)
        for col in ("track_id", "class_id", "time_s", "frame_idx",
                    "difficulty", "appearance_seed", "obs_in_track"):
            np.testing.assert_array_equal(getattr(sliced, col),
                                          getattr(selected, col))


class TestLiveEquivalence:
    @pytest.mark.parametrize("index_mode", ["lazy", "materialized"])
    def test_live_chunked_matches_one_shot_at_every_watermark(
        self, stream_table, model, index_mode
    ):
        """The new extraction/cluster fast paths keep the PR-2 invariant:
        every watermark's answers equal a one-shot ingest of the prefix."""
        config = FocusConfig(model=model, k=4, cluster_threshold=0.3)
        gt = resnet152()
        n = len(stream_table)
        bounds = [0] + [n * i // 5 for i in range(1, 5)] + [n]
        ingestor = StreamIngestor(config, stream_table.stream,
                                  fps=stream_table.fps, index_mode=index_mode)
        classes = [int(c) for c in stream_table.dominant_classes()[:2]]
        for a, b in zip(bounds, bounds[1:]):
            ingestor.push(stream_table.slice(a, b))
            prefix = stream_table.slice(0, b)
            oneshot = IngestPipeline(config, index_mode=index_mode).run(prefix)
            np.testing.assert_array_equal(
                ingestor.clusters.assignments, oneshot.clusters.assignments
            )
            from repro.core.query import QueryEngine

            live_engine = QueryEngine(ingestor.index, ingestor.table,
                                      model, gt)
            ref_engine = QueryEngine(oneshot.index, oneshot.table, model, gt)
            for cid in classes:
                live = live_engine.query(cid)
                ref = ref_engine.query(cid)
                np.testing.assert_array_equal(live.returned_frames,
                                              ref.returned_frames)
                assert live.gt_inferences == ref.gt_inferences
