"""Equivalence guarantees of the ingest hot path.

The clusterer has one kernel; what still has two sides is how a stream
reaches it.  These tests pin identical assignments, seed rows, sizes,
and counters, bit for bit, across chunkings and checkpoint round trips
(over random thresholds, suppression masks, and eviction pressure), and
the fast path against the ``strict=True`` always-scan oracle.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.cnn.zoo import cheap_cnn, resnet152
from repro.core.clustering import (
    IncrementalClusterer,
    cluster_table,
    group_rows_by_cluster,
    group_slices,
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
    clusterer for a ``from_state_dict`` copy (its JSON-round-tripped
    ``bounded_state`` and the rows so far) before the chunk starting at
    that row."""
    clusterer = IncrementalClusterer(
        threshold=threshold, dim=feats.shape[1],
        max_live_clusters=max_live,
    )
    outs = []
    for a, b in zip(bounds, bounds[1:]):
        if a == restore_at:
            clusterer = IncrementalClusterer.from_state_dict(
                json.loads(json.dumps(clusterer.bounded_state())),
                np.concatenate(outs), track_ids[:a])
        outs.append(
            clusterer.add(feats[a:b], track_ids[a:b], suppressed=sup[a:b]))
    summary = clusterer.snapshot()
    return (
        np.concatenate(outs), summary,
        clusterer.full_scans, clusterer.shortcut_hits,
        clusterer.bounded_state(), clusterer._track_cache,
    )


def _assert_same_run(got, ref):
    np.testing.assert_array_equal(got[0], ref[0])
    np.testing.assert_array_equal(got[1].assignments, ref[1].assignments)
    np.testing.assert_array_equal(got[1].seed_rows, ref[1].seed_rows)
    np.testing.assert_array_equal(got[1].sizes, ref[1].sizes)
    assert got[2] == ref[2] and got[3] == ref[3]
    assert got[4] == ref[4] and got[5] == ref[5]


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
        summary = clusterer.snapshot()
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
        groups = group_rows_by_cluster(*group_slices(assignments, 5))
        assert [len(g) for g in groups] == [2, 0, 0, 2, 0]
        empties = [groups[1], groups[2], groups[4]]
        assert len({id(g) for g in empties}) == 3
        np.testing.assert_array_equal(groups[0], [0, 2])
        np.testing.assert_array_equal(groups[3], [1, 3])

    def test_grouped_min_max(self):
        assignments = np.array([1, 0, 1, 1], dtype=np.int64)
        values = np.array([5.0, 2.0, 7.0, 1.0])
        first, last = grouped_min_max(*group_slices(assignments, 3), values)
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
    """``add`` only reads the caller's ``feature_valid`` (one mask can be
    handed to many clusterers), and a restored clusterer shares no
    scratch with its source."""

    def test_reading_an_unextracted_row_raises(self):
        # row 0 is suppressed and the first sight of track 7, so
        # feature_rows_needed asks for it; this mask leaves it out
        feats = np.zeros((3, 4))
        feats[1:] = np.eye(4)[1:3]
        tracks, sup = np.array([7, 7, 8]), np.array([True, False, False])
        valid = np.array([False, True, True])
        valid.setflags(write=False)
        clusterer = IncrementalClusterer(threshold=0.3, dim=4)
        assert clusterer.feature_rows_needed(tracks, sup)[0]
        with pytest.raises(ValueError, match="not extracted"):
            clusterer.add(feats, tracks, suppressed=sup, feature_valid=valid)

    @pytest.mark.parametrize("read_only", [False, True])
    def test_callers_mask_survives_an_add(self, read_only):
        # row 3 is a suppressed later sight of track 7: not needed, so
        # left unextracted (NaN) and out of the mask
        feats = np.vstack([np.eye(4)[:3], np.full((1, 4), np.nan)])
        tracks, sup = np.array([7, 7, 8, 7]), np.array([True, False, False, True])
        valid = np.array([True, True, True, False])
        valid.setflags(write=not read_only)
        runs = []
        for _ in range(2):  # the second clusterer must see the same mask
            clusterer = IncrementalClusterer(threshold=0.3, dim=4)
            np.testing.assert_array_equal(
                clusterer.feature_rows_needed(tracks, sup), valid)
            with np.errstate(all="raise"):
                runs.append(clusterer.add(
                    feats, tracks, suppressed=sup, feature_valid=valid).tolist())
        assert runs[0] == runs[1] and runs[0][:3] == [0, 1, 2]
        assert valid.tolist() == [True, True, True, False]

    def test_restored_clusterer_has_its_own_scratch(self):
        rng = np.random.RandomState(5)
        feats, tracks, sup = _tracky_workload(rng, 200, 8, 6)
        source = IncrementalClusterer(threshold=0.4, dim=8)
        source.add(feats[:100], tracks[:100], suppressed=sup[:100])
        restored = IncrementalClusterer.from_state_dict(
            json.loads(json.dumps(source.bounded_state())),
            source.snapshot().assignments, tracks[:100])
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
        # the restore adopted the source's assignment prefix uncopied;
        # its first add moved it to a buffer of its own
        assert not np.shares_memory(source._assign_buf, restored._assign_buf)
        np.testing.assert_array_equal(
            source.snapshot().assignments, restored.snapshot().assignments)


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


class TestFeatureMemory:
    def test_cluster_table_peak_is_one_block_not_the_table(self):
        """One-shot ingest holds one block of features and one block of
        extraction intermediates: its traced peak barely moves from 5k
        to 20k rows (an O(table) buffer would quadruple it)."""
        import tracemalloc

        from repro.video.classes import NUM_CLASSES

        table = generate_observations("jacksonh", 360.0, 30.0)
        assert len(table) >= 20000
        # the shared class geometry is process state, not a per-call buffer
        cheap_cnn(1).feature_extractor().class_prototype(NUM_CLASSES - 1)

        def traced_peak(n):
            rows = table.slice(0, n)
            suppressed = simulate_pixel_diff(rows)
            model = cheap_cnn(1)  # cold per-track caches on each run
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                cluster_table(rows, model, 0.16, suppressed=suppressed)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        small, large = traced_peak(5000), traced_peak(20000)
        assert large <= 1.5 * small, (small, large)
        assert large <= 16 * 2 ** 20, large

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="glibc allocator behaviour")
    def test_repeated_blocks_do_not_refault_the_heap(self):
        """Live ingest extracts about one block per chunk.  In a fresh
        interpreter no large transient has raised glibc's dynamic trim
        threshold, so unless the thresholds are pinned each block's
        intermediates go back to the OS and are faulted in again
        (~1 400 minor faults per call) instead of being reused."""
        code = textwrap.dedent("""
            import resource
            from repro.cnn.zoo import cheap_cnn
            from repro.video.synthesis import generate_observations
            table = generate_observations("jacksonh", 60.0, 30.0)
            extractor = cheap_cnn(1).feature_extractor()
            blocks = [table.slice(a, a + 700) for a in range(0, 2800, 700)]
            for block in blocks:
                extractor.extract(block)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(5):
                for block in blocks:
                    extractor.extract(block)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        # 20 calls: a handful of faults is noise, 20 x 1 400 is the bug
        assert int(done.stdout) < 500, done.stdout

    def test_import_loads_no_scipy(self):
        """scipy.special alone added ~25 MB to every process's resident
        baseline (each forked worker's too) for one ndtri call; the
        package now needs numpy only."""
        code = textwrap.dedent("""
            import sys
            import repro
            print(sorted(m for m in sys.modules if m.startswith("scipy")))
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        assert done.stdout.strip() == "[]", done.stdout


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
