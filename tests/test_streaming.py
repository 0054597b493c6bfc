"""Live ingest: StreamIngestor, mutable indexes, checkpoints, serving.

The invariant under test throughout: a stream ingested chunk by chunk
is indistinguishable, at every chunk boundary, from a one-shot ingest
of the same prefix window.
"""

import numpy as np
import pytest

import repro.core.clustering as clustering_module
import repro.core.index as index_module
from repro.cnn.zoo import resnet152
from repro.core.clustering import IncrementalClusterer, cluster_table, group_slices
from repro.core.index import IndexReader, LazyTopKIndex, TopKIndex
from repro.core.ingest import IngestPipeline
from repro.core.query import QueryEngine
from repro.core.streaming import StreamIngestor, empty_observation_table
from repro.core.system import FocusSystem
from repro.serve.cache import VerificationCache
from repro.storage.docstore import DocumentStore
from repro.storage.journal import IngestJournal, JournalError, committed_checkpoint
from repro.video.synthesis import ObservationTable


# the workload/model/config come from the shared conftest factories
# (session-scoped), so other suites reuse the same synthesized tables
@pytest.fixture(scope="module")
def table(live_table):
    return live_table


@pytest.fixture(scope="module")
def model(cheap_model):
    return cheap_model


@pytest.fixture(scope="module")
def config(live_config):
    return live_config


def row_chunks(table, n_chunks):
    """Split a table into row-range chunks (stream arrival order)."""
    n = len(table)
    bounds = [n * i // n_chunks for i in range(n_chunks + 1)]
    chunks = []
    for a, b in zip(bounds, bounds[1:]):
        mask = np.zeros(n, dtype=bool)
        mask[a:b] = True
        chunks.append(table.select(mask))
    return chunks, bounds


class TestStreamIngestorEquivalence:
    @pytest.mark.parametrize("index_mode", ["lazy", "materialized"])
    def test_query_at_every_watermark_matches_one_shot(
        self, table, model, config, index_mode
    ):
        """Acceptance: at every chunk boundary, query answers (frames and
        GT-inference counts) equal a one-shot ingest of the same prefix."""
        gt = resnet152()
        chunks, bounds = row_chunks(table, 4)
        ingestor = StreamIngestor(
            config, table.stream, fps=table.fps, index_mode=index_mode
        )
        classes = [int(c) for c in table.dominant_classes()[:3]]
        for chunk, end in zip(chunks, bounds[1:]):
            ingestor.push(chunk)
            mask = np.zeros(len(table), dtype=bool)
            mask[:end] = True
            prefix = table.select(mask)
            oneshot = IngestPipeline(config, index_mode=index_mode).run(prefix)
            live = ingestor.result
            np.testing.assert_array_equal(
                live.clusters.assignments, oneshot.clusters.assignments
            )
            np.testing.assert_array_equal(live.suppressed, oneshot.suppressed)
            assert live.cnn_inferences == oneshot.cnn_inferences
            ref = QueryEngine(oneshot.index, prefix, config.model, gt)
            streamed = QueryEngine(live.index, live.table, config.model, gt)
            for cls in classes:
                a = ref.query(cls)
                b = streamed.query(cls)
                np.testing.assert_array_equal(a.returned_frames, b.returned_frames)
                np.testing.assert_array_equal(a.returned_rows, b.returned_rows)
                assert a.gt_inferences == b.gt_inferences

    @pytest.mark.parametrize("index_mode", ["lazy", "materialized"])
    def test_materialized_entries_match_build(self, table, config, index_mode):
        """The streamed index's per-cluster records equal a one-shot build."""
        chunks, _ = row_chunks(table, 3)
        ingestor = StreamIngestor(
            config, table.stream, fps=table.fps, index_mode=index_mode
        )
        for chunk in chunks:
            ingestor.push(chunk)
        reference = TopKIndex.build(
            table, config.model, config.k, ingestor.clusters
        )
        streamed = ingestor.index
        if index_mode == "lazy":
            streamed = streamed.materialize()
        assert streamed.num_clusters == reference.num_clusters
        for cid in range(reference.num_clusters):
            assert streamed.cluster(cid) == reference.cluster(cid)
            np.testing.assert_array_equal(
                streamed.members(cid), reference.members(cid)
            )
            np.testing.assert_array_equal(
                streamed.frames(cid), reference.frames(cid)
            )
        for token in range(config.model.num_classes):
            assert streamed.lookup(token) == reference.lookup(token)

    def test_clusters_grow_across_chunk_boundaries(self, table, config):
        """Both modes report the same new/grown clusters per chunk (the
        verification cache invalidates by ``new_clusters``)."""
        chunks, _ = row_chunks(table, 3)
        lazy, materialized = (
            StreamIngestor(config, table.stream, fps=table.fps, index_mode=mode)
            for mode in ("lazy", "materialized")
        )
        first = materialized.push(chunks[0])
        assert first.new_clusters and not first.grown_clusters
        sizes_before = {
            cid: materialized.index.cluster(cid).size for cid in first.new_clusters
        }
        reports = [first, materialized.push(chunks[1]), materialized.push(chunks[2])]
        second = reports[1]
        assert second.grown_clusters, "tracks span chunk boundaries"
        for cid in second.grown_clusters:
            entry = materialized.index.cluster(cid)
            assert entry.size > sizes_before[cid]
            assert len(materialized.index.members(cid)) == entry.size
            assert entry.last_time_s >= entry.first_time_s
        for chunk, report in zip(chunks, reports):
            lazy_report = lazy.push(chunk)
            assert lazy_report.new_clusters == report.new_clusters
            assert lazy_report.grown_clusters == report.grown_clusters

    def test_watermark_advances(self, table, config):
        chunks, _ = row_chunks(table, 2)
        ingestor = StreamIngestor(config, table.stream, fps=table.fps)
        assert ingestor.watermark_s == 0.0
        r1 = ingestor.push(chunks[0])
        assert r1.watermark_s == pytest.approx(float(chunks[0].time_s.max()))
        r2 = ingestor.push(chunks[1], watermark_s=120.0)
        assert r2.watermark_s == 120.0
        assert ingestor.table.duration_s == 120.0

    def test_watermark_never_trails_ingested_observations(self, table, config):
        """An explicit watermark_s below the chunk's last observation
        must not declare ingested video unseen (duration < max time)."""
        chunks, _ = row_chunks(table, 2)
        ingestor = StreamIngestor(config, table.stream, fps=table.fps)
        report = ingestor.push(chunks[0], watermark_s=1.0)
        last_obs = float(chunks[0].time_s.max())
        assert report.watermark_s == pytest.approx(last_obs)
        assert ingestor.table.duration_s >= last_obs
        assert 0.0 <= ingestor.table.empty_frame_fraction() <= 1.0

    def test_empty_stream_is_queryable(self, config):
        ingestor = StreamIngestor(config, "auburn_c", fps=30.0)
        engine = QueryEngine(
            ingestor.index, ingestor.table, config.model, resnet152()
        )
        result = engine.query(0)
        assert len(result.returned_frames) == 0

    def test_chunk_validation(self, table, config):
        ingestor = StreamIngestor(config, table.stream, fps=table.fps)
        with pytest.raises(ValueError, match="stream"):
            ingestor.push(empty_observation_table("other_stream", table.fps))
        with pytest.raises(ValueError, match="fps"):
            ingestor.push(empty_observation_table(table.stream, table.fps / 2))
        chunks, _ = row_chunks(table, 2)
        ingestor.push(chunks[1])
        with pytest.raises(ValueError, match="stream order"):
            ingestor.push(chunks[0])

    def test_index_mode_validation(self, config):
        with pytest.raises(ValueError):
            StreamIngestor(config, "auburn_c", index_mode="imaginary")


class TestClustererAcrossChunks:
    def test_snapshot_keeps_state(self, table, config):
        clusterer = IncrementalClusterer(
            threshold=config.cluster_threshold, dim=config.model.feature_dim
        )
        extractor = config.model.feature_extractor()
        chunks, _ = row_chunks(table, 3)
        clusterer.add(
            extractor.extract(chunks[0]).astype(np.float64), chunks[0].track_id
        )
        snap = clusterer.snapshot()
        assert snap.num_observations == len(chunks[0])
        clusterer.add(
            extractor.extract(chunks[1]).astype(np.float64), chunks[1].track_id
        )
        grown = clusterer.snapshot()
        assert grown.num_observations == len(chunks[0]) + len(chunks[1])
        # the earlier snapshot is an immutable prefix of the later one
        np.testing.assert_array_equal(
            grown.assignments[: len(chunks[0])], snap.assignments
        )
        np.testing.assert_array_equal(
            grown.seed_rows[: snap.num_clusters], snap.seed_rows
        )

    def test_eviction_of_track_shortcut_across_pushes(self, table, config):
        """A tight live-cluster cap forces evictions inside and across
        chunks; streamed assignments still equal the one-shot pass."""
        max_live = 8
        chunks, _ = row_chunks(table, 4)
        ingestor = StreamIngestor(
            config, table.stream, fps=table.fps, max_live_clusters=max_live
        )
        for chunk in chunks:
            ingestor.push(chunk)
        reference = cluster_table(
            table,
            config.model,
            threshold=config.cluster_threshold,
            max_live_clusters=max_live,
            suppressed=ingestor.result.suppressed,
        )
        assert ingestor.clusters.num_clusters > max_live, "evictions happened"
        np.testing.assert_array_equal(
            ingestor.clusters.assignments, reference.assignments
        )

    def test_members_by_cluster_cached(self, table, config):
        summary = cluster_table(
            table, config.model, threshold=config.cluster_threshold
        )
        first = summary.members_by_cluster()
        assert summary.members_by_cluster() is first


class TestMutableIndexes:
    @pytest.mark.parametrize("index_mode", ["lazy", "materialized"])
    def test_refresh_rejects_non_extension(self, table, model, config, index_mode):
        chunks, _ = row_chunks(table, 2)
        ingestor = StreamIngestor(
            config, table.stream, fps=table.fps, index_mode=index_mode
        )
        ingestor.push(chunks[0])
        other = cluster_table(
            table, model, threshold=config.cluster_threshold / 4
        )
        with pytest.raises(ValueError, match="extending"):
            ingestor.index.refresh(table, other)

    @pytest.mark.parametrize("index_mode", ["lazy", "materialized"])
    def test_refresh_with_same_snapshot_is_noop(self, table, config, index_mode):
        chunks, _ = row_chunks(table, 2)
        ingestor = StreamIngestor(
            config, table.stream, fps=table.fps, index_mode=index_mode
        )
        for chunk in chunks:
            ingestor.push(chunk)
        index = ingestor.index
        tokens = range(config.model.num_classes)

        def state():
            return (
                [index.cluster(cid) for cid in range(index.num_clusters)],
                [index.members(cid).tolist() for cid in range(index.num_clusters)],
                [index.frames(cid).tolist() for cid in range(index.num_clusters)],
                [index.lookup(token) for token in tokens],
            )

        before = state()
        assert index.refresh(ingestor.table, ingestor.clusters) == ([], [])
        assert state() == before

    @staticmethod
    def _count_sorts(monkeypatch):
        """Every ``group_slices`` sort the index or a snapshot makes, as
        the number of rows handed to each."""
        handed = []

        def counting(assignments, num_clusters):
            handed.append(len(assignments))
            return group_slices(assignments, num_clusters)

        monkeypatch.setattr(index_module, "group_slices", counting)
        monkeypatch.setattr(clustering_module, "group_slices", counting)
        return handed

    @pytest.mark.parametrize("index_mode", ["lazy", "materialized"])
    def test_refresh_groups_only_the_chunk(self, table, config, index_mode, monkeypatch):
        """A refresh's grouping reads the chunk's rows, not the history:
        equal-sized chunks hand the sort as many rows at 4x history as
        at 1x (a count, so no clock is involved)."""
        handed = self._count_sorts(monkeypatch)
        ingestor = StreamIngestor(
            config, table.stream, fps=table.fps, index_mode=index_mode
        )
        rows = len(table) // 5
        per_push = []
        for i in range(5):
            before = len(handed)
            ingestor.push(table.slice(i * rows, (i + 1) * rows))
            per_push.append(sum(handed[before:]))
        # the fifth push runs on 4x the history of the second
        assert per_push == [rows] * 5

    def test_one_shot_build_sorts_once(self, table, model, config, monkeypatch):
        """A one-shot build cuts both the time spans and the member lists
        from one sort of every row; a second index over the same
        snapshot reuses it."""
        clusters = cluster_table(table, model, threshold=config.cluster_threshold)
        handed = self._count_sorts(monkeypatch)
        lazy = LazyTopKIndex(table, model, config.k, clusters)
        assert handed == [len(table)]
        materialized = TopKIndex.build(table, model, config.k, clusters)
        assert handed == [len(table)]
        for index in (lazy, materialized):
            assert index.num_clusters == clusters.num_clusters
            for cid in range(clusters.num_clusters):
                np.testing.assert_array_equal(
                    index.members(cid), np.flatnonzero(clusters.assignments == cid)
                )

    def test_lazy_lookup_cache_survives_pure_growth(self, table, model, config):
        """Growing existing clusters keeps cached lookups; new centroids
        invalidate them."""
        chunks, _ = row_chunks(table, 2)
        ingestor = StreamIngestor(config, table.stream, fps=table.fps)
        ingestor.push(chunks[0])
        index = ingestor.index
        token = int(table.dominant_classes()[0])
        index.lookup(token)
        assert index._lookup_cache
        cached = dict(index._lookup_cache)
        # simulate pure growth: refresh with the same snapshot
        new_ids, grown_ids = index.refresh(ingestor.table, ingestor.clusters)
        assert not new_ids
        assert index._lookup_cache == cached
        # a real chunk introduces new centroids -> cache dropped
        report = ingestor.push(chunks[1])
        assert report.new_clusters
        assert not index._lookup_cache

    def test_index_reader_protocol(self, table, config):
        lazy = IngestPipeline(config, index_mode="lazy").run(table).index
        explicit = IngestPipeline(config, index_mode="materialized").run(table).index
        assert isinstance(lazy, IndexReader)
        assert isinstance(explicit, IndexReader)
        assert isinstance(lazy, LazyTopKIndex)
        assert isinstance(explicit, TopKIndex)


class TestDerivedIndex:
    @pytest.mark.parametrize("index_mode", ["lazy", "materialized"])
    def test_recovered_index_equals_live(self, table, config, index_mode):
        """A checkpoint stores no index: recovery derives one equal to
        the live session's at every checkpoint -- entries, members,
        frames, lookups (at full K, at ``kx=1`` and over two time ranges)
        and, materialized, every class's entry order."""
        chunks, bounds = row_chunks(table, 3)
        store = DocumentStore()
        ingestor = StreamIngestor(
            config, table.stream, fps=table.fps, index_mode=index_mode,
            journal=IngestJournal(store, table.stream),
        )
        tokens = [int(c) for c in np.unique(table.class_id)]
        # one range inside the stream, one straddling the first chunk
        # boundary
        boundary = float(table.time_s[bounds[1]])
        time_ranges = [
            (float(table.time_s[len(table) // 8]), float(table.time_s[len(table) // 4])),
            (boundary - 2.0, boundary + 2.0),
        ]
        for chunk in chunks:
            ingestor.push(chunk)
            ingestor.checkpoint(store)
            live = ingestor.index
            derived = StreamIngestor.recover(store, table.stream).index
            assert type(derived) is type(live)
            assert derived.num_clusters == live.num_clusters
            for cid in range(live.num_clusters):
                assert derived.cluster(cid) == live.cluster(cid)
                np.testing.assert_array_equal(derived.members(cid), live.members(cid))
                np.testing.assert_array_equal(derived.frames(cid), live.frames(cid))
            for token in tokens:
                assert derived.lookup(token) == live.lookup(token)
                assert derived.lookup(token, kx=1) == live.lookup(token, kx=1)
                for time_range in time_ranges:
                    assert (derived.lookup(token, time_range=time_range)
                            == live.lookup(token, time_range=time_range))
            if index_mode == "materialized":
                assert derived._by_class == live._by_class

    @pytest.mark.parametrize("index_mode", ["lazy", "materialized"])
    def test_recover_builds_one_clusterer_and_index(
        self, table, config, index_mode, monkeypatch
    ):
        """Recovering a checkpointed stream builds its clusterer and its
        index once, from the checkpoint: no blank pair is made first
        only to be replaced.  A journaled chunk past the checkpoint
        replays onto them."""
        chunks, _ = row_chunks(table, 3)
        store = DocumentStore()
        ingestor = StreamIngestor(
            config, table.stream, fps=table.fps, index_mode=index_mode,
            journal=IngestJournal(store, table.stream),
        )
        ingestor.push(chunks[0])
        ingestor.checkpoint(store)
        ingestor.push(chunks[1])
        built = []

        def counting(real):
            def init(self, *args, **kwargs):
                built.append(type(self).__name__)
                real(self, *args, **kwargs)
            return init

        for cls in (IncrementalClusterer, index_module._ClusterStore):
            monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
        recovered = StreamIngestor.recover(store, table.stream)
        assert sorted(built) == sorted(
            ["IncrementalClusterer", type(ingestor.index).__name__]
        )
        np.testing.assert_array_equal(
            recovered.clusters.assignments, ingestor.clusters.assignments
        )

    def test_checkpoint_without_journal_refused(self, table, config):
        chunks, _ = row_chunks(table, 3)
        ingestor = StreamIngestor(config, table.stream, fps=table.fps)
        ingestor.push(chunks[0])
        store = DocumentStore()
        with pytest.raises(JournalError, match="no write-ahead journal"):
            ingestor.checkpoint(store)
        assert store.collection_names() == []


class TestVerificationCacheStreams:
    def test_invalidate_stream_uses_key_sets(self):
        cache = VerificationCache(capacity=64)
        for cid in range(8):
            cache.put(("a", cid, "gt"), 1)
            cache.put(("b", cid, "gt"), 2)
        assert cache.invalidate_stream("a") == 8
        assert len(cache) == 8
        assert cache._by_stream.keys() == {"b"}
        assert cache.invalidate_stream("a") == 0

    def test_invalidate_clusters(self):
        cache = VerificationCache(capacity=64)
        for cid in range(6):
            cache.put(("a", cid, "gt"), 1)
        cache.put(("a", 3, "gt2"), 1)  # same cluster, different GT model
        assert cache.invalidate_clusters("a", [3, 5]) == 3
        assert ("a", 3, "gt") not in cache
        assert ("a", 3, "gt2") not in cache
        assert ("a", 2, "gt") in cache
        assert cache.invalidate_clusters("a", []) == 0
        assert cache.invalidate_clusters("missing", [1]) == 0
        assert cache.stats()["invalidations"] == 3.0

    def test_eviction_prunes_stream_key_sets(self):
        cache = VerificationCache(capacity=2)
        cache.put(("a", 0, "gt"), 1)
        cache.put(("a", 1, "gt"), 1)
        cache.put(("b", 0, "gt"), 1)  # evicts ("a", 0)
        assert cache.evictions == 1
        assert cache.invalidate_stream("a") == 1

    def test_clear_resets_stream_sets(self):
        cache = VerificationCache()
        cache.put(("a", 0, "gt"), 1)
        cache.clear()
        assert cache.invalidate_stream("a") == 0


class TestFocusSystemLiveIngest:
    @pytest.fixture()
    def system(self, config):
        return FocusSystem(num_query_gpus=4)

    def test_open_requires_config_or_tuning_sample(self, system):
        with pytest.raises(ValueError, match="tune_on"):
            system.open_stream("auburn_c")

    def test_open_with_tuning_sample(self, table):
        system = FocusSystem(num_query_gpus=4)
        sample = table.scattered_sample(30.0)
        handle = system.open_stream("auburn_c", fps=table.fps, tune_on=sample)
        assert handle.live and handle.config is not None
        assert handle.tuning is not None

    def test_append_requires_live_session(self, system, table, config):
        system.ingest_stream(table, config=config)
        with pytest.raises(ValueError, match="open_stream"):
            system.append(table.stream, table)

    def test_query_mid_ingest_matches_one_shot_prefix(self, table, config):
        live = FocusSystem(num_query_gpus=4)
        live.open_stream(table.stream, fps=table.fps, config=config)
        chunks, bounds = row_chunks(table, 3)
        cls = int(table.dominant_classes()[0])
        for chunk, end in zip(chunks, bounds[1:]):
            live.append(table.stream, chunk)
            mask = np.zeros(len(table), dtype=bool)
            mask[:end] = True
            oneshot = FocusSystem(num_query_gpus=4)
            oneshot.ingest_stream(table.select(mask), config=config)
            a = live.query(table.stream, cls)
            b = oneshot.query(table.stream, cls)
            np.testing.assert_array_equal(a.frames, b.frames)
            assert a.gt_inferences == b.gt_inferences
            # cross-stream fan-out answers at the same watermark
            fan = live.query_all(cls)
            np.testing.assert_array_equal(
                fan.slices[table.stream].frames, a.frames
            )

    def test_ingest_contends_on_query_gpus(self, system, table, config):
        system.open_stream(table.stream, fps=table.fps, config=config)
        busy_before = system.cluster.total_busy_seconds
        chunks, _ = row_chunks(table, 2)
        report = system.append(table.stream, chunks[0])
        assert report.dispatch is not None
        assert report.dispatch.gpu_seconds > 0
        assert system.cluster.total_busy_seconds > busy_before

    def test_mid_ingest_cache_invalidation_counters(self, table, config):
        system = FocusSystem(num_query_gpus=4)
        system.open_stream(table.stream, fps=table.fps, config=config)
        chunks, _ = row_chunks(table, 2)
        system.append(table.stream, chunks[0])
        cls = int(table.dominant_classes()[0])
        first = system.query_all(cls)
        assert first.gt_inferences > 0
        cached = system.service.cache.stats()["size"]
        assert cached > 0
        # appending grows clusters but never moves a centroid: cached
        # verdicts survive and the repeat query hits instead of paying
        system.append(table.stream, chunks[1])
        assert system.service.cache.stats()["size"] == cached
        again = system.query_all(cls)
        assert again.cache_hits >= first.gt_inferences
        # a fresh session under the same name restarts cluster ids, so
        # opening one drops every cached verdict of the stream
        system.open_stream(table.stream, fps=table.fps, config=config)
        assert system.service.cache.stats()["invalidations"] >= cached
        assert system.service.cache.stats()["size"] == 0.0

    @pytest.mark.parametrize("index_mode", ["lazy", "materialized"])
    def test_export_resume_round_trip(self, table, config, index_mode):
        """A stream without a journal is snapshotted by an export."""
        system = FocusSystem(num_query_gpus=4)
        system.open_stream(
            table.stream, fps=table.fps, config=config, index_mode=index_mode
        )
        chunks, _ = row_chunks(table, 3)
        store = DocumentStore()
        for chunk in chunks[:2]:
            system.append(table.stream, chunk)
        system.save_indexes(store)
        # resume in a cold process at the exported watermark
        resumed = FocusSystem(num_query_gpus=4)
        names = resumed.load_indexes(
            store, tables={table.stream: system.handle(table.stream).table}
        )
        assert names == [table.stream]
        assert resumed.handle(table.stream).restored
        cls = int(table.dominant_classes()[0])
        a = system.query(table.stream, cls)
        b = resumed.query(table.stream, cls)
        np.testing.assert_array_equal(a.frames, b.frames)
        meta = store.collection("stream-meta").find_one({"stream": table.stream})
        assert meta["live"] is True
        assert meta["watermark_s"] == pytest.approx(
            system.handle(table.stream).watermark_s
        )

    def test_checkpoint_round_refuses_streams_without_journal(self, table, config):
        """One durable and two journal-free sessions: the round is
        refused by one error naming both, and nothing is staged or
        committed for the durable stream."""
        system = FocusSystem(num_query_gpus=4)
        store = DocumentStore()
        system.open_stream(table.stream, fps=table.fps, config=config, wal_store=store)
        system.open_stream("lausanne", fps=table.fps, config=config)
        system.open_stream("jacksonh", fps=table.fps, config=config)
        chunks, _ = row_chunks(table, 3)
        system.append(table.stream, chunks[0])
        names_before = store.collection_names()
        for streams in (None, [table.stream, "lausanne", "jacksonh"]):
            with pytest.raises(JournalError, match="jacksonh, lausanne$"):
                system.checkpoint(store, streams=streams)
        with pytest.raises(JournalError, match=r"save_indexes\): lausanne$"):
            system.checkpoint(store, streams=[table.stream, "lausanne"])
        assert store.collection_names() == names_before
        assert store.staged_names() == []
        assert committed_checkpoint(store, table.stream) is None
        assert system.handle(table.stream).ingestor.committed_epoch == 0
        # a round naming the durable stream alone commits it
        assert system.checkpoint(store, streams=[table.stream]) == [table.stream]

    def test_handle_watermark(self, system, table, config):
        handle = system.open_stream(table.stream, fps=table.fps, config=config)
        assert handle.watermark_s == 0.0
        chunks, _ = row_chunks(table, 2)
        system.append(table.stream, chunks[0])
        assert handle.watermark_s == pytest.approx(float(chunks[0].time_s.max()))


class TestObservationTableConcat:
    def test_concat_round_trip(self, table):
        chunks, _ = row_chunks(table, 4)
        merged = ObservationTable.concat(chunks, duration_s=table.duration_s)
        assert len(merged) == len(table)
        np.testing.assert_array_equal(merged.track_id, table.track_id)
        np.testing.assert_array_equal(merged.time_s, table.time_s)
        np.testing.assert_array_equal(
            merged.appearance_seed, table.appearance_seed
        )

    def test_concat_validation(self, table):
        with pytest.raises(ValueError):
            ObservationTable.concat([])
        other = empty_observation_table("elsewhere", table.fps)
        with pytest.raises(ValueError, match="streams"):
            ObservationTable.concat([table, other])
        slow = empty_observation_table(table.stream, table.fps / 2)
        with pytest.raises(ValueError, match="fps"):
            ObservationTable.concat([table, slow])
