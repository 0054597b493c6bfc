"""Unit tests for the top-K index (materialized and lazy)."""

import numpy as np
import pytest

from repro.core.clustering import cluster_table
from repro.core.index import ClusterEntry, LazyTopKIndex, TopKIndex
from repro.storage.docstore import DocumentStore


@pytest.fixture(scope="module")
def clusters(tiny_table, spec_model_tiny):
    return cluster_table(tiny_table, spec_model_tiny, threshold=0.12)


@pytest.fixture(scope="module")
def spec_model_tiny(tiny_table):
    from repro.cnn.specialize import specialize
    from repro.cnn.zoo import cheap_cnn

    return specialize(cheap_cnn(1), tiny_table.class_histogram(), 3, "lausanne")


@pytest.fixture(scope="module")
def built(tiny_table, spec_model_tiny, clusters):
    return TopKIndex.build(tiny_table, spec_model_tiny, 2, clusters)


@pytest.fixture(scope="module")
def lazy(tiny_table, spec_model_tiny, clusters):
    return LazyTopKIndex(tiny_table, spec_model_tiny, 2, clusters)


class TestMaterialized:
    def test_every_cluster_indexed(self, built, clusters):
        assert built.num_clusters == clusters.num_clusters

    def test_entries_bounded_by_k(self, built):
        for entry in built.entries():
            assert 1 <= len(entry.top_k) <= built.k

    def test_lookup_rank_positions(self, built):
        """kx filtering honours the stored rank positions."""
        token = built.classes()[0]
        full = set(built.lookup(token))
        narrowed = set(built.lookup(token, kx=1))
        assert narrowed <= full

    def test_lookup_kx_validation(self, built):
        token = built.classes()[0]
        with pytest.raises(ValueError):
            built.lookup(token, kx=0)
        with pytest.raises(ValueError):
            built.lookup(token, kx=built.k + 1)

    def test_lookup_time_range(self, built, tiny_table):
        token = built.classes()[0]
        hits = built.lookup(token, time_range=(0.0, 5.0))
        for cid in hits:
            assert built.cluster(cid).first_time_s < 5.0

    def test_members_and_frames_align(self, built, tiny_table):
        for entry in built.entries():
            members = built.members(entry.cluster_id)
            frames = built.frames(entry.cluster_id)
            assert len(members) == len(frames) == entry.size
            np.testing.assert_array_equal(tiny_table.frame_idx[members], frames)

    def test_docstore_round_trip(self, built):
        store = DocumentStore()
        built.to_docstore(store)
        loaded = TopKIndex.from_docstore(store, built.stream)
        assert loaded.num_clusters == built.num_clusters
        assert loaded.num_entries == built.num_entries
        token = built.classes()[0]
        assert set(loaded.lookup(token)) == set(built.lookup(token))

    def test_docstore_missing_stream(self):
        with pytest.raises(KeyError):
            TopKIndex.from_docstore(DocumentStore(), "nothing")

    @pytest.mark.parametrize("edit", ["repeat", "skip"])
    def test_docstore_refuses_ids_other_than_0_to_n(self, built, edit):
        """An export whose cluster ids repeat or skip one is refused,
        not loaded as an index whose ids no longer match its rows."""
        store = DocumentStore()
        built.to_docstore(store)
        clusters = store.collection("clusters:%s" % built.stream)
        if edit == "repeat":
            doc = clusters.find_one({"cluster_id": 0})
            clusters.insert_one({k: v for k, v in doc.items() if k != "_id"})
        else:
            assert clusters.delete_many({"cluster_id": 1}) == 1
        with pytest.raises(ValueError, match="0..n-1"):
            TopKIndex.from_docstore(store, built.stream)


class TestLazy:
    def test_same_shape_as_materialized(self, lazy, built):
        assert lazy.num_clusters == built.num_clusters

    def test_lookup_deterministic(self, lazy):
        token = -1  # OTHER always exists for a specialized model
        a = lazy.lookup(token)
        b = lazy.lookup(token)
        assert a == b

    def test_lookup_kx_narrows(self, lazy, spec_model_tiny):
        token = int(spec_model_tiny.head_classes[0])
        assert len(lazy.lookup(token, kx=1)) <= len(lazy.lookup(token))

    def test_lookup_lists_ids_in_seed_row_order(
        self, lazy, clusters, tiny_table, spec_model_tiny
    ):
        """The clusterer opens ids in row order, so the centroid table
        lists seeds in id order and a lookup's hits come out as the
        seed-row-ordered selection of the centroids would list them."""
        assert np.all(np.diff(clusters.seed_rows) > 0)
        seed_mask = np.zeros(len(tiny_table), dtype=bool)
        seed_mask[clusters.seed_rows] = True
        centroids = tiny_table.select(seed_mask)
        by_seed_row = np.argsort(clusters.seed_rows, kind="stable")
        for token in [-1] + [int(c) for c in spec_model_tiny.head_classes]:
            member = spec_model_tiny.topk_membership(centroids, token, lazy.k)
            assert lazy.lookup(token) == by_seed_row[member].tolist()

    def test_lookup_kx_validation(self, lazy):
        with pytest.raises(ValueError):
            lazy.lookup(-1, kx=0)
        with pytest.raises(ValueError):
            lazy.lookup(-1, kx=99)

    def test_cluster_entries(self, lazy, tiny_table):
        entry = lazy.cluster(0)
        assert isinstance(entry, ClusterEntry)
        assert entry.centroid_class == tiny_table.class_id[entry.centroid_row]
        assert entry.size == len(lazy.members(0))

    def test_true_class_clusters_found(self, lazy, tiny_table, spec_model_tiny):
        """Clusters whose centroid is a head class are discoverable by
        querying that class (recall of the index itself)."""
        head = int(spec_model_tiny.head_classes[0])
        hits = lazy.lookup(head)
        centroid_hits = sum(
            1 for cid in hits if lazy.cluster(cid).centroid_class == head
        )
        total = sum(
            1
            for cid in range(lazy.num_clusters)
            if lazy.cluster(cid).centroid_class == head
        )
        if total:
            assert centroid_hits / total > 0.85

    def test_materialize_matches_lazy_structure(self, lazy):
        explicit = lazy.materialize()
        assert explicit.num_clusters == lazy.num_clusters
        for cid in range(lazy.num_clusters):
            assert explicit.cluster(cid).size == lazy.cluster(cid).size
            np.testing.assert_array_equal(explicit.members(cid), lazy.members(cid))

    def test_to_docstore_via_materialize(self, lazy):
        store = DocumentStore()
        lazy.to_docstore(store)
        loaded = TopKIndex.from_docstore(store, lazy.stream)
        assert loaded.num_clusters == lazy.num_clusters
