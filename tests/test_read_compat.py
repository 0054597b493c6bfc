"""Read compatibility: a store written before the head dropped cluster
history still recovers.

``tests/golden/head_2755848.json`` is a durable session's store as
commit 2755848 wrote it: one short camera pushed in two chunks, with a
checkpoint after each, and a live-cluster cap small enough that clusters
were retired and suppressed rows followed a retired cluster.  That
layout's head also packed each cluster's seed row and size and the
track map (``seed_rows``, ``sizes``, ``track_cache``); today's reads
none of them and derives all three from the row segments.

The fixture is written by :func:`write_fixture`; to rebuild it, copy
this file into a checkout of that commit and run, from the checkout's
root::

    PYTHONPATH=src python tests/test_read_compat.py head_2755848.json
"""

import os
import sys

import numpy as np
import pytest

from repro.cnn.zoo import cheap_cnn
from repro.core.clustering import IncrementalClusterer
from repro.core.config import FocusConfig
from repro.core.ingest import simulate_pixel_diff
from repro.core.streaming import StreamIngestor
from repro.storage.docstore import DocumentStore
from repro.storage.journal import IngestJournal, load_ingest_state
from repro.storage.packing import unpack_array
from repro.video.synthesis import generate_observations
from test_recovery import split_chunks, state_fingerprint

STREAM, DURATION_S, FPS, MAX_LIVE = "auburn_c", 20.0, 10.0, 2
CONFIG = FocusConfig(model=cheap_cnn(1), k=2, cluster_threshold=0.12)
FIXTURE = os.path.join(os.path.dirname(__file__), "golden", "head_2755848.json")


def chunks():
    """The camera's three chunks: the fixture holds the first two."""
    return split_chunks(generate_observations(STREAM, DURATION_S, FPS), 3)


def session(store=None):
    journal = None if store is None else IngestJournal(store, STREAM)
    return StreamIngestor(
        CONFIG, STREAM, fps=FPS, max_live_clusters=MAX_LIVE, journal=journal
    )


def write_fixture(path):
    store = DocumentStore()
    ingestor = session(store)
    for chunk in chunks()[:2]:
        ingestor.push(chunk)
        ingestor.checkpoint(store)
    store.save(path)


@pytest.fixture
def recovered():
    store = DocumentStore.load(FIXTURE)
    head = load_ingest_state(store, STREAM)["payload"]["clusterer"]
    return StreamIngestor.recover(store, STREAM), head


def test_fixture_recovers(recovered):
    ingestor, head = recovered
    assert ingestor.num_rows == sum(len(c) for c in chunks()[:2])
    assert ingestor.chunks_pushed == 2 and ingestor.committed_epoch == 2
    assert ingestor._clusterer.bounded_state() == {
        key: head[key] for key in ingestor._clusterer.bounded_state()
    }


def test_derived_history_equals_the_stored_arrays(recovered):
    ingestor, head = recovered
    np.testing.assert_array_equal(
        ingestor.clusters.seed_rows, unpack_array(head["seed_rows"], np.int64))
    np.testing.assert_array_equal(
        ingestor.clusters.sizes, unpack_array(head["sizes"], np.int64))
    stored = unpack_array(head["track_cache"], np.int64).reshape(-1, 2)
    assert ingestor._clusterer._track_cache == dict(stored.tolist())


def test_fixture_covers_retired_clusters(recovered):
    """Clusters were retired, and a suppressed row joined a cluster that
    was out of the live set at that row (replayed one row at a time)."""
    ingestor, head = recovered
    assert head["n_live"] == MAX_LIVE < head["next_id"]
    table = ingestor.table
    features = CONFIG.model.feature_extractor().extract(table)
    suppressed = simulate_pixel_diff(table)
    clusterer = IncrementalClusterer(CONFIG.cluster_threshold, features.shape[1], MAX_LIVE)
    followed_retired = 0
    for row, track in enumerate(table.track_id.tolist()):
        cid = clusterer._track_cache.get(track)
        followed_retired += bool(
            suppressed[row] and cid is not None and cid not in clusterer._slot_of_id
        )
        clusterer.add(features[row:row + 1], table.track_id[row:row + 1],
                      suppressed=suppressed[row:row + 1])
    np.testing.assert_array_equal(
        clusterer.snapshot().assignments, ingestor.clusters.assignments)
    assert followed_retired > 0


def test_next_chunk_matches_an_uninterrupted_session(recovered):
    ingestor, _ = recovered
    rest = chunks()
    uninterrupted = session()
    reports = [uninterrupted.push(chunk) for chunk in rest]
    assert ingestor.push(rest[2]) == reports[2]
    assert state_fingerprint(ingestor) == state_fingerprint(uninterrupted)
    assert ingestor._clusterer.bounded_state() == uninterrupted._clusterer.bounded_state()
    assert ingestor._clusterer._track_cache == uninterrupted._clusterer._track_cache


if __name__ == "__main__":
    write_fixture(sys.argv[1])
