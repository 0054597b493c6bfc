"""Checkpoint state = one head document + write-once row segments.

Pins the layout of ``ingest-state:<stream>`` with counts, not clocks:
a checkpoint encodes only the rows past the last *committed* one, the
earlier segments are never rewritten (the stored dicts stay the very
same objects), a worker leg ships only the new documents, and a
checkpoint in the layout the previous format wrote -- one state
document with inline list columns -- recovers bit for bit and is
converted by the next checkpoint.
"""

import json

import numpy as np
import pytest

import test_recovery
from repro.core.streaming import StreamIngestor
from repro.fabric.worker import FabricSupervisor
from repro.storage.docstore import DocumentStore
from repro.storage.faults import FaultInjected, FaultyStore
from repro.storage.journal import (
    CHECKPOINT_COLLECTION,
    CHUNK_COLUMNS,
    SEGMENT_COLUMNS,
    STATE_PREFIX,
    JournalCorruption,
    committed_checkpoint,
    load_ingest_state,
    load_state_rows,
    pack_array,
    payload_digest,
    unpack_array,
)
from test_fault_injection import open_journaled
from test_recovery import split_chunks, state_fingerprint

STREAM = "auburn_c"


@pytest.fixture(scope="module")
def workload(seeded_workload):
    tables, config = seeded_workload
    table = tables[STREAM]
    return table, config, split_chunks(table)


def segments_of(store, stream=STREAM):
    return [
        doc for doc in store.collection(STATE_PREFIX + stream).find()
        if "start" in doc
    ]


def head_of(store, stream=STREAM):
    return store.collection(STATE_PREFIX + stream).find_one({"stream": stream})


def rewrite_in_parent_layout(store, streams):
    """Rewrite each stream's committed checkpoint into the layout the
    previous format wrote: one state document holding every column, the
    suppression mask and the clusterer's arrays as inline lists, and no
    segment documents."""
    for stream in streams:
        states = store.collection(STATE_PREFIX + stream)
        head = head_of(store, stream)
        payload = head["payload"]
        rows, _ = load_state_rows(store, stream, payload)
        clusterer = dict(payload["clusterer"])
        shape = {"sums": (clusterer["n_live"], clusterer["dim"]), "track_cache": (-1, 2)}
        for key, dtype in (
            ("sums", np.float64), ("dense", np.int64), ("counts", np.int64),
            ("live_ids", np.int64), ("seed_rows", np.int64), ("sizes", np.int64),
            ("track_cache", np.int64),
        ):
            values = unpack_array(clusterer[key], dtype)
            clusterer[key] = values.reshape(shape.get(key, (-1,))).tolist()
        clusterer["assignments"] = rows["assignments"].tolist()
        legacy = dict(
            payload,
            clusterer=clusterer,
            suppressed=[int(v) for v in rows["suppressed"]],
            columns={name: rows[name].tolist() for name, _ in CHUNK_COLUMNS},
        )
        for doc in segments_of(store, stream):
            states.delete(doc["_id"])
        states.update_one(
            head["_id"], {"payload": legacy, "checksum": payload_digest(legacy)}
        )
        assert len(states) == 1


# -- the packing rule ----------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.int64, np.float64, np.uint8])
def test_pack_array_round_trips_bit_exact(dtype):
    rng = np.random.default_rng(7)
    values = (rng.standard_normal(257) * 1e6).astype(dtype)
    packed = pack_array(values, dtype)
    assert isinstance(packed, str) and json.loads(json.dumps(packed)) == packed
    out = unpack_array(packed, dtype)
    assert out.dtype == np.dtype(dtype)
    assert out.tobytes() == values.tobytes()
    # the list form the previous format stored reads through the same call
    assert unpack_array(values.tolist(), dtype).tobytes() == values.tobytes()
    assert len(unpack_array(pack_array([], dtype), dtype)) == 0


def test_unpack_array_rejects_torn_strings():
    packed = pack_array(np.arange(5), np.int64)
    for torn in (packed[:-3], packed[:-4], "!" + packed[1:]):
        with pytest.raises(JournalCorruption):
            unpack_array(torn, np.int64)


# -- O(delta), in counts -------------------------------------------------------

def test_segments_tile_and_are_written_once(workload):
    table, config, chunks = workload
    store = DocumentStore()
    ingestor = open_journaled(store, table, config)
    kept = []
    for k, chunk in enumerate(chunks, start=1):
        ingestor.push(chunk)
        states = store.collection(STATE_PREFIX + STREAM)
        clusters = store.collection("clusters:%s" % STREAM)
        markers = store.collection(CHECKPOINT_COLLECTION)
        before = {
            c.name: c.inserts + c.updates for c in (states, clusters, markers)
        }
        dirty = len(ingestor.index.dirty_clusters)
        ingestor.checkpoint(store)

        segments = segments_of(store)
        assert len(segments) == k
        assert [s["start"] for s in segments] == list(
            np.cumsum([0] + [s["rows"] for s in segments[:-1]])
        )
        assert segments[-1]["start"] + segments[-1]["rows"] == ingestor.num_rows
        assert segments[-1]["rows"] == len(chunk)
        # the earlier segments are the identical stored dicts
        assert all(a is b for a, b in zip(kept, segments))
        kept = segments

        def writes(name):
            coll = store.collection(name)
            return coll.inserts + coll.updates - before[name]

        assert writes(states.name) == 2  # one segment + the head
        assert writes(clusters.name) == dirty
        assert writes(markers.name) == 1

        head = head_of(store)
        assert head["payload"]["rows"] == ingestor.num_rows
        assert set(segments[-1]["columns"]) == {n for n, _ in SEGMENT_COLUMNS}
        assert not {"columns", "suppressed"} & set(head["payload"])
        assert "assignments" not in head["payload"]["clusterer"]
        json.dumps(store.to_json_obj())  # packed columns are str, not bytes


def test_head_holds_nothing_per_row(workload):
    """Every array in the head is sized by live clusters, clusters or
    tracks -- O(live clusters + clusters + tracks), never O(rows)."""
    table, config, chunks = workload
    store = DocumentStore()
    ingestor = open_journaled(store, table, config)
    for chunk in chunks:
        ingestor.push(chunk)
        ingestor.checkpoint(store)
        payload = head_of(store)["payload"]
        assert set(payload) == {
            "descriptor", "rows", "watermark_s", "last_time_s", "cnn_inferences",
            "ingest_gpu_seconds", "chunks_pushed", "clusterer",
        }
        clusterer = payload["clusterer"]
        live, clusters = clusterer["n_live"], clusterer["next_id"]
        tracks = len(np.unique(ingestor.table.track_id))
        lengths = {
            key: len(unpack_array(clusterer[key], dtype))
            for key, dtype in (
                ("sums", np.float64), ("dense", np.int64), ("counts", np.int64),
                ("live_ids", np.int64), ("seed_rows", np.int64),
                ("sizes", np.int64), ("track_cache", np.int64),
            )
        }
        assert lengths == {
            "sums": live * clusterer["dim"], "dense": live, "counts": live,
            "live_ids": live, "seed_rows": clusters, "sizes": clusters,
            "track_cache": 2 * tracks,
        }
        assert all(
            isinstance(v, (str, int, float, bool)) for v in clusterer.values()
        )


def test_checkpoint_without_new_rows_writes_no_segment(workload):
    table, config, chunks = workload
    store = DocumentStore()
    ingestor = open_journaled(store, table, config)
    ingestor.checkpoint(store)
    assert segments_of(store) == [] and head_of(store)["payload"]["rows"] == 0
    ingestor.push(chunks[0])
    ingestor.checkpoint(store)
    ingestor.checkpoint(store)
    assert len(segments_of(store)) == 1
    recovered = StreamIngestor.recover(store, STREAM)
    assert recovered.num_rows == len(chunks[0])


def _state_writes(store):
    if STATE_PREFIX + STREAM not in store.collection_names():
        return 0
    states = store.collection(STATE_PREFIX + STREAM)
    return states.inserts + states.updates


def test_worker_leg_ships_only_the_new_documents(workload):
    """Over the worker wire the k-th checkpoint's store delta is the
    new segment, the head, the dirty clusters and the marker: the
    mirror's earlier segments are not touched."""
    table, config, chunks = workload
    twin_store = DocumentStore()
    twin = open_journaled(twin_store, table, config, index_mode="lazy")
    with FabricSupervisor(["solo"]) as supervisor:
        client = supervisor.client("solo")
        client.open_stream(STREAM, fps=table.fps, config=config, durable=True)
        mirror = supervisor.store("solo")
        kept = []
        for k, chunk in enumerate(chunks, start=1):
            client.append(STREAM, chunk)
            twin.push(chunk)
            dirty = len(twin.index.dirty_clusters)
            writes = _state_writes(mirror)
            shipped = client.counters()["cost"]["delta_docs_shipped"]
            client.checkpoint(streams=[STREAM])
            twin.checkpoint(twin_store)

            segments = segments_of(mirror)
            assert len(segments) == k
            if k > 1:  # the first checkpoint ships the new collection whole
                assert _state_writes(mirror) - writes == 2
                assert all(a is b for a, b in zip(kept, segments))
                # segment + head + marker + index meta + dirty clusters,
                # and the compacted WAL record of the chunk as a remove
                delta = client.counters()["cost"]["delta_docs_shipped"] - shipped
                assert delta == 2 + 1 + 1 + dirty + 1
            kept = segments
        # and what it holds is what an in-process session wrote
        assert segments_of(mirror) == segments_of(twin_store)
    assert supervisor.leaked_segments == []


# -- corruption ----------------------------------------------------------------

def _two_checkpoints(workload):
    table, config, chunks = workload
    store = DocumentStore()
    ingestor = open_journaled(store, table, config)
    for chunk in chunks[:2]:
        ingestor.push(chunk)
        ingestor.checkpoint(store)
    return store


def _tear_column(store):
    states = store.collection(STATE_PREFIX + STREAM)
    doc = segments_of(store)[1]
    columns = dict(doc["columns"], time_s=doc["columns"]["time_s"][:-8])
    states.update_one(doc["_id"], {"columns": columns})


def _flip_checksummed_bytes(store):
    states = store.collection(STATE_PREFIX + STREAM)
    doc = segments_of(store)[0]
    values = unpack_array(doc["columns"]["frame_idx"], np.int64).copy()
    values[0] += 1
    columns = dict(doc["columns"], frame_idx=pack_array(values, np.int64))
    states.update_one(doc["_id"], {"columns": columns})


def _drop_segment(store):
    states = store.collection(STATE_PREFIX + STREAM)
    states.delete(segments_of(store)[0]["_id"])


def _drop_last_segment(store):
    states = store.collection(STATE_PREFIX + STREAM)
    states.delete(segments_of(store)[1]["_id"])


def _duplicate_segment(store):
    states = store.collection(STATE_PREFIX + STREAM)
    doc = segments_of(store)[1]
    states.insert_one({k: v for k, v in doc.items() if k != "_id"})


def _head_rows_disagree(store):
    states = store.collection(STATE_PREFIX + STREAM)
    head = head_of(store)
    payload = dict(head["payload"], rows=head["payload"]["rows"] - 1)
    states.update_one(
        head["_id"], {"payload": payload, "checksum": payload_digest(payload)}
    )


def _strip_checksum(store):
    states = store.collection(STATE_PREFIX + STREAM)
    doc = segments_of(store)[0]
    stripped = {k: v for k, v in doc.items() if k not in ("_id", "checksum")}
    states.delete(doc["_id"])
    states.insert_one(stripped)


@pytest.mark.parametrize(
    "damage, match",
    [
        (_tear_column, "torn|truncated"),
        (_flip_checksummed_bytes, "checksum"),
        (_strip_checksum, "checksum"),
        (_drop_segment, "missing or overlapping"),
        (_drop_last_segment, "segments hold"),
        (_duplicate_segment, "missing or overlapping"),
        (_head_rows_disagree, "missing or overlapping|segments hold"),
    ],
)
def test_damaged_segments_refuse_to_recover(workload, damage, match):
    store = _two_checkpoints(workload)
    StreamIngestor.recover(store, STREAM)  # whole: recovers
    damage(store)
    head = load_ingest_state(store, STREAM)
    with pytest.raises(JournalCorruption, match=match):
        load_state_rows(store, STREAM, head["payload"])
    with pytest.raises(JournalCorruption):
        StreamIngestor.recover(store, STREAM)


# -- crash points between segment, head and commit -------------------------------

@pytest.mark.parametrize("index_mode", ["materialized", "lazy"])
def test_crash_between_segment_head_and_commit(workload, index_mode):
    """Killed after staging the segment, after staging the head, or at
    the commit: the previous checkpoint survives whole, the surviving
    session's retry writes the same row range, and a recovery from
    either side finishes bit-identical to uninterrupted ingest."""
    table, config, chunks = workload
    reference_store = DocumentStore()
    reference = open_journaled(reference_store, table, config, index_mode)
    for chunk in chunks:
        reference.push(chunk)
    expected = state_fingerprint(reference)

    def session():
        store = DocumentStore()
        ingestor = open_journaled(store, table, config, index_mode)
        ingestor.push(chunks[0])
        ingestor.checkpoint(store)
        ingestor.push(chunks[1])
        return store, ingestor

    _, probe = session()
    profile = FaultyStore(probe.journal.store)
    probe.checkpoint(profile)
    state_name = STATE_PREFIX + STREAM
    ops = [op for op, _ in profile.write_log]
    segment_at = profile.write_log.index(("insert_one", state_name))
    head_at = profile.write_log.index(("upsert", state_name))
    commit_at = ops.index("commit_staged")
    assert segment_at < head_at < commit_at

    for budget in (segment_at, head_at, head_at + 1, commit_at):
        store, ingestor = session()
        committed = (
            committed_checkpoint(store, STREAM), head_of(store), segments_of(store)
        )
        with pytest.raises(FaultInjected):
            ingestor.checkpoint(FaultyStore(store, fail_after_writes=budget))
        # the previous checkpoint: same marker, same head, same segment
        assert committed_checkpoint(store, STREAM) == committed[0]
        assert head_of(store) is committed[1]
        assert all(a is b for a, b in zip(segments_of(store), committed[2]))
        assert len(segments_of(store)) == 1

        # a recovery from the torn store finishes like the reference
        clone = DocumentStore.from_json_obj(json.loads(json.dumps(store.to_json_obj())))
        recovered = StreamIngestor.recover(clone, STREAM)
        assert recovered.num_rows == len(chunks[0]) + len(chunks[1])
        for chunk in chunks[2:]:
            recovered.push(chunk)
        assert state_fingerprint(recovered) == expected

        # the survivor's retry writes the same range [rows(c0), rows(c0+c1))
        ingestor.checkpoint(store)
        segments = segments_of(store)
        assert [(s["start"], s["rows"]) for s in segments] == [
            (0, len(chunks[0])), (len(chunks[0]), len(chunks[1])),
        ]
        assert segments[0] is committed[2][0]
        assert StreamIngestor.recover(store, STREAM).num_rows == ingestor.num_rows


# -- the previous format ---------------------------------------------------------

@pytest.mark.parametrize("index_mode", ["materialized", "lazy"])
def test_parent_layout_recovers_and_next_checkpoint_converts(workload, index_mode):
    table, config, chunks = workload
    uninterrupted = open_journaled(DocumentStore(), table, config, index_mode)
    fingerprints = []
    for chunk in chunks:
        uninterrupted.push(chunk)
        fingerprints.append(state_fingerprint(uninterrupted))

    store = DocumentStore()
    ingestor = open_journaled(store, table, config, index_mode)
    ingestor.push(chunks[0])
    ingestor.checkpoint(store)
    ingestor.push(chunks[1])
    ingestor.checkpoint(store)
    rewrite_in_parent_layout(store, [STREAM])
    assert segments_of(store) == []
    assert isinstance(head_of(store)["payload"]["columns"]["time_s"], list)
    ingestor.push(chunks[2])  # in the WAL only
    del ingestor

    # first recovery: from the parent's layout plus the journal suffix
    first = StreamIngestor.recover(store, STREAM)
    assert state_fingerprint(first) == fingerprints[2]

    # its next checkpoint converts: one segment over [0, rows), lean head
    first.checkpoint(store)
    (segment,) = segments_of(store)
    assert (segment["start"], segment["rows"]) == (0, first.num_rows)
    payload = head_of(store)["payload"]
    assert not {"columns", "suppressed"} & set(payload)
    assert "assignments" not in payload["clusterer"]
    assert isinstance(payload["clusterer"]["sums"], str)
    assert len(store.collection(STATE_PREFIX + STREAM)) == 2

    # second recovery: from the converted checkpoint
    second = StreamIngestor.recover(store, STREAM)
    assert state_fingerprint(second) == fingerprints[2]
    second.push(chunks[3])
    second.checkpoint(store)
    assert [(s["start"], s["rows"]) for s in segments_of(store)] == [
        (0, first.num_rows), (first.num_rows, len(chunks[3])),
    ]

    # third recovery: mixed lineage (converted segment + a native one)
    third = StreamIngestor.recover(store, STREAM)
    assert state_fingerprint(third) == fingerprints[3]


def test_focus_system_recovers_parent_layout(seeded_workload):
    """``FocusSystem.recover`` over a three-stream store whose
    checkpoints are all in the parent's layout answers like a system
    that never crashed."""
    test_recovery.TestSystemRecovery._crash_recover_compare(
        seeded_workload, rewrite_in_parent_layout
    )


def test_parent_layout_with_segments_is_corruption(workload):
    """An inline head claims rows [0, rows) itself: a segment beside it
    overlaps."""
    store = _two_checkpoints(workload)
    spare = segments_of(store)[1]
    rewrite_in_parent_layout(store, [STREAM])
    store.collection(STATE_PREFIX + STREAM).insert_one(
        {k: v for k, v in spare.items() if k != "_id"}
    )
    with pytest.raises(JournalCorruption, match="missing or overlapping"):
        StreamIngestor.recover(store, STREAM)
