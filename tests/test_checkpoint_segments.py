"""Checkpoint state = one head document + write-once row segments.

Pins the layout of ``ingest-state:<stream>`` with counts, not clocks:
a checkpoint encodes only the rows past the last *committed* one and
writes nothing but one segment, the head and the marker (the index is
derived on recovery, never stored), the earlier segments are never
rewritten (the stored dicts stay the very same objects), a worker leg
ships only the new documents, and a damaged or missing segment refuses
to recover.
"""

import json

import numpy as np
import pytest

from fabric_loopback import assert_no_leaked_segments
from repro.core.streaming import StreamIngestor
from repro.fabric.supervisor import FabricSupervisor
from repro.storage.docstore import DocumentStore
from repro.storage.faults import FaultInjected, FaultyStore
from repro.storage.journal import (
    CHECKPOINT_COLLECTION,
    SEGMENT_COLUMNS,
    STATE_PREFIX,
    IngestJournal,
    JournalCorruption,
    committed_checkpoint,
    load_ingest_state,
    load_state_rows,
    payload_digest,
)
from repro.storage.packing import pack_array, unpack_array
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
    # an array passes through (recovery hands the clusterer its rows so)
    assert unpack_array(values, dtype).tobytes() == values.tobytes()
    assert len(unpack_array(pack_array([], dtype), dtype)) == 0


def test_unpack_array_rejects_torn_strings():
    packed = pack_array(np.arange(5), np.int64)
    for torn in (packed[:-3], packed[:-4], "!" + packed[1:]):
        with pytest.raises(ValueError):
            unpack_array(torn, np.int64)


# -- O(delta), in counts -------------------------------------------------------

def _writes(store):
    """Inserts plus updates so far, per collection of ``store``."""
    return {
        name: store.collection(name).inserts + store.collection(name).updates
        for name in store.collection_names()
    }


def _index_documents(store):
    """Collections holding index documents (what only an export writes)."""
    return [
        name for name in store.collection_names()
        if name.startswith("clusters:") or name in ("index-meta", "stream-meta")
    ]


@pytest.mark.parametrize("index_mode", ["materialized", "lazy"])
def test_segments_tile_and_are_written_once(workload, index_mode):
    table, config, chunks = workload
    store = DocumentStore()
    ingestor = open_journaled(store, table, config, index_mode)
    kept = []
    for k, chunk in enumerate(chunks, start=1):
        ingestor.push(chunk)
        before = _writes(store)
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

        # one segment + the head, and the marker: nothing else
        written = {
            name: count - before.get(name, 0)
            for name, count in _writes(store).items()
            if count != before.get(name, 0)
        }
        assert written == {STATE_PREFIX + STREAM: 2, CHECKPOINT_COLLECTION: 1}
        assert _index_documents(store) == []

        head = head_of(store)
        assert head["payload"]["rows"] == ingestor.num_rows
        assert set(segments[-1]["columns"]) == {n for n, _ in SEGMENT_COLUMNS}
        assert not {"columns", "suppressed"} & set(head["payload"])
        assert "assignments" not in head["payload"]["clusterer"]
        json.dumps(store.to_json_obj())  # packed columns are str, not bytes


#: the clusterer's head keys: scalars and the four live-slot arrays
LIVE_SLOT_ARRAYS = {"sums", "dense", "counts", "live_ids"}
CLUSTERER_SCALARS = {
    "threshold", "dim", "max_live", "strict", "n_live", "next_id", "rows_seen",
    "full_scans", "shortcut_hits",
}
#: JSON characters allowed for everything in a head but the live-slot
#: arrays: key names, the descriptor, cursors, counters, checksum
HEAD_FIXED_CHARS = 1024


def head_bound(max_live, dim):
    """A head's JSON size at most, from ``max_live`` and ``dim`` alone:
    the four live-slot arrays full (base64 of 8-byte items) plus the
    fixed allowance."""
    def packed(items):
        return 4 * -(-8 * items // 3)

    return packed(max_live * dim) + 3 * packed(max_live) + HEAD_FIXED_CHARS


@pytest.mark.parametrize("history", [1, 4])
def test_head_holds_nothing_per_row(table_factory, live_config, history):
    """The head holds no array sized by rows, clusters or tracks: the
    clusterer keeps the scalars and the four live-slot arrays, so at 1x
    and 4x the history the head's JSON size stays under a bound computed
    from ``max_live`` and ``dim`` alone."""
    max_live = 8
    table = table_factory(STREAM, 20.0 * history, 10.0)
    store = DocumentStore()
    ingestor = StreamIngestor(
        live_config, STREAM, fps=table.fps, max_live_clusters=max_live,
        journal=IngestJournal(store, STREAM),
    )
    for chunk in split_chunks(table):
        ingestor.push(chunk)
        ingestor.checkpoint(store)
        head = head_of(store)
        payload = head["payload"]
        assert set(payload) == {
            "descriptor", "rows", "watermark_s", "last_time_s", "cnn_inferences",
            "ingest_gpu_seconds", "chunks_pushed", "clusterer",
        }
        clusterer = payload["clusterer"]
        assert set(clusterer) == CLUSTERER_SCALARS | LIVE_SLOT_ARRAYS
        assert all(
            isinstance(clusterer[key], (int, float, bool)) for key in CLUSTERER_SCALARS
        )
        live, dim = clusterer["n_live"], clusterer["dim"]
        assert live <= max_live
        assert {
            key: len(unpack_array(clusterer[key], np.float64 if key == "sums" else np.int64))
            for key in LIVE_SLOT_ARRAYS
        } == {"sums": live * dim, "dense": live, "counts": live, "live_ids": live}
        assert len(json.dumps(head)) <= head_bound(max_live, dim)
    # the cap was reached: retired clusters are in the history
    assert ingestor.clusters.num_clusters > 2 * max_live and live == max_live


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


@pytest.mark.parametrize("index_mode", ["materialized", "lazy"])
def test_worker_leg_ships_only_the_new_documents(workload, index_mode):
    """Over the worker wire the k-th checkpoint's store delta is the
    new segment, the head and the marker: the mirror's earlier
    segments are not touched, and no index document travels."""
    table, config, chunks = workload
    twin_store = DocumentStore()
    twin = open_journaled(twin_store, table, config, index_mode=index_mode)
    with FabricSupervisor(["solo"]) as supervisor:
        client = supervisor.client("solo")
        client.open_stream(
            STREAM, fps=table.fps, config=config, durable=True, index_mode=index_mode
        )
        mirror = supervisor.store("solo")
        kept = []
        for k, chunk in enumerate(chunks, start=1):
            client.append(STREAM, chunk)
            twin.push(chunk)
            writes = _state_writes(mirror)
            shipped = client.counters()["cost"]["delta_docs_shipped"]
            client.checkpoint(streams=[STREAM])
            twin.checkpoint(twin_store)

            segments = segments_of(mirror)
            assert len(segments) == k
            if k > 1:  # the first checkpoint ships the new collection whole
                assert _state_writes(mirror) - writes == 2
                assert all(a is b for a, b in zip(kept, segments))
                # segment + head + marker, and the compacted WAL record
                # of the chunk as a remove
                delta = client.counters()["cost"]["delta_docs_shipped"] - shipped
                assert delta == 2 + 1 + 1
            kept = segments
            assert _index_documents(mirror) == []
        # and what it holds is what an in-process session wrote
        assert segments_of(mirror) == segments_of(twin_store)
    assert_no_leaked_segments(supervisor)


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


def _pre_segment_layout(store):
    """The layout from before row segments, older than the read-compat
    horizon (docs/DURABILITY.md): rows inline in a self-consistent head,
    no segments.  The inline rows are not read."""
    states = store.collection(STATE_PREFIX + STREAM)
    head = head_of(store)
    rows = load_state_rows(store, STREAM, head["payload"])
    payload = dict(
        head["payload"],
        suppressed=rows["suppressed"].tolist(),
        columns={name: rows[name].tolist() for name, _ in SEGMENT_COLUMNS},
    )
    for doc in segments_of(store):
        states.delete(doc["_id"])
    states.update_one(
        head["_id"], {"payload": payload, "checksum": payload_digest(payload)}
    )


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
        (_pre_segment_layout, "segments hold 0"),
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
