"""WAL chunk records pack their columns, and a journal written before
they did still replays.

``tests/golden/wal_127db97.json`` is a durable session's store as
commit 127db97 wrote it: one camera, its first chunk pushed and
checkpointed, then two more chunks journaled only.  That layout's chunk
records held each column as a JSON list; today's pack each as one
base64 string (``repro.storage.packing``).  Both forms hash the same raw
little-endian column bytes, so a stored checksum verifies either way.

The fixture is written by :func:`write_fixture`; to rebuild it, copy
this file into a checkout of that commit and run, from the checkout's
root::

    PYTHONPATH=src python tests/test_wal_compat.py wal_127db97.json
"""

import os
import sys
import tracemalloc

import numpy as np
import pytest

from repro.cnn.zoo import cheap_cnn
from repro.core.config import FocusConfig
from repro.core.streaming import StreamIngestor
from repro.storage.docstore import DocumentStore
from repro.storage import journal as journal_module
from repro.storage.journal import (
    CHUNK_COLUMNS,
    JOURNAL_PREFIX,
    SEGMENT_COLUMNS,
    STATE_PREFIX,
    IngestJournal,
    chunk_digest,
    chunk_to_payload,
)
from repro.video.synthesis import generate_observations
from test_recovery import split_chunks, state_fingerprint

STREAM, DURATION_S, FPS = "auburn_c", 20.0, 10.0
CONFIG = FocusConfig(model=cheap_cnn(1), k=2, cluster_threshold=0.12)
FIXTURE = os.path.join(os.path.dirname(__file__), "golden", "wal_127db97.json")
#: the checksum commit 127db97 stored for the second chunk's record
SECOND_CHUNK_CHECKSUM = "fee151649ff409d7d1d3f0e60a0e1049d5b0b778"


def chunks():
    """The camera's four chunks: the fixture holds the first three."""
    return split_chunks(generate_observations(STREAM, DURATION_S, FPS), 4)


def session(store=None):
    journal = None if store is None else IngestJournal(store, STREAM)
    return StreamIngestor(CONFIG, STREAM, fps=FPS, journal=journal)


def uninterrupted(n):
    ingestor = session()
    for chunk in chunks()[:n]:
        ingestor.push(chunk)
    return ingestor


def fixture_session(store):
    """The fixture's history: chunk 1 checkpointed, 2 and 3 journaled."""
    ingestor = session(store)
    first, second, third = chunks()[:3]
    ingestor.push(first)
    ingestor.checkpoint(store)
    ingestor.push(second)
    ingestor.push(third)


def write_fixture(path):
    store = DocumentStore()
    fixture_session(store)
    store.save(path)


@pytest.fixture
def store():
    return DocumentStore.load(FIXTURE)


def chunk_records(store):
    docs = store.collection(JOURNAL_PREFIX + STREAM).find({"kind": "chunk"})
    return sorted(docs, key=lambda doc: doc["seq"])


def test_fixture_holds_list_columns(store):
    records = chunk_records(store)
    assert len(records) == 2
    for doc in records:
        assert all(isinstance(v, list) for v in doc["payload"]["columns"].values())


def test_stored_checksums_verify_in_both_forms(store):
    """The list-form checksums verify, and packing the same chunk today
    reproduces each one: the two forms hash the same bytes."""
    records = chunk_records(store)
    verified = IngestJournal(store, STREAM).records()
    assert [r.seq for r in verified][-2:] == [doc["seq"] for doc in records]
    for doc, record in zip(records, verified[-2:]):
        payload = doc["payload"]
        assert chunk_digest(doc["seq"], payload) == doc["checksum"]
        packed = chunk_to_payload(record.chunk, payload["watermark_s"])
        assert all(isinstance(v, str) for v in packed["columns"].values())
        assert chunk_digest(doc["seq"], packed) == doc["checksum"]
    assert records[0]["checksum"] == SECOND_CHUNK_CHECKSUM


def test_recover_matches_an_uninterrupted_session(store):
    recovered = StreamIngestor.recover(store, STREAM)
    assert recovered.chunks_pushed == 3 and recovered.committed_epoch == 1
    assert state_fingerprint(recovered) == state_fingerprint(uninterrupted(3))


def test_mixed_journal_recovers(store):
    """One more chunk journaled in the packed form behind the list-form
    records: the mixed journal replays to the uninterrupted state."""
    recovered = StreamIngestor.recover(store, STREAM)
    recovered.push(chunks()[3])
    columns = chunk_records(store)[-1]["payload"]["columns"]
    assert all(isinstance(v, str) for v in columns.values())
    again = StreamIngestor.recover(store, STREAM)
    assert again.chunks_pushed == 4
    assert state_fingerprint(again) == state_fingerprint(uninterrupted(4))


@pytest.mark.parametrize("layout", ["packed", "lists"])
def test_replay_decodes_each_column_once(monkeypatch, layout):
    """``recover`` replays the chunks the journal's verification decoded:
    one ``unpack_array`` per column per replayed chunk record, besides
    one per column of each checkpointed row segment."""
    if layout == "lists":
        store = DocumentStore.load(FIXTURE)
    else:
        store = DocumentStore()
        fixture_session(store)
    calls = []
    unpack = journal_module.unpack_array

    def counting_unpack(*args, **kwargs):
        calls.append(1)
        return unpack(*args, **kwargs)

    monkeypatch.setattr(journal_module, "unpack_array", counting_unpack)
    recovered = StreamIngestor.recover(store, STREAM)
    segments = [doc for doc in store.collection(STATE_PREFIX + STREAM).find()
                if "start" in doc]
    assert len(segments) == 1 and recovered.chunks_pushed == 3
    assert len(calls) == len(SEGMENT_COLUMNS) + 2 * len(CHUNK_COLUMNS)


def test_packed_record_is_small_and_bit_exact():
    """A 1 024-row record holds one ``str`` per column, reads back
    bit-exactly, and is at most 80 B/row resident (lists: ~167)."""
    table = generate_observations(STREAM, 120.0, 15.0)
    chunk = table.slice(0, 1024)
    assert len(chunk) == 1024
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        payload = chunk_to_payload(chunk, None)
        resident = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert resident / 1024 <= 80
    assert all(isinstance(v, str) for v in payload["columns"].values())
    journal = IngestJournal(DocumentStore(), STREAM)
    journal.append_chunk(chunk)
    back = journal.records()[-1].chunk
    for name, dtype in CHUNK_COLUMNS:
        assert getattr(back, name).dtype == dtype
        assert getattr(back, name).tobytes() == np.asarray(
            getattr(chunk, name), dtype=dtype).tobytes()


if __name__ == "__main__":
    write_fixture(sys.argv[1])
