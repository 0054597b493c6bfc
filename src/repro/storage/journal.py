"""Write-ahead ingest journal and atomic epoch-tagged checkpoints.

The durability layer under live ingest (``repro.core.streaming``):

* :class:`IngestJournal` -- an append-only journal of ingest chunks in
  a document store.  Every record is sequence-numbered and checksummed;
  readers verify integrity (torn/truncated payloads, sequence gaps) and
  deduplicate at-least-once replays, so a producer that retries an
  unacknowledged append cannot double-ingest a chunk.
* :class:`CheckpointWriter` -- an atomic multi-collection checkpoint.
  All checkpoint writes (the ingest-state head, one row segment, the
  commit marker itself) land in *staged* clones of the live
  collections and become visible in one indivisible
  :meth:`~repro.storage.docstore.DocumentStore.commit_staged` swap.  A
  crash at any earlier point leaves the previous committed checkpoint
  fully intact.
* Per-stream *epochs*: each committed checkpoint carries a
  monotonically increasing epoch, committed compare-and-swap style.  A
  zombie session (pre-crash survivor) that tries to checkpoint over a
  newer session's commit is rejected with :class:`StaleEpochError`
  instead of silently corrupting the snapshot.

Recovery contract: a stream's durable state is the last committed
checkpoint plus every journal record with a later sequence number.
Because ingest is deterministic, replaying those records through a
restored :class:`~repro.core.streaming.StreamIngestor` reproduces the
uninterrupted in-memory state bit for bit (see ``docs/DURABILITY.md``).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.storage.docstore import (
    CheckpointStore,
    Collection,
    DocStoreError,
    DocumentStore,
)
from repro.storage.packing import pack_array, unpack_array


class JournalError(DocStoreError):
    """Raised for invalid journal operations."""


class JournalCorruption(JournalError):
    """The journal's on-store bytes fail verification.

    Raised when a record's checksum does not match its payload (torn or
    truncated write), when the sequence numbering has a gap, or when
    two records claim the same sequence number with different contents.
    """


class StaleEpochError(JournalError):
    """A checkpoint commit lost the epoch compare-and-swap.

    A newer session already committed this stream's next epoch; the
    caller's view of the store is stale and its staged writes are
    discarded rather than merged over the newer snapshot.
    """


JOURNAL_PREFIX = "journal:"
STATE_PREFIX = "ingest-state:"
CHECKPOINT_COLLECTION = "checkpoints"

#: the accumulated per-row columns a chunk record carries, with their
#: exact dtypes -- the digest hashes raw array bytes, so serialization
#: round-trips bit-exactly (JSON floats round-trip via repr)
CHUNK_COLUMNS = (
    ("track_id", np.int64),
    ("class_id", np.int64),
    ("time_s", np.float64),
    ("frame_idx", np.int64),
    ("difficulty", np.float64),
    ("appearance_seed", np.int64),
    ("obs_in_track", np.int64),
)

#: the per-row columns a checkpoint's row segment carries: the chunk
#: columns, the pixel-diff suppression mask and the cluster assignments
SEGMENT_COLUMNS = CHUNK_COLUMNS + (
    ("suppressed", np.uint8),
    ("assignments", np.int64),
)


# -- checksums ---------------------------------------------------------------

def payload_digest(payload: Dict[str, Any]) -> str:
    """Checksum of an arbitrary JSON-serializable payload (canonical)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()


def _chunk_hasher(seq: int, stream: str, fps, watermark_s, rows: int):
    """The running checksum of chunk record ``seq``, primed with its
    scalars; the columns follow in ``CHUNK_COLUMNS`` order."""
    watermark_s = None if watermark_s is None else float(watermark_s)
    header = (int(seq), stream, float(fps), watermark_s, int(rows))
    return hashlib.sha1(repr(header).encode("utf-8"))


def chunk_digest(seq: int, payload: Dict[str, Any]) -> str:
    """Checksum of a chunk record: its scalars, then every column's raw
    little-endian bytes -- no canonical-JSON round trip of the rows.

    A packed column and the list form older stores hold hash the same
    bytes, so a stored checksum verifies in either; a column that does
    not read as ``rows`` whole items raises :class:`JournalCorruption`.
    The write path feeds the same digest while packing
    (:func:`chunk_to_payload`).
    """
    return _read_record(seq, "chunk", payload)[0]


def _read_record(seq: int, kind: str, payload: Dict[str, Any]):
    """A record's checksum and, for a chunk record, the observation
    chunk its columns decode to while they are hashed (None for other
    kinds) -- the one place a stored chunk is read."""
    from repro.video.synthesis import ObservationTable

    if kind != "chunk":
        return payload_digest({"seq": int(seq), "kind": kind, "payload": payload}), None
    rows, stored = int(payload["rows"]), payload.get("columns", {})
    digest = _chunk_hasher(seq, payload["stream"], payload["fps"],
                           payload.get("watermark_s"), rows)
    where = "chunk record seq=%d" % seq
    columns = {
        name: _read_column(stored, name, dtype, rows, digest, where)
        for name, dtype in CHUNK_COLUMNS
    }
    duration = float(columns["time_s"].max()) if rows else 0.0
    if payload.get("watermark_s") is not None:
        duration = max(duration, float(payload["watermark_s"]))
    chunk = ObservationTable(payload["stream"], float(payload["fps"]), duration, **columns)
    return digest.hexdigest(), chunk


# -- row segments ----------------------------------------------------------------

def _segment_hasher(start: int, rows: int):
    """The running checksum of a row segment, primed with its range."""
    return hashlib.sha1(repr((int(start), int(rows))).encode("utf-8"))


def _read_column(columns, name, dtype, rows, digest, where) -> np.ndarray:
    """Stored column ``name`` (packed, or an older store's list), its
    bytes fed to ``digest``; a column that is not ``rows`` whole items
    raises :class:`JournalCorruption` naming ``where``."""
    try:
        values = unpack_array(columns.get(name, ""), dtype, digest)
    except ValueError as exc:
        raise JournalCorruption("%s column %r is torn: %s" % (where, name, exc))
    if values.shape != (rows,):
        raise JournalCorruption("%s column %r is truncated (%d of %d rows)"
                                % (where, name, values.size, rows))
    return values


# -- chunk (de)serialization -------------------------------------------------

def chunk_to_payload(chunk, watermark_s: Optional[float], digest=None) -> Dict[str, Any]:
    """Serialize one observation chunk into a journal-record payload.

    Each ``CHUNK_COLUMNS`` column is one packed ``str``
    (:func:`pack_array`), the encoding row segments use: ~76 B/row
    resident where Python lists of the same rows held ~168.  ``digest``,
    a record's running checksum primed with its scalars, is fed each
    column's raw bytes while packing (:meth:`IngestJournal.append_chunk`).
    """
    return {
        "stream": chunk.stream,
        "fps": float(chunk.fps),
        "watermark_s": None if watermark_s is None else float(watermark_s),
        "rows": len(chunk),
        "columns": {
            name: pack_array(getattr(chunk, name), dtype, digest)
            for name, dtype in CHUNK_COLUMNS
        },
    }


# -- journal -----------------------------------------------------------------

@dataclass(frozen=True)
class JournalRecord:
    """One verified journal record."""

    seq: int
    kind: str
    payload: Dict[str, Any]
    #: a chunk record's observation chunk, decoded while verifying;
    #: None for other kinds
    chunk: Optional[Any] = None


class IngestJournal:
    """Append-only, checksummed journal of one stream's ingest chunks.

    Records live in collection ``journal:<stream>`` of a document
    store.  :meth:`append` is a single document insert (atomic in the
    store's fault model); :meth:`records` returns the verified,
    deduplicated suffix past a given sequence number and raises
    :class:`JournalCorruption` on checksum mismatches or sequence gaps.
    """

    def __init__(
        self,
        store: DocumentStore,
        stream: str,
        metrics: Optional[Any] = None,
    ):
        self.store = store
        self.stream = stream
        #: optional ``repro.obs.metrics.MetricsRegistry`` recording an
        #: append-latency histogram (``journal.append_s``); None keeps
        #: the journal dependency-free for tests and bare callers
        self.metrics = metrics
        self.collection_name = JOURNAL_PREFIX + stream
        #: the next sequence number this writer will assign.  Numbering
        #: must never restart within a lineage: post-checkpoint
        #: compaction can leave the journal *empty*, so a writer
        #: attached at recovery continues from the committed marker's
        #: sequence as well as from any surviving records -- otherwise a
        #: recovered session would journal below the committed cursor
        #: and a second recovery would silently filter its chunks out.
        committed = committed_checkpoint(store, stream)
        committed_seq = committed["journal_seq"] if committed else -1
        self._next_seq = max(self.last_seq(), committed_seq) + 1
        self.appends = 0

    @property
    def collection(self) -> Collection:
        return self.store.collection(self.collection_name)

    # -- writes --------------------------------------------------------------
    def append(self, kind: str, payload: Dict[str, Any], checksum=None) -> int:
        """Append one record; returns its sequence number.

        The record is checksummed over (seq, kind, payload), so any
        later truncation or mutation of the stored document is
        detectable.  The insert either lands whole or not at all; a
        crash mid-append therefore loses at most the unacknowledged
        record, never a prefix.  ``checksum``: the record's, when the
        caller computed it already (:meth:`append_chunk`).
        """
        started = time.perf_counter() if self.metrics is not None else 0.0
        seq = self._next_seq
        doc = {
            "seq": seq,
            "kind": kind,
            "payload": payload,
            "checksum": checksum or _read_record(seq, kind, payload)[0],
        }
        self.collection.insert_one(doc)
        self._next_seq = seq + 1
        self.appends += 1
        if self.metrics is not None:
            self.metrics.observe(
                "journal.append_s", time.perf_counter() - started
            )
        return seq

    def append_chunk(self, chunk, watermark_s: Optional[float] = None) -> int:
        """Journal one observation chunk (the WAL step of a push).

        Each column is packed and hashed in one pass."""
        digest = _chunk_hasher(
            self._next_seq, chunk.stream, chunk.fps, watermark_s, len(chunk)
        )
        payload = chunk_to_payload(chunk, watermark_s, digest)
        return self.append("chunk", payload, digest.hexdigest())

    def truncate_through(self, seq: int) -> int:
        """Drop records with sequence <= ``seq`` (post-checkpoint
        compaction); returns how many were removed."""
        return self.collection.delete_many({"seq": {"$lte": int(seq)}})

    # -- reads ---------------------------------------------------------------
    def last_seq(self) -> int:
        """Highest stored sequence number, or -1 for an empty journal."""
        seqs = [doc["seq"] for doc in self.collection.find()]
        return max(seqs) if seqs else -1

    def records(self, after: int = -1) -> List[JournalRecord]:
        """Verified records with seq > ``after``, in sequence order.

        Verification per record: the stored checksum must match a
        recomputation over the stored payload.  Across records: exact
        duplicates (same seq, same checksum -- an at-least-once retry
        that landed twice) collapse to one; conflicting duplicates and
        sequence gaps raise :class:`JournalCorruption`.  A chunk record
        carries the chunk its verification decoded, so a replay reads
        each column once.
        """
        by_seq: Dict[int, Dict] = {}
        chunks: Dict[int, Any] = {}
        for doc in self.collection.find():
            seq = int(doc["seq"])
            if seq <= after:
                continue
            expected = doc.get("checksum")
            actual, chunk = _read_record(seq, doc.get("kind", ""), doc.get("payload", {}))
            if expected != actual:
                raise JournalCorruption(
                    "journal %s: record seq=%d fails its checksum "
                    "(torn or truncated write)" % (self.collection_name, seq)
                )
            prior = by_seq.get(seq)
            if prior is not None:
                if prior["checksum"] != expected:
                    raise JournalCorruption(
                        "journal %s: two conflicting records claim seq=%d"
                        % (self.collection_name, seq)
                    )
                continue  # duplicated replay of the same append: idempotent
            by_seq[seq], chunks[seq] = doc, chunk
        ordered = sorted(by_seq)
        for a, b in zip(ordered, ordered[1:]):
            if b != a + 1:
                raise JournalCorruption(
                    "journal %s: sequence gap between %d and %d "
                    "(lost or truncated records)" % (self.collection_name, a, b)
                )
        return [
            JournalRecord(s, by_seq[s]["kind"], by_seq[s]["payload"], chunks[s])
            for s in ordered
        ]


def backing_store(store) -> DocumentStore:
    """The real store behind a (possibly wrapped) store handle.

    Fault-injection wrappers (``FaultyStore``) expose their wrapped
    store as ``.inner``; identity checks between store handles must
    compare the backing stores, not the wrappers.
    """
    return getattr(store, "inner", store)


def reset_stream(store: DocumentStore, stream: str) -> None:
    """Destroy a stream's durable state (journal, checkpoints) and any
    index export or older checkpoint's index documents beside it.

    A fresh ingest session under an existing stream name starts a new
    lineage; mixing its journal with a predecessor's records would be
    corruption by construction, so the caller must wipe (or recover)
    explicitly -- nothing is deleted implicitly.  The ``clusters:``,
    ``index-meta`` and ``stream-meta`` documents go too: a store written
    by an older checkpoint, or a ``save_indexes`` export in the same
    store, may hold them, and a stale ``stream-meta`` document could
    pair self-consistently with a later export and send
    ``load_indexes`` to a wrong-but-checksum-valid table.
    """
    store.drop(JOURNAL_PREFIX + stream)
    store.drop(STATE_PREFIX + stream)
    store.drop("clusters:%s" % stream)
    store.collection(CHECKPOINT_COLLECTION).delete_many({"stream": stream})
    store.collection("index-meta").delete_many({"stream": stream})
    store.collection("stream-meta").delete_many({"stream": stream})


def _checkpoint_markers(
    store: DocumentStore, query: Optional[Dict] = None
) -> List[Dict]:
    """The marker documents matching ``query``, looked up without
    creating the collection: reads must not write (``store.collection``
    gets *or creates*, which would diverge a worker's store from its
    mirror on a command that ships no delta).  Absent means no markers."""
    if CHECKPOINT_COLLECTION not in store.collection_names():
        return []
    return store.collection(CHECKPOINT_COLLECTION).find(query)


def journaled_streams(store: DocumentStore) -> List[str]:
    """Streams with recoverable durable state in ``store``: a journal or
    a committed checkpoint.  Fence tombstones left behind by a stream
    migration (:func:`fence_stream`) are not recoverable state -- the
    stream's durable home is its new shard's store -- so they are
    excluded."""
    names = {
        name[len(JOURNAL_PREFIX):]
        for name in store.collection_names()
        if name.startswith(JOURNAL_PREFIX)
    }
    fenced = set()
    for doc in _checkpoint_markers(store):
        if doc.get("fenced"):
            fenced.add(doc["stream"])
        else:
            names.add(doc["stream"])
    # a fence tombstone overrides a journal collection under the same
    # name: a zombie session appending after the fence recreates the
    # collection, but those records belong to the dead lineage
    return sorted(names - fenced)


#: the collections holding one stream's durable state wholesale
_STREAM_COLLECTION_PREFIXES = (JOURNAL_PREFIX, STATE_PREFIX)


def copy_stream_state(
    source: DocumentStore, target: DocumentStore, stream: str
) -> List[str]:
    """Copy one stream's complete durable state between stores.

    Clones the stream's wholesale collections (journal, ingest state)
    into ``target`` and upserts its checkpoint marker, replacing
    whatever ``target`` previously held for the stream.  The copy is
    everything :meth:`StreamIngestor.recover` needs: committed
    checkpoint plus journal suffix; the index is derived from it.
    Returns the collection names that were written.

    The source is read-only here -- fencing it against zombie writers
    is a separate step (:func:`fence_stream`); stream migration
    (``repro.fabric.migration``) sequences the two.
    """
    touched: List[str] = []
    for prefix in _STREAM_COLLECTION_PREFIXES:
        name = prefix + stream
        if source.copy_collection_to(name, target):
            touched.append(name)
    match = {"stream": stream}
    markers = target.collection(CHECKPOINT_COLLECTION)
    doc = source.collection(CHECKPOINT_COLLECTION).find_one(match)
    if doc is None:
        # nothing to copy: what the target held for the stream (a
        # fence tombstone from an earlier move away) still goes
        markers.delete_many(match)
    else:
        markers.upsert(match, {k: v for k, v in doc.items() if k != "_id"})
        touched.append(CHECKPOINT_COLLECTION)
    return touched


def fence_stream(
    store: DocumentStore, stream: str, migrated_to: Optional[str] = None
) -> int:
    """Fence a stream's lineage in ``store`` after migrating it away.

    Replaces the stream's checkpoint marker with a *fence tombstone*
    one epoch past the committed one and drops the now-stale journal
    and ingest-state collections (:func:`reset_stream`).  Any
    surviving pre-migration session still holds the old committed
    epoch, so its next durable checkpoint loses the epoch
    compare-and-swap and raises :class:`StaleEpochError` instead of
    resurrecting the stream on its old shard.  Returns the fence epoch.
    """
    marker = committed_checkpoint(store, stream)
    epoch = (marker["epoch"] if marker else 0) + 1
    journal_seq = marker["journal_seq"] if marker else -1
    reset_stream(store, stream)
    store.collection(CHECKPOINT_COLLECTION).insert_one(
        {
            "stream": stream,
            "epoch": epoch,
            "journal_seq": journal_seq,
            "fenced": True,
            "migrated_to": migrated_to,
        }
    )
    return epoch


def fenced_streams(store: DocumentStore) -> List[str]:
    """Streams whose marker in ``store`` is a migration fence tombstone."""
    return sorted(
        doc["stream"] for doc in _checkpoint_markers(store) if doc.get("fenced")
    )


# -- checkpoint markers ------------------------------------------------------

def committed_checkpoint(store: DocumentStore, stream: str) -> Optional[Dict]:
    """The stream's committed checkpoint marker, or None.

    The marker is the atom of the commit protocol: it lands in the same
    staged swap as the checkpoint's collections, so its ``epoch`` and
    ``journal_seq`` always describe a complete, consistent snapshot.
    """
    markers = _checkpoint_markers(store, {"stream": stream})
    return markers[0] if markers else None


class CheckpointWriter:
    """One stream's atomic checkpoint: staged writes, epoch-CAS commit.

    :meth:`write_state` stages the ingest-state head and one row
    segment; :meth:`commit` then validates the epoch compare-and-swap
    and swaps every staged collection -- plus the checkpoint marker --
    into place as one indivisible operation.

    A writer whose ``expected_epoch`` no longer matches the store's
    committed marker (another session checkpointed in between) raises
    :class:`StaleEpochError` at commit and discards its staging, so a
    crashed-and-recovered stream can never be corrupted by a zombie
    writer from before the crash.
    """

    def __init__(
        self,
        store: CheckpointStore,
        stream: str,
        expected_epoch: int,
        journal_seq: int,
    ):
        self.store = store
        self.stream = stream
        self.expected_epoch = int(expected_epoch)
        self.epoch = int(expected_epoch) + 1
        self.journal_seq = int(journal_seq)
        self._staged: set = set()
        self._done = False

    def _collection(self, name: str) -> Collection:
        """The staged clone of collection ``name``."""
        if name not in self._staged:
            # a crashed earlier checkpoint may have left a stale staged
            # clone behind; this writer must start from committed state
            self.store.discard_staged([name])
            self._staged.add(name)
        return self.store.stage(name)

    # -- protocol ------------------------------------------------------------
    def write_state(
        self, payload: Dict[str, Any], start: int, columns: Dict[str, np.ndarray]
    ) -> None:
        """Stage the stream's resumable ingest state.

        ``columns`` holds rows ``[start, ...)`` of every
        ``SEGMENT_COLUMNS`` column: the rows ingested since the last
        committed checkpoint.  They are staged as one write-once
        *segment* document, each column packed and checksummed once
        (:func:`pack_array`); the earlier segments ride the staged clone
        untouched.  ``payload`` -- descriptor, cursors, counters, the
        clusterer's bounded state; nothing per row -- then replaces the
        *head* document, the only one matching ``{"stream": stream}``.
        """
        states = self._collection(STATE_PREFIX + self.stream)
        rows = len(columns["track_id"])
        if rows:
            digest = _segment_hasher(start, rows)
            packed = {
                name: pack_array(columns[name], dtype, digest)
                for name, dtype in SEGMENT_COLUMNS
            }
            states.insert_one(
                {
                    "start": int(start),
                    "rows": rows,
                    "columns": packed,
                    "checksum": digest.hexdigest(),
                }
            )
        states.upsert(
            {"stream": self.stream},
            {
                "stream": self.stream,
                "epoch": self.epoch,
                "journal_seq": self.journal_seq,
                "payload": payload,
                "checksum": payload_digest(payload),
            },
        )

    def commit(self, extra: Optional[Dict[str, Any]] = None) -> int:
        """Atomically publish the checkpoint; returns the new epoch.

        The epoch CAS: the store's committed epoch for this stream must
        still equal ``expected_epoch``.  On success the marker document
        and every staged collection become visible together.
        """
        if self._done:
            raise JournalError("checkpoint writer already committed/aborted")
        committed = committed_checkpoint(self.store, self.stream)
        current = committed["epoch"] if committed else 0
        if current != self.expected_epoch:
            self.abort()
            raise StaleEpochError(
                "stream %r: checkpoint epoch %d expected committed epoch %d "
                "but the store is at %d (a newer session already "
                "checkpointed); discard this session and recover"
                % (self.stream, self.epoch, self.expected_epoch, current)
            )
        doc = {
            "stream": self.stream,
            "epoch": self.epoch,
            "journal_seq": self.journal_seq,
        }
        if extra:
            doc.update(extra)
        self._collection(CHECKPOINT_COLLECTION).upsert({"stream": self.stream}, doc)
        self.store.commit_staged(sorted(self._staged))
        self._done = True
        return self.epoch

    def abort(self) -> None:
        """Discard every staged write (the live store is untouched)."""
        self.store.discard_staged(sorted(self._staged))
        self._staged.clear()
        self._done = True


def load_ingest_state(store: DocumentStore, stream: str) -> Optional[Dict]:
    """The committed resumable-state *head* document for ``stream``,
    verified (its rows: :func:`load_state_rows`).

    Returns None when the stream has no committed durable checkpoint.
    Raises :class:`JournalCorruption` when the state document's
    checksum fails (truncated/mutated store) or when it disagrees with
    the committed marker's epoch -- either way the snapshot cannot be
    trusted and recovery must fall back to a full journal replay or
    fail loudly.
    """
    marker = committed_checkpoint(store, stream)
    if marker is None:
        return None
    if marker.get("fenced"):
        target = marker.get("migrated_to")
        raise StaleEpochError(
            "stream %r was migrated away from this store (fenced at epoch "
            "%d%s); recover it from its new shard's store, or wipe the "
            "fence with repro.storage.journal.reset_stream to start a "
            "fresh lineage here"
            % (stream, marker["epoch"], ", now on %r" % target if target else "")
        )
    doc = store.collection(STATE_PREFIX + stream).find_one({"stream": stream})
    if doc is None:
        raise JournalCorruption(
            "stream %r: committed checkpoint marker (epoch %d) but no "
            "ingest-state document -- the store is missing part of an "
            "atomic commit" % (stream, marker["epoch"])
        )
    if doc["epoch"] != marker["epoch"] or doc["journal_seq"] != marker["journal_seq"]:
        raise JournalCorruption(
            "stream %r: ingest-state document (epoch %d, seq %d) disagrees "
            "with the committed marker (epoch %d, seq %d)"
            % (
                stream,
                doc["epoch"],
                doc["journal_seq"],
                marker["epoch"],
                marker["journal_seq"],
            )
        )
    if payload_digest(doc["payload"]) != doc["checksum"]:
        raise JournalCorruption(
            "stream %r: ingest-state checksum mismatch (truncated or "
            "corrupted state payload)" % stream
        )
    return doc


def load_state_rows(
    store: DocumentStore, stream: str, payload: Dict[str, Any]
) -> Dict[str, np.ndarray]:
    """The accumulated rows under a verified head ``payload``: every
    ``SEGMENT_COLUMNS`` column over ``[0, payload["rows"])``.

    The segments must tile the range exactly, each with whole columns
    and a matching checksum; a torn, missing, overlapping or surplus
    segment raises :class:`JournalCorruption`.
    """
    total = int(payload["rows"])
    segments = sorted(
        (doc for doc in store.collection(STATE_PREFIX + stream).find() if "start" in doc),
        key=lambda doc: (doc["start"], doc["rows"]),
    )
    out = {name: np.empty(total, dtype=dtype) for name, dtype in SEGMENT_COLUMNS}
    cursor = 0
    for segment in segments:
        start, rows = int(segment["start"]), int(segment["rows"])
        if start != cursor or start + rows > total:
            raise JournalCorruption(
                "stream %r: row segment [%d, %d) does not continue the "
                "committed rows at %d of %d (missing or overlapping segment)"
                % (stream, start, start + rows, cursor, total)
            )
        digest = _segment_hasher(start, rows)
        where = "stream %r: row segment [%d, %d)" % (stream, start, start + rows)
        for name, dtype in SEGMENT_COLUMNS:
            out[name][start : start + rows] = _read_column(
                segment["columns"], name, dtype, rows, digest, where
            )
        if segment.get("checksum") != digest.hexdigest():
            raise JournalCorruption(
                "stream %r: row segment [%d, %d) fails its checksum"
                % (stream, start, start + rows)
            )
        cursor += rows
    if cursor != total:
        raise JournalCorruption(
            "stream %r: ingest-state head records %d rows but its segments "
            "hold %d" % (stream, total, cursor)
        )
    return out
