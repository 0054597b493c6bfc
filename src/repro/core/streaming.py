"""Continuous, queryable-while-ingesting stream sessions.

Focus targets *live* video (Sections 3, 6.3): ingest runs continuously
on every camera feed while queries arrive at any time.  This module
replaces the one-shot ``IngestPipeline.run(table)`` contract with a
stateful :class:`StreamIngestor`: observation chunks arrive through
:meth:`StreamIngestor.push`, the incremental clusterer carries its
centroids and per-track shortcuts across chunks, and the stream's top-K
index is updated in place -- so a query issued between two pushes sees
every observation up to the current watermark, with answers identical
to a one-shot ingest of the same window.

Per push the ingest-CNN work is (optionally) dispatched onto the shared
GPU cluster's work queues, making ingest and query traffic contend for
the same devices the way the paper's deployment does (Section 6.3).

Durability (``docs/DURABILITY.md``): an ingestor opened with a
write-ahead :class:`~repro.storage.journal.IngestJournal` journals every
chunk *before* applying it, checkpoints through the atomic epoch-tagged
protocol (the resumable ingest state -- a head plus one new row
segment -- and the marker, swapped in as one commit), and
:meth:`StreamIngestor.recover` rebuilds a session killed at *any* point
by restoring the last committed checkpoint, deriving the index from its
rows, and replaying the journal's suffix -- bit-identical to
uninterrupted ingest, in both index modes, because every ingest stage
is per-row deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cnn.features import FeatureExtractor
from repro.cnn.zoo import model_by_name
from repro.core.clustering import (
    ClusterSummary,
    IncrementalClusterer,
    SnapshotPlayback,
    extract_and_cluster_chunk,
)
from repro.core.config import FocusConfig
from repro.core.costmodel import CostCategory, GPULedger
from repro.core.helpers import Helper, fork_width
from repro.core.index import IndexReader, index_builder
from repro.core.ingest import IngestResult, simulate_pixel_diff
from repro.obs.events import emit
from repro.sched.cluster import DispatchReport, IngestDispatcher
from repro.storage.docstore import DocumentStore
from repro.storage.journal import (
    CheckpointWriter,
    IngestJournal,
    JournalError,
    backing_store,
    committed_checkpoint,
    load_ingest_state,
    load_state_rows,
)
from repro.video.synthesis import ObservationTable


def empty_observation_table(stream: str, fps: float) -> ObservationTable:
    """A zero-row observation table (the state of a just-opened stream)."""
    empty_i = np.zeros(0, dtype=np.int64)
    empty_f = np.zeros(0, dtype=np.float64)
    return ObservationTable(
        stream, fps, 0.0, empty_i, empty_i, empty_f, empty_i, empty_f,
        empty_i, empty_i,
    )


#: the per-row columns accumulated across pushes, in constructor order
_COLUMNS = (
    "track_id",
    "class_id",
    "time_s",
    "frame_idx",
    "difficulty",
    "appearance_seed",
    "obs_in_track",
)


class _GrowingColumns:
    """Amortized-doubling buffers for the accumulated table columns.

    Appending a chunk copies only that chunk's rows (amortized), and a
    table over the current rows is a set of O(1) views -- so a stream
    that grows forever never re-copies its history on push.  Views stay
    valid across later appends: rows before the watermark are never
    overwritten, and a reallocation leaves old views on the old buffer.
    """

    def __init__(self):
        self._buffers = None
        self._suppressed = np.zeros(0, dtype=bool)
        self.rows = 0

    def _reserve(self, extra: int) -> None:
        needed = self.rows + extra
        capacity = len(self._suppressed)
        if needed <= capacity:
            return
        capacity = max(1024, capacity)
        while capacity < needed:
            capacity *= 2
        for name, buf in self._buffers.items():
            grown = np.empty(capacity, dtype=buf.dtype)
            grown[: self.rows] = buf[: self.rows]
            self._buffers[name] = grown
        grown = np.zeros(capacity, dtype=bool)
        grown[: self.rows] = self._suppressed[: self.rows]
        self._suppressed = grown

    def append(self, chunk: ObservationTable, suppressed: np.ndarray) -> None:
        if self._buffers is None:
            self._buffers = {
                name: np.empty(0, dtype=getattr(chunk, name).dtype)
                for name in _COLUMNS
            }
        self._reserve(len(chunk))
        stop = self.rows + len(chunk)
        for name, buf in self._buffers.items():
            buf[self.rows : stop] = getattr(chunk, name)
        self._suppressed[self.rows : stop] = suppressed
        self.rows = stop

    def table(self, stream: str, fps: float, duration_s: float) -> ObservationTable:
        if self._buffers is None:
            return empty_observation_table(stream, fps)
        return ObservationTable(
            stream,
            fps,
            duration_s,
            *(self._buffers[name][: self.rows] for name in _COLUMNS)
        )

    def suppressed(self) -> np.ndarray:
        return self._suppressed[: self.rows]

    def restore(self, columns: Dict[str, np.ndarray], suppressed: np.ndarray) -> None:
        """Reload accumulated rows from a checkpoint's state payload."""
        rows = len(suppressed)
        if not rows:
            return
        self._buffers = {
            name: np.empty(0, dtype=columns[name].dtype) for name in _COLUMNS
        }
        self._reserve(rows)
        for name, buf in self._buffers.items():
            buf[:rows] = columns[name]
        self._suppressed[:rows] = suppressed
        self.rows = rows


@dataclass(frozen=True)
class ChunkReport:
    """What one ``push`` did to the stream's state."""

    chunk_rows: int
    total_rows: int
    watermark_s: float
    suppressed: int
    cnn_inferences: int
    gpu_seconds: float
    new_clusters: List[int]
    grown_clusters: List[int]
    #: placement of this chunk's CNN batches on the shared GPU cluster
    #: (None when the ingestor runs without a dispatcher)
    dispatch: Optional[DispatchReport]

    @property
    def suppression_ratio(self) -> float:
        return self.suppressed / self.chunk_rows if self.chunk_rows else 0.0


@dataclass(frozen=True)
class ClusterStep:
    """The cluster half of one push, as much of it as the apply half
    reads: which rows pixel differencing suppressed, every row's
    cluster id, and the clusterer's cluster count after the chunk."""

    suppressed: np.ndarray
    assignments: np.ndarray
    num_clusters: int


#: one chunk's outcome in a round: its report, or what its push raised
Outcome = Tuple[Optional[ChunkReport], Optional[Exception]]


class StreamIngestor:
    """Stateful ingest for one live stream, queryable between pushes.

    The streaming counterpart of :class:`~repro.core.ingest.IngestPipeline`:
    the same IT1-IT4 stages run per chunk, but clustering state, the
    accumulated observation table, and the top-K index persist across
    :meth:`push` calls.  Because pixel differencing, feature extraction,
    and the clusterer's row walk are all per-row deterministic, the
    state after pushing chunks ``c1..cn`` is identical to one-shot
    ingest of their concatenation -- which is what makes mid-ingest
    query answers trustworthy.

    Per-push cost: table accumulation copies only the chunk (amortized
    doubling buffers).  Both index modes absorb the rows past their last
    snapshot the same way (:meth:`TopKIndex.refresh`,
    :meth:`LazyTopKIndex.refresh`), grouping only the chunk's rows, but
    that grouping spans every cluster id between the lowest and highest
    one the chunk touches, and each grown cluster's whole member array
    is re-concatenated -- so a push still costs more per row as the
    stream's history grows.  ``materialized`` mode draws top-K for the
    chunk's new centroids only; ``lazy`` mode draws none at ingest, but
    re-selects its centroid table (one row per cluster) whenever new
    centroids appeared.
    """

    def __init__(
        self,
        config: FocusConfig,
        stream: str,
        fps: float = 30.0,
        ledger: Optional[GPULedger] = None,
        max_live_clusters: int = 512,
        index_mode: str = "lazy",
        dispatcher: Optional[IngestDispatcher] = None,
        journal: Optional[IngestJournal] = None,
    ):
        self._build_index = index_builder(index_mode)
        self.config = config
        self.stream = stream
        self.fps = float(fps)
        self.ledger = ledger or GPULedger()
        self.index_mode = index_mode
        self.dispatcher = dispatcher
        self._clusterer = IncrementalClusterer(
            threshold=config.cluster_threshold,
            dim=config.model.feature_dim,
            max_live_clusters=max_live_clusters,
        )
        self._extractor = config.model.feature_extractor()
        self._columns = _GrowingColumns()
        self._table = empty_observation_table(stream, fps)
        self._snapshot = self._clusterer.snapshot()
        self._watermark = 0.0
        self._last_time = float("-inf")
        self.cnn_inferences = 0
        self.ingest_gpu_seconds = 0.0
        self.chunks_pushed = 0
        #: committed durable-checkpoint epoch (0: none); advances only
        #: when a checkpoint's atomic commit succeeds
        self.committed_epoch = 0
        #: rows the committed checkpoint's segments already hold; like
        #: the epoch, it moves only when a commit succeeds
        self._persisted_rows = 0
        self._last_journal_seq = -1
        self.journal = None
        self._index = self._build_index(
            self._table, config.model, config.k, self._snapshot
        )
        if journal is not None:
            self._attach_fresh_journal(journal)

    def _attach_fresh_journal(self, journal: IngestJournal) -> None:
        """Start write-ahead journaling for a brand-new session.

        A fresh session restarts cluster ids at 0, so its journal must
        be a new lineage: mixing it with a predecessor's records or a
        committed checkpoint would be corruption by construction.  Use
        :meth:`recover` to resume an existing lineage, or
        :func:`repro.storage.journal.reset_stream` to wipe it.
        """
        if journal.stream != self.stream:
            raise ValueError(
                "journal belongs to stream %r, ingestor is %r"
                % (journal.stream, self.stream)
            )
        if journal.last_seq() >= 0 or committed_checkpoint(journal.store, self.stream):
            raise JournalError(
                "stream %r already has durable state in this store; recover "
                "it with StreamIngestor.recover / FocusSystem.recover, or "
                "wipe it with repro.storage.journal.reset_stream" % self.stream
            )
        self._last_journal_seq = journal.append("open", self._descriptor())
        self.journal = journal

    def _descriptor(self) -> Dict:
        """The session parameters recovery rebuilds a config from."""
        config = self.config
        return {
            "stream": self.stream,
            "fps": self.fps,
            "index_mode": self.index_mode,
            "max_live_clusters": int(self._clusterer.max_live),
            "model": config.model.name,
            "k": int(config.k),
            "cluster_threshold": float(config.cluster_threshold),
            "pixel_diff": bool(config.pixel_diff),
        }

    # -- current state -----------------------------------------------------
    @property
    def table(self) -> ObservationTable:
        """Every observation ingested so far, in stream order."""
        return self._table

    @property
    def index(self) -> IndexReader:
        """The live index; the same object across pushes (updated in place)."""
        return self._index

    @property
    def clusters(self) -> ClusterSummary:
        return self._snapshot

    @property
    def watermark_s(self) -> float:
        """The stream time up to which queries are answerable."""
        return self._watermark

    @property
    def num_rows(self) -> int:
        return len(self._table)

    @property
    def result(self) -> IngestResult:
        """The current watermark's state as a one-shot-compatible result."""
        return IngestResult(
            table=self._table,
            config=self.config,
            clusters=self._snapshot,
            index=self._index,
            suppressed=self._columns.suppressed(),
            cnn_inferences=self.cnn_inferences,
            ingest_gpu_seconds=self.ingest_gpu_seconds,
        )

    # -- ingest ------------------------------------------------------------
    def _validate_chunk(
        self,
        chunk: ObservationTable,
        watermark_s: Optional[float],
        last_time: Optional[float] = None,
    ) -> None:
        """Refuse a malformed chunk or watermark -- before the WAL write
        on a push, and again on replay.  ``last_time`` stands in for the
        last ingested observation time when a round validates ahead."""
        if last_time is None:
            last_time = self._last_time
        if chunk.stream != self.stream:
            raise ValueError(
                "chunk belongs to stream %r, ingestor is %r"
                % (chunk.stream, self.stream)
            )
        if float(chunk.fps) != self.fps:
            raise ValueError(
                "chunk fps %.3f differs from the stream's %.3f"
                % (chunk.fps, self.fps)
            )
        if watermark_s is not None and not (
            math.isfinite(watermark_s) and watermark_s >= 0.0
        ):
            # a journaled inf would pin the stream's watermark and
            # duration at inf through every replay; a negative one is
            # silently swallowed by the max() in _apply_chunk
            raise ValueError(
                "watermark_s must be a finite, non-negative stream time, "
                "got %r" % (watermark_s,)
            )
        if not len(chunk):
            return
        first, last = float(chunk.time_s.min()), float(chunk.time_s.max())
        if not (math.isfinite(first) and math.isfinite(last)) or first < 0.0:
            # NaN compares False against everything, so the order check
            # below would wave it through to the WAL -- as it does rows
            # before time zero on a stream's first chunk
            raise ValueError(
                "chunk time_s must be finite, non-negative stream times, "
                "got a range of %r..%r" % (first, last)
            )
        if first < last_time:
            raise ValueError(
                "chunks must arrive in stream order: chunk starts at "
                "%.3fs but %.3fs was already ingested" % (first, last_time)
            )

    def push(
        self, chunk: ObservationTable, watermark_s: Optional[float] = None
    ) -> ChunkReport:
        """Ingest one chunk of observations; the index is queryable after.

        Args:
            chunk: observations in stream order, starting no earlier
                than the last pushed observation.
            watermark_s: stream time the chunk covers up to; defaults to
                the chunk's last observation time, and can only extend
                past it (an observation-free interval advances the
                watermark explicitly; ingested video is never unseen).

        With a journal attached the chunk is journaled *first* (the
        write-ahead step): once ``push`` returns, the chunk's rows
        survive any crash -- :meth:`recover` replays them.  The append
        is a single atomic record, so a crash mid-push loses at most
        the unacknowledged chunk, which the producer re-pushes.
        """
        self._validate_chunk(chunk, watermark_s)
        self._journal_chunk(chunk, watermark_s)
        return self._ingest_chunk(chunk, watermark_s, dispatch=True)

    def _journal_chunk(
        self, chunk: ObservationTable, watermark_s: Optional[float]
    ) -> None:
        """The write-ahead step of a push (none without a journal)."""
        if self.journal is not None:
            self._last_journal_seq = self.journal.append_chunk(chunk, watermark_s)

    def _ingest_chunk(
        self,
        chunk: ObservationTable,
        watermark_s: Optional[float],
        dispatch: bool,
    ) -> ChunkReport:
        """Both halves of one (already journaled) chunk, here and now.

        Shared by the live path (``push``) and journal replay during
        :meth:`recover`; replay skips GPU-cluster dispatch -- that work
        happened before the crash -- but keeps cost accounting so the
        recovered counters match an uninterrupted session.
        """
        step = self._cluster_chunk(chunk)
        return self._apply_chunk(
            chunk, watermark_s, step, self._clusterer.snapshot(), dispatch
        )

    def _cluster_chunk(self, chunk: ObservationTable) -> ClusterStep:
        """The cluster half of a push: pixel differencing, feature
        extraction and clustering.  It advances the clusterer and
        touches nothing else, so it may run ahead of the apply half --
        in a forked helper, too (:func:`push_round`)."""
        # IT1 + pixel differencing (per-row deterministic, so chunking
        # cannot change which observations are suppressed)
        if self.config.pixel_diff:
            suppressed = simulate_pixel_diff(chunk)
        else:
            suppressed = np.zeros(len(chunk), dtype=bool)

        # IT2: feature extraction + incremental clustering; the
        # clusterer keeps its centroids and track shortcuts across
        # calls, and suppressed rows skip feature synthesis entirely
        assignments = extract_and_cluster_chunk(
            self._clusterer, self._extractor, chunk, suppressed
        )
        return ClusterStep(suppressed, assignments, self._clusterer.num_clusters)

    def _cluster_ahead(
        self, chunks: Sequence[Tuple[ObservationTable, Optional[float]]]
    ) -> List[Optional[ClusterStep]]:
        """The cluster half of pushing ``(chunk, watermark_s)`` pairs in
        order, run before any of their apply halves: one step per chunk,
        None for a chunk ``push`` would refuse.  The list stops short at
        a chunk whose cluster half raises (``push`` reproduces that)."""
        last_time = self._last_time
        steps: List[Optional[ClusterStep]] = []
        for chunk, watermark_s in chunks:
            try:
                self._validate_chunk(chunk, watermark_s, last_time)
            except Exception:
                steps.append(None)
                continue
            try:
                steps.append(self._cluster_chunk(chunk))
            except Exception:
                break
            if len(chunk):
                last_time = max(last_time, float(chunk.time_s.max()))
        return steps

    def _apply_chunk(
        self,
        chunk: ObservationTable,
        watermark_s: Optional[float],
        step: ClusterStep,
        snapshot: ClusterSummary,
        dispatch: bool,
    ) -> ChunkReport:
        """The apply half of a push: table columns, index delta and
        accounting, from the cluster half's ``step`` and the clusterer's
        ``snapshot`` right after it."""
        config = self.config
        suppressed = step.suppressed

        # accumulate the table (stream order is preserved, so row ids,
        # cluster ids, and index member rows match a one-shot ingest;
        # only the chunk's rows are copied -- no history rebuild)
        self._columns.append(chunk, suppressed)
        if len(chunk):
            self._last_time = max(self._last_time, float(chunk.time_s.max()))
        # the watermark never trails an ingested observation: an explicit
        # watermark_s can only extend past the chunk's last observation
        # (an observation-free tail), not declare ingested video unseen
        watermark = self._watermark
        if len(chunk):
            watermark = max(watermark, float(chunk.time_s.max()))
        if watermark_s is not None:
            watermark = max(watermark, float(watermark_s))
        self._table = self._columns.table(self.stream, self.fps, watermark)
        self._watermark = watermark

        # IT3-IT4: the index absorbs the chunk's rows
        new_ids, grown_ids = self._index.refresh(self._table, snapshot)
        self._snapshot = snapshot

        # cost accounting + (optional) contention with query traffic on
        # the shared GPU cluster
        inferences = int(len(chunk) - suppressed.sum())
        gpu_seconds = 0.0
        if len(chunk):
            entry = self.ledger.record(
                CostCategory.INGEST_CNN,
                config.model,
                inferences,
                note="stream=%s chunk=%d" % (self.stream, self.chunks_pushed),
            )
            gpu_seconds = entry.gpu_seconds
        dispatch_report = None
        if dispatch and self.dispatcher is not None and inferences:
            dispatch_report = self.dispatcher.dispatch(
                config.model, inferences, stream=self.stream
            )
        self.cnn_inferences += inferences
        self.ingest_gpu_seconds += gpu_seconds
        self.chunks_pushed += 1

        return ChunkReport(
            chunk_rows=len(chunk),
            total_rows=len(self._table),
            watermark_s=self._watermark,
            suppressed=int(suppressed.sum()),
            cnn_inferences=inferences,
            gpu_seconds=gpu_seconds,
            new_clusters=new_ids,
            grown_clusters=grown_ids,
            dispatch=dispatch_report,
        )

    # -- persistence -------------------------------------------------------
    def checkpoint(self, store) -> int:
        """Persist the session's progress to ``store``, durably and
        atomically; returns the new epoch.

        The resumable ingest state (clusterer + the rows past the last
        committed checkpoint) and the commit marker land in staged
        collections and become visible in one epoch-tagged swap; the
        index is not stored, :meth:`recover` derives it from the rows.
        A crash at any earlier point leaves the previous committed
        checkpoint intact; a zombie session whose epoch lost the
        compare-and-swap gets
        :class:`~repro.storage.journal.StaleEpochError`.  On success the
        journal is compacted up to the committed sequence number.  A
        session without a journal has nothing to resume from and is
        refused; export its index with ``FocusSystem.save_indexes``
        instead.

        Compaction runs *after* the commit: a failure inside it leaves
        the new epoch fully committed (``committed_epoch`` already
        advanced) with some stale journal records behind -- harmless,
        since replay filters records at or below the committed cursor.
        Callers observing an exception should consult
        ``committed_epoch`` (or the store's marker) before concluding
        the round failed; ``QueryService.checkpoint_streams`` does.
        """
        if self.journal is None:
            raise JournalError(
                "stream %r has no write-ahead journal, so there is nothing "
                "a checkpoint could resume; open it with wal_store=, or "
                "export its index with FocusSystem.save_indexes" % self.stream
            )
        if backing_store(store) is not backing_store(self.journal.store):
            # a durable checkpoint compacts the WAL after committing; a
            # checkpoint landing in a *different* store would destroy
            # journal records whose covering checkpoint lives elsewhere
            # -- acknowledged chunks would become unrecoverable
            raise JournalError(
                "stream %r: durable checkpoint target must be the journal's "
                "store (checkpoint commit and WAL compaction are one "
                "protocol); to snapshot into a separate store use "
                "FocusSystem.save_indexes" % self.stream
            )
        writer = CheckpointWriter(
            store,
            self.stream,
            expected_epoch=self.committed_epoch,
            journal_seq=self._last_journal_seq,
        )
        # no abort on failure: a crash leaves staged garbage exactly as
        # a real machine would; recovery discards it.  The live
        # collections are untouched until writer.commit().  Only the
        # rows past the last *committed* checkpoint are encoded; the
        # cursor moves at commit, so a failed attempt's retry writes the
        # same range.
        start = self._persisted_rows
        writer.write_state(self._state_payload(), start, self._rows_from(start))
        epoch = writer.commit(
            extra={"rows": self.num_rows, "watermark_s": float(self._watermark)}
        )
        self.committed_epoch = epoch
        self._persisted_rows = self.num_rows
        self.journal.truncate_through(writer.journal_seq)
        return epoch

    def _state_payload(self) -> Dict:
        """The head of the resumable state: session descriptor,
        watermark cursors, counters and the clusterer's live slots.
        Nothing here grows with rows, clusters or tracks: cluster history
        derives from the checkpoint's row segments."""
        return {
            "descriptor": self._descriptor(),
            "rows": int(self._columns.rows),
            "watermark_s": float(self._watermark),
            "last_time_s": (
                None if self._last_time == float("-inf") else float(self._last_time)
            ),
            "cnn_inferences": int(self.cnn_inferences),
            "ingest_gpu_seconds": float(self.ingest_gpu_seconds),
            "chunks_pushed": int(self.chunks_pushed),
            "clusterer": self._clusterer.bounded_state(),
        }

    def _rows_from(self, start: int) -> Dict[str, np.ndarray]:
        """Views of every per-row column from row ``start`` on (a
        checkpoint's ``SEGMENT_COLUMNS``); nothing is copied here."""
        columns = {name: getattr(self._table, name)[start:] for name in _COLUMNS}
        columns["suppressed"] = self._columns.suppressed()[start:]
        columns["assignments"] = self._snapshot.assignments[start:]
        return columns

    @classmethod
    def recover(
        cls,
        store: DocumentStore,
        stream: str,
        config: Optional[FocusConfig] = None,
        ledger: Optional[GPULedger] = None,
        dispatcher: Optional[IngestDispatcher] = None,
    ) -> "StreamIngestor":
        """Resume a journaled session killed at any point.

        Restores the last committed checkpoint's ingest state (or a
        blank session when none ever committed), derives the index from
        its rows, then replays every journal record past the committed
        sequence number through the normal ingest stages.  Ingest is
        per-row deterministic and the checkpoint state is bit-exact, so
        the recovered session -- table, clustering, index, watermark,
        counters -- is bit-identical to one that never crashed, in both
        index modes.
        The journal's checksums and sequence numbers are verified on
        the way; torn, truncated, or gapped journals raise
        :class:`~repro.storage.journal.JournalCorruption` rather than
        resurrecting a wrong state.

        Args:
            config: the session's ingest configuration.  When omitted
                it is rebuilt from the journaled descriptor (zoo models
                only); a specialized model must be passed explicitly.
        """
        store.discard_staged()  # a crashed checkpoint's staging is garbage
        journal = IngestJournal(store, stream)
        state_doc = load_ingest_state(store, stream)
        replay_after = -1 if state_doc is None else int(state_doc["journal_seq"])
        # every record is verified before any replays
        records = journal.records(after=replay_after)
        if state_doc is not None:
            descriptor = state_doc["payload"]["descriptor"]
        else:
            descriptor = next((r.payload for r in records if r.kind == "open"), None)
            if descriptor is None:
                raise KeyError(
                    "stream %r has no durable state (no committed checkpoint "
                    "and no journaled session) in this store" % stream
                )
        if config is None:
            config = FocusConfig(
                model=model_by_name(descriptor["model"]),
                k=descriptor["k"],
                cluster_threshold=descriptor["cluster_threshold"],
                pixel_diff=descriptor["pixel_diff"],
            )
        else:
            mismatches = [
                field
                for field, value in (
                    ("model", config.model.name),
                    ("k", config.k),
                    ("cluster_threshold", config.cluster_threshold),
                    ("pixel_diff", config.pixel_diff),
                )
                if descriptor[field] != value
            ]
            if mismatches:
                raise ValueError(
                    "stream %r: supplied config disagrees with the journaled "
                    "session on: %s" % (stream, ", ".join(mismatches))
                )
        self = cls(
            config,
            stream,
            fps=descriptor["fps"],
            ledger=ledger,
            max_live_clusters=descriptor["max_live_clusters"],
            index_mode=descriptor["index_mode"],
            dispatcher=None,
        )
        if state_doc is not None:
            self._restore_state(store, state_doc)
        # each decoded chunk is let go once replayed, so the suffix is
        # never held decoded whole
        records.reverse()
        while records:
            record = records.pop()
            if record.chunk is None:
                continue
            watermark_s = record.payload.get("watermark_s")
            self._validate_chunk(record.chunk, watermark_s)
            self._ingest_chunk(record.chunk, watermark_s, dispatch=False)
        # journaling resumes where the lineage stands -- the max of the
        # committed cursor and any surviving records (compaction can
        # leave the journal empty); dispatch resumes live
        self.journal = journal
        self._last_journal_seq = max(journal.last_seq(), replay_after)
        self.dispatcher = dispatcher
        return self

    def _restore_state(self, store: DocumentStore, state_doc: Dict) -> None:
        """Load a committed checkpoint's ingest state into this session
        and derive its index with the class the session uses.  Index
        documents an older checkpoint may have stored beside the state
        are not read."""
        payload = state_doc["payload"]
        columns = load_state_rows(store, self.stream, payload)
        self._persisted_rows = int(payload["rows"])
        self._clusterer = IncrementalClusterer.from_state_dict(
            payload["clusterer"], columns["assignments"], columns["track_id"]
        )
        self._columns.restore(columns, columns["suppressed"].astype(bool))
        self._watermark = float(payload["watermark_s"])
        last = payload["last_time_s"]
        self._last_time = float("-inf") if last is None else float(last)
        self.cnn_inferences = int(payload["cnn_inferences"])
        self.ingest_gpu_seconds = float(payload["ingest_gpu_seconds"])
        self.chunks_pushed = int(payload["chunks_pushed"])
        self._snapshot = self._clusterer.snapshot()
        self._table = self._columns.table(self.stream, self.fps, self._watermark)
        # the index is a pure function of the rows, their assignments
        # and the seeds: derived here, never read back
        self._index = self._build_index(
            self._table, self.config.model, self.config.k, self._snapshot
        )
        self.committed_epoch = int(state_doc["epoch"])


# -- a round of pushes on every usable CPU ----------------------------------

def push_round(
    items: Sequence[Tuple[StreamIngestor, ObservationTable, Optional[float]]],
) -> List[Outcome]:
    """``ingestor.push(chunk, watermark_s)`` for every item in order,
    each chunk's report or exception in its slot -- the same outcomes
    and end state, bit for bit, as pushing the items one by one.

    Sessions are independent until their chunks are applied, so when
    the round holds at least two sessions of ``FeatureExtractor.BLOCK_ROWS``
    rows or more and :func:`~repro.core.helpers.fork_width` allows, each
    session's cluster halves run ahead on every usable CPU: the
    sessions are balanced by rows over the workers (largest first, each
    to the lightest share), this process takes the heaviest share, and
    each other share goes to one :class:`~repro.core.helpers.Helper`
    (event ``append.helper``, with its ``streams``).  Then every chunk is
    validated, journaled and applied here, in input order, from its
    predicted step.

    A prediction is only a shortcut.  A session whose helper failed, or
    whose chunk is not applied as predicted (its journal write raised),
    goes back to the plain ``push`` from that chunk on, its clusterer
    first put where the chunks applied so far left it; an
    ``append.fallback`` event names the session and the chunk.
    """
    sessions: Dict[int, _RoundSession] = {}
    for ingestor, chunk, watermark_s in items:
        session = sessions.setdefault(id(ingestor), _RoundSession(ingestor))
        session.chunks.append((chunk, watermark_s))
    shares = _balance(list(sessions.values()))
    if shares is None:
        return [_outcome(ingestor.push, chunk, watermark_s)
                for ingestor, chunk, watermark_s in items]
    _cluster_shares(shares)
    outcomes = [
        sessions[id(ingestor)].push_next(chunk, watermark_s)
        for ingestor, chunk, watermark_s in items
    ]
    for session in sessions.values():
        session.finish()
    return outcomes


def _outcome(fn, *args) -> Outcome:
    try:
        return fn(*args), None
    except Exception as exc:
        return None, exc


def _balance(sessions: List["_RoundSession"]) -> Optional[List[List["_RoundSession"]]]:
    """The round's shares, heaviest first, or None to push serially."""
    workers = fork_width(sum(s.rows >= FeatureExtractor.BLOCK_ROWS for s in sessions))
    if workers < 2:
        return None
    shares: List[List[_RoundSession]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for session in sorted(sessions, key=lambda s: -s.rows):
        lightest = loads.index(min(loads))
        shares[lightest].append(session)
        loads[lightest] += session.rows
    return [shares[w] for w in sorted(range(workers), key=lambda w: -loads[w])]


def _cluster_shares(shares: List[List["_RoundSession"]]) -> None:
    """Run every session's cluster halves ahead: the first share here,
    each other in a helper; every helper is reaped before this returns."""
    helpers: List[Helper] = []
    try:
        for share in shares[1:]:
            helpers.append(Helper(
                lambda share=share: [s.cluster_ahead() for s in share],
                "append.helper", streams=[s.ingestor.stream for s in share],
            ))
        for session in shares[0]:
            clusterer = session.ingestor._clusterer
            # where a fallback puts this session's clusterer back to
            session.start = (clusterer.bounded_state(), clusterer.snapshot().assignments,
                             session.ingestor._table.track_id)
            session.steps = session.ingestor._cluster_ahead(session.chunks)
        for share, helper in zip(shares[1:], helpers):
            try:
                replies = helper.collect()
            except Exception:
                continue  # its sessions push serially; its event says why
            for session, (steps, final) in zip(share, replies):
                session.steps, session.final = steps, final
    finally:
        for helper in helpers:
            helper.stop()


class _RoundSession:
    """One session's chunks in a :func:`push_round`, and its progress."""

    def __init__(self, ingestor: StreamIngestor):
        self.ingestor = ingestor
        #: ``(chunk, watermark_s)`` in round order
        self.chunks: List[Tuple[ObservationTable, Optional[float]]] = []
        #: the predicted cluster steps (None: no prediction)
        self.steps: Optional[List[Optional[ClusterStep]]] = None
        #: a helper's clusterer state after its steps (its live slots)
        self.final: Optional[Dict] = None
        #: the round-start ``from_state_dict`` arguments of a session clustered here
        self.start: Optional[Tuple[Dict, np.ndarray, np.ndarray]] = None
        #: the chunks whose cluster half a plain push would have run
        self.clustered: List[ObservationTable] = []
        self.pushed = 0
        self.serial = False
        self._playback: Optional[SnapshotPlayback] = None

    @property
    def rows(self) -> int:
        return sum(len(c) for c, _ in self.chunks if isinstance(c, ObservationTable))

    def cluster_ahead(self) -> Tuple[List[Optional[ClusterStep]], Dict]:
        """A helper's work for this session: its steps and the clusterer's
        live-slot state after them."""
        steps = self.ingestor._cluster_ahead(self.chunks)
        return steps, self.ingestor._clusterer.bounded_state()

    def push_next(
        self, chunk: ObservationTable, watermark_s: Optional[float]
    ) -> Outcome:
        """Push this session's next chunk of the round: from its step
        while the round goes as predicted, by plain ``push`` after."""
        position = self.pushed
        self.pushed += 1
        if not self.serial:
            if self.steps is None or position >= len(self.steps):
                self._go_serial(position, "no prediction")
            else:
                step = self.steps[position]
                refused = _outcome(self.ingestor._validate_chunk, chunk, watermark_s)[1]
                if (refused is None) == (step is not None):  # as predicted
                    if step is None:
                        return None, refused
                    return self._apply(chunk, watermark_s, step, position)
                self._go_serial(position, "validation")
        return _outcome(self.ingestor.push, chunk, watermark_s)

    def _apply(self, chunk, watermark_s, step: ClusterStep, position: int) -> Outcome:
        ingestor = self.ingestor
        try:
            ingestor._journal_chunk(chunk, watermark_s)
        except Exception as exc:
            # the step ran past a chunk that never applies
            self._go_serial(position + 1, "journal")
            return None, exc
        self.clustered.append(chunk)
        if self._playback is None:
            self._playback = SnapshotPlayback(ingestor._snapshot)
        snapshot = self._playback.advance(step.assignments, step.num_clusters)
        return _outcome(
            ingestor._apply_chunk, chunk, watermark_s, step, snapshot, True
        )

    def _go_serial(self, position: int, reason: str) -> None:
        """Continue on plain ``push``, the clusterer put where the
        chunks applied so far left it."""
        ingestor = self.ingestor
        if self.start is not None:
            ingestor._clusterer = IncrementalClusterer.from_state_dict(*self.start)
        for chunk in self.clustered:
            ingestor._cluster_chunk(chunk)
        self.serial = True
        emit("append.fallback", stream=ingestor.stream, chunk=position, reason=reason)

    def finish(self) -> None:
        """Install a helper's clusterer once every chunk applied as it
        predicted (a session clustered here already holds its own)."""
        if self.serial or self.final is None or self._playback is None:
            return
        self.ingestor._clusterer = IncrementalClusterer.from_state_dict(
            self.final, self._playback.assignments, self.ingestor._table.track_id
        )
