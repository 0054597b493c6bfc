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
protocol (index delta + resumable ingest state + stream metadata, all
swapped in as one commit), and :meth:`StreamIngestor.recover` rebuilds
a session killed at *any* point by restoring the last committed
checkpoint and replaying the journal's suffix -- bit-identical to
uninterrupted ingest, in both index modes, because every ingest stage
is per-row deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cnn.zoo import model_by_name
from repro.core.clustering import (
    ClusterSummary,
    IncrementalClusterer,
    extract_and_cluster_chunk,
    group_rows_by_cluster,
)
from repro.core.config import FocusConfig
from repro.core.costmodel import CostCategory, GPULedger
from repro.core.index import (
    ClusterEntry,
    IndexReader,
    LazyTopKIndex,
    TopKIndex,
    stored_index_epoch,
)
from repro.core.ingest import IngestResult, simulate_pixel_diff
from repro.sched.cluster import DispatchReport, IngestDispatcher
from repro.storage.docstore import DocumentStore
from repro.storage.journal import (
    CheckpointWriter,
    IngestJournal,
    JournalError,
    backing_store,
    chunk_from_payload,
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
    doubling buffers), and in ``materialized`` mode the index applies
    just the chunk's delta, so a forever-growing stream pays O(chunk)
    per push.  ``lazy`` mode trades that for skipping all top-K
    materialization at ingest: its :meth:`LazyTopKIndex.refresh`
    rebuilds per-cluster arrays over the accumulated window, an O(rows
    so far) step per push.
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
        if index_mode not in ("lazy", "materialized"):
            raise ValueError("index_mode must be 'lazy' or 'materialized'")
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
        if index_mode == "materialized":
            self._index: IndexReader = TopKIndex(
                stream=stream, model_name=config.model.name, k=config.k
            )
        else:
            self._index = LazyTopKIndex(
                self._table, config.model, config.k, self._snapshot
            )
        if journal is not None:
            self._attach_fresh_journal(journal, max_live_clusters)

    def _attach_fresh_journal(
        self, journal: IngestJournal, max_live_clusters: int
    ) -> None:
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
        self._last_journal_seq = journal.append("open", self._descriptor(max_live_clusters))
        self.journal = journal

    def _descriptor(self, max_live_clusters: Optional[int] = None) -> Dict:
        """The session parameters recovery rebuilds a config from."""
        config = self.config
        return {
            "stream": self.stream,
            "fps": self.fps,
            "index_mode": self.index_mode,
            "max_live_clusters": int(
                self._clusterer.max_live
                if max_live_clusters is None
                else max_live_clusters
            ),
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
        self, chunk: ObservationTable, watermark_s: Optional[float]
    ) -> None:
        """Refuse a malformed chunk or watermark -- before the WAL write
        on a push, and again on replay."""
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
        if first < self._last_time:
            raise ValueError(
                "chunks must arrive in stream order: chunk starts at "
                "%.3fs but %.3fs was already ingested" % (first, self._last_time)
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
        if self.journal is not None:
            self._last_journal_seq = self.journal.append_chunk(chunk, watermark_s)
        return self._apply_chunk(chunk, watermark_s, dispatch=True)

    def _apply_chunk(
        self,
        chunk: ObservationTable,
        watermark_s: Optional[float],
        dispatch: bool,
    ) -> ChunkReport:
        """Apply one (already journaled) chunk to the in-memory state.

        Shared by the live path (``push``) and journal replay during
        :meth:`recover`; replay skips GPU-cluster dispatch -- that work
        happened before the crash -- but keeps cost accounting so the
        recovered counters match an uninterrupted session.
        """
        config = self.config
        offset = len(self._table)

        # IT1 + pixel differencing (per-row deterministic, so chunking
        # cannot change which observations are suppressed)
        if config.pixel_diff:
            suppressed = simulate_pixel_diff(chunk)
        else:
            suppressed = np.zeros(len(chunk), dtype=bool)

        # IT2: feature extraction + incremental clustering; the
        # clusterer keeps its centroids and track shortcuts across
        # calls, and suppressed rows skip feature synthesis entirely
        assignments = extract_and_cluster_chunk(
            self._clusterer, self._extractor, chunk, suppressed
        )
        previous = self._snapshot
        snapshot = self._clusterer.snapshot()

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

        # IT3-IT4: apply the cluster delta to the live index
        if self.index_mode == "materialized":
            new_ids, grown_ids = self._apply_delta(
                previous, snapshot, assignments, offset, chunk
            )
        else:
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

    def _apply_delta(
        self,
        previous: ClusterSummary,
        snapshot: ClusterSummary,
        assignments: np.ndarray,
        offset: int,
        chunk: ObservationTable,
    ) -> "tuple[List[int], List[int]]":
        """Extend/add materialized index entries for one chunk's rows."""
        index = self._index
        model = self.config.model
        old_n = previous.num_clusters
        new_ids: List[int] = []
        grown_ids: List[int] = []
        if not len(assignments):
            return new_ids, grown_ids
        # group the chunk's rows by cluster id (ascending, so new
        # clusters are added in id order exactly like TopKIndex.build)
        touched = int(assignments.min())
        groups = group_rows_by_cluster(
            assignments - touched, int(assignments.max()) - touched + 1
        )
        obs_seeds = chunk.observation_seeds()
        # one batched rank/slot draw for every cluster the chunk opened:
        # the per-cluster scalar path used to dominate live ingest
        fresh = [
            cid_offset + touched
            for cid_offset, group in enumerate(groups)
            if len(group) and cid_offset + touched >= old_n
        ]
        seed_locals = np.asarray(
            [int(snapshot.seed_rows[cid]) - offset for cid in fresh],
            dtype=np.int64,
        )
        top_ks = {}
        if fresh:
            lists = model.topk_lists(
                obs_seeds[seed_locals],
                chunk.class_id[seed_locals],
                chunk.difficulty[seed_locals],
                self.config.k,
            )
            top_ks = dict(zip(fresh, lists))
        for cid_offset, group in enumerate(groups):
            if not len(group):
                continue
            cid = cid_offset + touched
            global_rows = group + offset
            frames = chunk.frame_idx[group]
            times = chunk.time_s[group]
            if cid < old_n:
                index.extend_cluster(cid, global_rows, frames, times)
                grown_ids.append(cid)
            else:
                seed_local = int(snapshot.seed_rows[cid]) - offset
                entry = ClusterEntry(
                    cluster_id=cid,
                    centroid_row=int(snapshot.seed_rows[cid]),
                    centroid_class=int(chunk.class_id[seed_local]),
                    top_k=tuple(top_ks[cid]),
                    size=int(len(group)),
                    first_time_s=float(times.min()),
                    last_time_s=float(times.max()),
                )
                index.add_cluster(entry, global_rows, frames)
                new_ids.append(cid)
        return new_ids, grown_ids

    # -- persistence -------------------------------------------------------
    def checkpoint(
        self,
        store,
        stream_meta: Optional[Dict] = None,
        compact: bool = True,
    ) -> Optional[int]:
        """Persist the session's progress to ``store``.

        Without a journal this is the legacy query-only checkpoint: the
        index's cluster delta is upserted in place (unchanged cluster
        documents are never rewritten) and ``None`` is returned.

        With a journal attached the checkpoint is *durable and atomic*:
        the index delta, the resumable ingest state (clusterer +
        accumulated rows), optional ``stream_meta``, and the commit
        marker all land in staged collections and become visible in one
        epoch-tagged swap.  A crash at any earlier point leaves the
        previous committed checkpoint intact; a zombie session whose
        epoch lost the compare-and-swap gets
        :class:`~repro.storage.journal.StaleEpochError`.  On success the
        journal is compacted up to the committed sequence number (unless
        ``compact=False``) and the new epoch is returned.

        Compaction runs *after* the commit: a failure inside it leaves
        the new epoch fully committed (``committed_epoch`` already
        advanced) with some stale journal records behind -- harmless,
        since replay filters records at or below the committed cursor.
        Callers observing an exception should consult
        ``committed_epoch`` (or the store's marker) before concluding
        the round failed; ``QueryService.checkpoint_streams`` does.
        """
        if self.journal is None:
            self._index.to_docstore(store, incremental=True)
            return None
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
        # collections are untouched until writer.commit().  The dirty
        # set is restored on failure because staging the delta clears it
        # -- if the session survives the error (chaos mode, retries),
        # the next checkpoint must not skip these clusters and commit
        # stale documents.
        dirty_before = self._index.dirty_clusters
        try:
            self._index.to_docstore(writer, incremental=True)
            # only the rows past the last *committed* checkpoint are
            # encoded; the cursor moves at commit, so a failed attempt's
            # retry writes the same range
            start = self._persisted_rows
            writer.write_state(self._state_payload(), start, self._rows_from(start))
            if stream_meta is not None:
                writer.collection("stream-meta").upsert(
                    {"stream": self.stream}, stream_meta
                )
            epoch = writer.commit(
                extra={"rows": self.num_rows, "watermark_s": float(self._watermark)}
            )
        except BaseException:
            self._index.mark_dirty(dirty_before)
            raise
        self.committed_epoch = epoch
        self._persisted_rows = self.num_rows
        if compact:
            self.journal.truncate_through(writer.journal_seq)
        return epoch

    def _state_payload(self) -> Dict:
        """The head of the resumable state: session descriptor,
        watermark cursors, counters and the clusterer's bounded state.
        Nothing here grows with the rows -- those are in the
        checkpoint's row segments."""
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
        blank session when none ever committed), then replays every
        journal record past the committed sequence number through the
        normal ingest stages.  Ingest is per-row deterministic and the
        checkpoint state is bit-exact, so the recovered session --
        table, clustering, index, watermark, counters -- is
        bit-identical to one that never crashed, in both index modes.
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
        descriptor = None
        if state_doc is not None:
            descriptor = state_doc["payload"]["descriptor"]
        else:
            for record in journal.records():
                if record.kind == "open":
                    descriptor = record.payload
                    break
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
        replay_after = -1
        if state_doc is not None:
            self._restore_state(store, state_doc)
            replay_after = int(state_doc["journal_seq"])
        for record in journal.records(after=replay_after):
            if record.kind != "chunk":
                continue
            chunk = chunk_from_payload(record.payload)
            watermark_s = record.payload.get("watermark_s")
            self._validate_chunk(chunk, watermark_s)
            self._apply_chunk(chunk, watermark_s, dispatch=False)
        # journaling resumes where the lineage stands -- the max of the
        # committed cursor and any surviving records (compaction can
        # leave the journal empty); dispatch resumes live
        self.journal = journal
        self._last_journal_seq = max(journal.last_seq(), replay_after)
        self.dispatcher = dispatcher
        return self

    def _restore_state(self, store: DocumentStore, state_doc: Dict) -> None:
        """Load a committed checkpoint's ingest state into this session."""
        payload = state_doc["payload"]
        columns, self._persisted_rows = load_state_rows(store, self.stream, payload)
        self._clusterer = IncrementalClusterer.from_state_dict(
            dict(payload["clusterer"], assignments=columns["assignments"])
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
        if self.index_mode == "materialized":
            # the committed snapshot *is* the index; adopt it wholesale
            self._index = TopKIndex.from_docstore(store, self.stream)
        else:
            self._index = LazyTopKIndex(
                self._table, self.config.model, self.config.k, self._snapshot
            )
            epoch = stored_index_epoch(store, self.stream)
            if epoch:
                # same lineage as the committed snapshot: later deltas
                # merge instead of triggering a wholesale rewrite, and
                # the committed clusters are already persisted (clean)
                self._index.adopt_lineage(epoch, clean=True)
        self.committed_epoch = int(state_doc["epoch"])
