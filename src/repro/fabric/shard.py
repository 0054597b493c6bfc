"""One shard of the serving fabric: a FocusSystem plus its stores.

A :class:`ShardNode` is the unit of horizontal scale: it owns one
:class:`~repro.core.system.FocusSystem` (its own GPU cluster, ledger,
verification cache, and serving surface) and one
:class:`~repro.storage.docstore.DocumentStore` holding the durable
state -- WAL journals, epoch-tagged checkpoints, persisted indexes --
of every stream placed on it.  The shard knows nothing about placement
or siblings; the router (``repro.fabric.router``) owns the mapping and
scatter-gathers across shards, and migration
(``repro.fabric.migration``) moves a stream's durable state between
shard stores.

:class:`ShardLeg` is the contract both of those callers are written
against.  :class:`ShardNode` implements it here, and
:class:`~repro.fabric.client.ShardClient` implements it by speaking
the same verbs to a ``ShardNode`` in a worker process; no caller can
tell the two apart.  The four migration steps are written once, here.

Observability is one member, ``counters()``: the shard's whole snapshot
in one document, which every router surface is a view over
(``docs/OBSERVABILITY.md``, "Snapshot surfaces").
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Protocol, Sequence, Tuple, Union

from repro.core.config import FocusConfig
from repro.core.streaming import ChunkReport
from repro.core.system import FocusSystem, QueryAnswer, StreamHandle
from repro.fabric.migration import MigrationError
from repro.fabric.protocol import (
    FAULT_COUNTER_KEYS,
    WIRE_COUNTER_KEYS,
    StreamHandleInfo,
)
from repro.serve.planner import QueryRequest
from repro.serve.service import MultiStreamAnswer, StreamCheckpoint
from repro.storage.docstore import DocumentStore
from repro.storage.journal import (
    CHECKPOINT_COLLECTION,
    JOURNAL_PREFIX,
    backing_store,
    committed_checkpoint,
    copy_stream_state,
    fence_stream,
    fenced_streams,
    journaled_streams,
    reset_stream,
)
from repro.obs.metrics import register_counters
from repro.video.synthesis import ObservationTable

#: WAL totals every shard publishes in its ``cost`` section (summable
#: across shards, like everything else in that section)
JOURNAL_COUNTER_KEYS = register_counters(
    "sum", "journal-appends", "journal-records"
)


class ShardLeg(Protocol):
    """Exactly the members ``repro.fabric.router`` and
    ``repro.fabric.migration`` call on a shard (its wider command
    surface -- ``handle_info``, ``fenced``, chaos hooks -- is not part
    of the contract).  A ``*_submit`` starts a command and returns a
    reply whose ``result()`` returns the outcome or raises; one leg's
    replies are gathered in submission order.  A submitted reply must
    be gathered (an abandoned one wedges a worker leg's FIFO), and a
    ``*_submit`` never raises an application error: what the command
    itself raises comes out of ``result()``, only a dead worker out of
    the submit.  ``tests/test_fabric_legs`` holds both implementations
    to these names and parameter names.
    """

    shard_id: str
    #: durable state as of the last acknowledged command: callers read
    #: it (migration copies out of it) and never write it
    store: DocumentStore

    def streams(self) -> List[str]: ...
    def open_stream(self, stream, durable=True, wal_reset=False, **kwargs): ...
    def append(self, stream, chunk, watermark_s=None) -> ChunkReport: ...
    def append_many_submit(self, chunks, watermarks=None): ...
    def query(self, stream, clazz, kx=None, time_range=None) -> QueryAnswer: ...
    def query_batch(self, requests) -> List[MultiStreamAnswer]: ...
    def query_batch_submit(self, requests): ...
    def checkpoint(self, streams=None, strict=True) -> List[StreamCheckpoint]: ...
    def checkpoint_submit(self, streams=None, strict=True): ...
    def recover(self, streams=None, configs=None) -> List[str]: ...
    def ensure_alive(self, configs=None) -> bool: ...
    # the migration steps, in call order (target, source, target, source)
    def import_precheck(self, stream) -> None: ...
    def migrate_out(self, stream, checkpoint=True) -> Tuple[int, int, FocusConfig]: ...
    def import_stream(self, stream, staging_store, config) -> StreamHandleInfo: ...
    def finish_migration(self, stream, target_shard) -> int: ...
    # the one observability member: the shard's whole snapshot
    def counters(self) -> Dict[str, object]: ...


class CompletedReply:
    """The reply of a command that ran at submit time (in-process legs):
    ``fn(*args, **kwargs)`` runs now, and its value or its exception
    comes out of :meth:`result`, like a worker leg's reply."""

    def __init__(self, fn, *args, **kwargs):
        self._value = self._error = None
        try:
            self._value = fn(*args, **kwargs)
        except Exception as exc:
            self._error = exc

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


class ShardNode:
    """One fabric shard: a FocusSystem + its durable document store."""

    def __init__(
        self,
        shard_id: str,
        store: Optional[DocumentStore] = None,
        system: Optional[FocusSystem] = None,
        num_query_gpus: int = 4,
        **system_kwargs,
    ):
        if not shard_id:
            raise ValueError("shard_id must be non-empty")
        if system is not None and system_kwargs:
            raise ValueError(
                "pass either a prebuilt system or FocusSystem kwargs, not both"
            )
        self.shard_id = shard_id
        #: the shard's durable home: WAL journals, checkpoints, indexes
        self.store = store if store is not None else DocumentStore()
        #: the shard's serving system, with its *own* GPU cluster --
        #: shards never contend with each other for devices
        self.system = system or FocusSystem(
            num_query_gpus=num_query_gpus, **system_kwargs
        )
        # a shard is never a trace entry point: its router (or front
        # door) owns sampling, so a scatter leg whose sub-requests
        # arrive untraced must not start its own root trace
        self.system.service.trace_walkins = False

    def __repr__(self) -> str:
        return "ShardNode(%r, streams=%d)" % (self.shard_id, len(self.streams()))

    def ping(self) -> None:
        """Liveness probe: answering is the whole job (over a worker
        leg, the cheapest round trip; in-process, a shard that can be
        called is alive)."""

    # -- stream lifecycle ----------------------------------------------------
    def streams(self) -> List[str]:
        return self.system.streams()

    def live_streams(self) -> List[str]:
        return [s for s in self.streams() if self.system.handle(s).live]

    def handle(self, stream: str) -> StreamHandle:
        return self.system.handle(stream)

    def handle_info(self, stream: str) -> StreamHandleInfo:
        """The stream's wire-safe handle summary.

        This is the shape lifecycle calls return in the fabric's
        worker-process mode (a live handle cannot cross the process
        boundary), offered in-process too so the two modes stay
        comparable field by field.
        """
        handle = self.handle(stream)
        return StreamHandleInfo(
            stream=handle.stream,
            live=handle.live,
            restored=handle.restored,
            watermark_s=float(handle.watermark_s),
            rows=len(handle.table),
            duration_s=float(handle.table.duration_s),
            fps=float(handle.table.fps),
        )

    def open_stream(
        self,
        stream: str,
        durable: bool = True,
        wal_reset: bool = False,
        **kwargs,
    ) -> StreamHandle:
        """Open a live session on this shard.

        ``durable=True`` (default) write-ahead journals into the
        shard's own store, so the session checkpoints atomically,
        recovers after a crash, and -- the fabric's reason to insist on
        it -- can be *migrated* to another shard mid-ingest.
        """
        wal = self.store if durable else None
        return self.system.open_stream(
            stream, wal_store=wal, wal_reset=wal_reset, **kwargs
        )

    def append(
        self,
        stream: str,
        chunk: ObservationTable,
        watermark_s: Optional[float] = None,
    ) -> ChunkReport:
        return self.system.append(stream, chunk, watermark_s=watermark_s)

    def append_many_submit(self, chunks, watermarks=None) -> CompletedReply:
        """This shard's part of an append round, run now: the reply's
        ``result()`` is one ``(report, error)`` per ``(stream, chunk)``
        pair, in order (:meth:`FocusSystem.append_outcomes`, which runs
        the streams' clustering on every usable CPU)."""
        return CompletedReply(self.system.append_outcomes, chunks, watermarks)

    # -- serving -------------------------------------------------------------
    def query(
        self,
        stream: str,
        clazz: Union[int, str],
        kx: Optional[int] = None,
        time_range: Optional[Tuple[float, float]] = None,
    ) -> QueryAnswer:
        """Single-stream query against this shard's own system.

        Part of the shard *command surface* -- the exact set of
        operations that also crosses the worker-process wire
        (``repro.fabric.worker``), so the router never reaches into
        ``shard.system`` and both fabric modes speak the same verbs.
        """
        return self.system.query(stream, clazz, kx=kx, time_range=time_range)

    def query_batch(
        self, requests: Sequence[QueryRequest]
    ) -> List[MultiStreamAnswer]:
        """One verification round over this shard's sub-batch."""
        return self.system.query_batch(requests)

    def query_batch_submit(self, requests) -> CompletedReply:
        return CompletedReply(self.query_batch, requests)

    # -- durability ----------------------------------------------------------
    def checkpoint(
        self,
        streams: Optional[Sequence[str]] = None,
        strict: bool = True,
    ) -> List[StreamCheckpoint]:
        """Checkpoint this shard's streams into its own store, one
        independent epoch per stream; returns the full outcomes."""
        return self.system.checkpoint_outcomes(
            self.store, streams=streams, strict=strict
        )

    def checkpoint_submit(self, streams=None, strict=True) -> CompletedReply:
        return CompletedReply(self.checkpoint, streams=streams, strict=strict)

    def recover(
        self,
        streams: Optional[Sequence[str]] = None,
        configs: Optional[Mapping[str, "FocusConfig"]] = None,
    ) -> List[str]:
        """Resume this shard's journaled sessions after a crash.

        Defaults to every stream with recoverable durable state in the
        shard's store; streams fenced by a migration away are *not*
        recoverable here (their durable home moved) and are skipped.
        ``configs`` passes per-stream ingest configurations through to
        :meth:`FocusSystem.recover` -- required for streams ingested
        with a specialized (non-zoo) model, whose config cannot be
        rebuilt from the journaled descriptor.
        """
        if streams is None:
            streams = journaled_streams(self.store)
            if not streams:
                return []
        return self.system.recover(self.store, streams=streams, configs=configs)

    def ensure_alive(self, configs=None) -> bool:
        """False: there is no worker to respawn, so a retry is pointless."""
        return False

    # -- migration (orchestrated by repro.fabric.migration) ------------------
    def import_precheck(self, stream: str) -> None:
        """Target: refuse, before any source-side work, a stream this
        shard holds durable state for or serves (a fence tombstone is
        neither: a stream may move back)."""
        marker = committed_checkpoint(self.store, stream)
        if stream in journaled_streams(self.store) or (
            marker is not None and not marker.get("fenced")
        ):
            raise MigrationError(
                "target shard %r already holds durable state for stream %r; "
                "wipe it with repro.storage.journal.reset_stream before "
                "migrating onto it" % (self.shard_id, stream)
            )
        if stream in self.streams():
            raise MigrationError(
                "target shard %r is already serving stream %r"
                % (self.shard_id, stream)
            )

    def migrate_out(
        self, stream: str, checkpoint: bool = True
    ) -> Tuple[int, int, FocusConfig]:
        """Source: make the shard store hold all the target needs, and
        keep serving.  Requires a live session journaled into that store
        (the WAL makes the copy complete and the fence meaningful);
        ``checkpoint`` commits a strict epoch-CAS checkpoint first, so a
        zombie losing the CAS aborts before anything is copied.  Returns
        ``(committed epoch, journal chunk records past it, live config)``
        -- the config so that models the zoo cannot rebuild move too."""
        handle = self.handle(stream)
        ingestor = handle.ingestor
        if ingestor is None or ingestor.journal is None:
            raise MigrationError(
                "stream %r is not a durable live session on shard %r; only "
                "sessions opened with ShardNode.open_stream(durable=True) "
                "carry the WAL state migration ships" % (stream, self.shard_id)
            )
        if backing_store(ingestor.journal.store) is not backing_store(self.store):
            raise MigrationError(
                "stream %r journals into a store that is not shard %r's own; "
                "migration copies from the shard store, so the two must match"
                % (stream, self.shard_id)
            )
        if checkpoint:
            self.checkpoint(streams=[stream])
        marker = committed_checkpoint(self.store, stream)
        epoch = marker["epoch"] if marker else 0
        committed_seq = marker["journal_seq"] if marker else -1
        replayed_chunks = sum(
            record.kind == "chunk"
            for record in ingestor.journal.records(after=committed_seq)
        )
        return int(epoch), replayed_chunks, handle.config

    def import_stream(
        self, stream: str, staging_store: DocumentStore, config: FocusConfig
    ) -> StreamHandleInfo:
        """Target: install the copied state and recover from it
        (checkpoint restored, journal suffix replayed).  This precedes
        the source's irreversible step: a failure wipes the copy and
        re-raises, so the stream is never owned by no shard."""
        prior_fence = committed_checkpoint(self.store, stream)
        self.import_precheck(stream)
        copy_stream_state(staging_store, self.store, stream)
        try:
            self.system.recover(
                self.store, streams=[stream], configs={stream: config}
            )
        except BaseException:
            reset_stream(self.store, stream)
            if prior_fence is not None:
                # the copy replaced this shard's own fence tombstone (a
                # prior migration away); put it back, or the zombie that
                # fence was holding off would win its epoch CAS again
                restored = {k: v for k, v in prior_fence.items() if k != "_id"}
                self.store.collection(CHECKPOINT_COLLECTION).insert_one(restored)
            raise
        return self.handle_info(stream)

    def finish_migration(self, stream: str, target_shard: str) -> int:
        """Source, the one irreversible step: fence the lineage one
        epoch ahead and release the session.  A surviving session now
        loses its next checkpoint's epoch CAS (``StaleEpochError``) and
        crash recovery here skips the stream.  Returns the fence epoch."""
        fence_epoch = fence_stream(self.store, stream, migrated_to=target_shard)
        self.system.close_stream(stream)
        return int(fence_epoch)

    def fenced(self) -> List[str]:
        """Streams migrated off this shard (fence tombstones in its store)."""
        return fenced_streams(self.store)

    # -- observability -------------------------------------------------------
    def counters(self) -> Dict[str, object]:
        """The shard's whole observability snapshot, one document.

        ``cost`` is ``FocusSystem.cost_summary`` (GPU-seconds per ledger
        category plus the serving counters) and this shard's WAL totals:
        appends by its live sessions and records resident in its journal
        collections.  Every ``cost`` key is a summable total, so the
        router's fleet view is a plain per-key sum.  ``metrics`` is the
        registry snapshot, histograms in their mergeable wire encoding
        (``repro.obs.metrics``).
        """
        appends = 0
        for name in self.streams():
            ingestor = self.system.handle(name).ingestor
            if ingestor is not None and ingestor.journal is not None:
                appends += ingestor.journal.appends
        resident = sum(
            len(self.store.collection(name))
            for name in self.store.collection_names()
            if name.startswith(JOURNAL_PREFIX)
        )
        cost = self.system.cost_summary()
        cost["journal-appends"] = float(appends)
        cost["journal-records"] = float(resident)
        # an in-process shard has no wire and no worker to crash: zeros,
        # so both leg kinds publish the same keys and the router's
        # per-key sum never KeyErrors on a mixed fleet
        # (``ShardClient.counters`` adds the real values on its side)
        cost.update(dict.fromkeys(WIRE_COUNTER_KEYS + FAULT_COUNTER_KEYS, 0.0))
        return {
            "shard": self.shard_id,
            "streams": float(len(self.streams())),
            "live-streams": float(len(self.live_streams())),
            "cost": cost,
            "cache": self.system.service.cache_stats(),
            "gpu": self.system.cluster.counters(),
            "metrics": self.system.metrics.snapshot(),
        }
