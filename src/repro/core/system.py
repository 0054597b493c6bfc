"""FocusSystem: the end-to-end public facade.

Ties the substrates together the way a deployment would (Section 5):
point it at streams, let it tune parameters on a GT-labelled sample,
ingest the video into per-stream top-K indexes, then serve class
queries -- single-stream or fanned out across every camera through the
``repro.serve`` query service -- with GT-CNN verification, while a GPU
ledger accounts every classification so costs and latencies can be
reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cnn.model import ClassifierModel
from repro.cnn.specialize import OTHER_CLASS, SpecializedClassifier
from repro.cnn.zoo import resnet152
from repro.core.config import AccuracyTarget, FocusConfig, Policy, TunerSettings
from repro.core.costmodel import CostCategory, GPULedger
from repro.core.index import TopKIndex, stored_streams
from repro.core.ingest import IngestPipeline, IngestResult
from repro.core.metrics import SegmentMetrics
from repro.core.query import QueryEngine, QueryResult
from repro.core.streaming import ChunkReport, StreamIngestor
from repro.core.tuning import ParameterTuner, TuningResult
from repro.obs.metrics import MetricsRegistry
from repro.sched.cluster import GPUCluster, IngestDispatcher, QueryCoordinator
from repro.serve.planner import QueryRequest
from repro.serve.service import MultiStreamAnswer, QueryService
from repro.storage.docstore import DocumentStore
from repro.storage.journal import IngestJournal, journaled_streams, reset_stream
from repro.video.classes import class_id as class_id_of, class_name
from repro.video.profiles import get_profile
from repro.video.synthesis import ObservationTable, generate_observations


@dataclass
class QueryAnswer:
    """A user-facing query answer with accuracy and latency attached."""

    stream: str
    class_id: int
    class_name: str
    frames: np.ndarray
    latency_seconds: float
    gt_inferences: int
    metrics: SegmentMetrics
    result: QueryResult

    @property
    def precision(self) -> float:
        return self.metrics.precision

    @property
    def recall(self) -> float:
        return self.metrics.recall


@dataclass
class StreamHandle:
    """One queryable stream: its table, tuning outcome, and index.

    ``tuning``/``config``/``ingest`` are None for streams restored from
    a persisted index (``FocusSystem.load_indexes``): such streams are
    fully queryable but carry no ingest-time state.

    A *live* handle (``FocusSystem.open_stream``) additionally carries
    the :class:`StreamIngestor` accepting chunks; its ``table`` and
    ``ingest`` snapshot advance with every ``FocusSystem.append``.
    """

    stream: str
    table: ObservationTable
    tuning: Optional[TuningResult]
    config: Optional[FocusConfig]
    ingest: Optional[IngestResult]
    engine: QueryEngine
    #: head classes of a restored specialized index (None for generic);
    #: kept so re-saving a restored handle preserves the token mapping
    head_classes: Optional[List[int]] = None
    #: the live ingest session (None for one-shot or restored streams)
    ingestor: Optional[StreamIngestor] = None

    @property
    def index(self):
        return self.engine.index

    @property
    def restored(self) -> bool:
        return self.ingest is None

    @property
    def live(self) -> bool:
        return self.ingestor is not None

    @property
    def watermark_s(self) -> float:
        """Stream time queries are currently answerable up to."""
        if self.ingestor is not None:
            return self.ingestor.watermark_s
        return self.table.duration_s

    @property
    def ingest_gpu_seconds(self) -> float:
        return self.ingest.ingest_gpu_seconds if self.ingest else 0.0


def _table_checksum(table: ObservationTable) -> int:
    """Cheap content fingerprint of an observation table.

    Persisted with an index so ``load_indexes`` can detect that the
    table it reconstructed is not the one the index was built over
    (index member rows would point at the wrong observations).
    """
    seeds = table.observation_seeds()
    if not len(seeds):
        return 0
    # mix in position so permutations don't collide
    mixed = seeds ^ np.arange(len(seeds), dtype=np.uint64)
    return int(np.bitwise_xor.reduce(mixed))


class FocusSystem:
    """End-to-end Focus deployment over one or more video streams."""

    def __init__(
        self,
        gt_model: Optional[ClassifierModel] = None,
        target: AccuracyTarget = AccuracyTarget(),
        policy: Policy = Policy.BALANCE,
        tuner_settings: TunerSettings = TunerSettings(),
        num_query_gpus: int = 10,
        verification_cache_size: int = 4096,
    ):
        self.gt_model = gt_model or resnet152()
        self.target = target
        self.policy = policy
        self.tuner_settings = tuner_settings
        self.ledger = GPULedger()
        self.cluster = GPUCluster(num_query_gpus)
        self.coordinator = QueryCoordinator(self.cluster)
        self._streams: Dict[str, StreamHandle] = {}
        #: the system-wide metrics registry: scheduler dispatch, journal
        #: append, and checkpoint-commit latency histograms all record
        #: here (``repro.obs.metrics``; surfaced per shard in the
        #: ``metrics`` section of ``ShardNode.counters``)
        self.metrics = MetricsRegistry()
        self.service = QueryService(
            engines=self._live_engines,
            gt_model=self.gt_model,
            coordinator=self.coordinator,
            ledger=self.ledger,
            cache_capacity=verification_cache_size,
            metrics=self.metrics,
        )

    def _live_engines(self) -> Mapping[str, QueryEngine]:
        return {name: handle.engine for name, handle in self._streams.items()}

    # -- ingest ------------------------------------------------------------
    def ingest_stream(
        self,
        stream: Union[str, ObservationTable],
        duration_s: float = 600.0,
        fps: float = 30.0,
        config: Optional[FocusConfig] = None,
    ) -> StreamHandle:
        """Tune and ingest one stream.

        Args:
            stream: a stream name from Table 1, or a pre-generated
                observation table.
            duration_s / fps: synthesis window when a name is given.
            config: ingest under this configuration instead of the
                tuner's choice.  The sweep still runs on the sample
                and ``StreamHandle.tuning`` is always populated.
        """
        if isinstance(stream, ObservationTable):
            table = stream
        else:
            get_profile(stream)  # validate the name early
            table = generate_observations(stream, duration_s, fps)
        name = table.stream

        sample = self._sample_slice(table)
        # GT-CNN labels the sample for tuning/specialization
        # (Section 4.3, Model Retraining); periodic and amortized.
        self.ledger.record(
            CostCategory.RETRAIN_GT, self.gt_model, len(sample), note="tuning sample"
        )
        tuner = ParameterTuner(self.gt_model, self.target, self.tuner_settings)
        tuning = tuner.tune(sample, name)
        if config is None:
            config = tuning.choose(self.policy).config

        pipeline = IngestPipeline(config, ledger=self.ledger)
        ingest = pipeline.run(table)
        engine = QueryEngine(
            ingest.index, table, config.model, self.gt_model, ledger=self.ledger
        )
        handle = StreamHandle(
            stream=name,
            table=table,
            tuning=tuning,
            config=config,
            ingest=ingest,
            engine=engine,
        )
        self._streams[name] = handle
        # a re-ingested stream gets fresh cluster ids; stale verdicts
        # must not serve its queries
        self.service.cache.invalidate_stream(name)
        return handle

    # -- live ingest ---------------------------------------------------------
    def open_stream(
        self,
        stream: str,
        fps: float = 30.0,
        config: Optional[FocusConfig] = None,
        tune_on: Optional[ObservationTable] = None,
        index_mode: str = "lazy",
        max_live_clusters: int = 512,
        wal_store: Optional[DocumentStore] = None,
        wal_reset: bool = False,
    ) -> StreamHandle:
        """Open a continuous ingest session; queries work at any watermark.

        The live counterpart of :meth:`ingest_stream`: no observations
        are consumed yet -- feed chunks with :meth:`append` as the
        camera produces them, and run :meth:`query`/:meth:`query_all`
        at any point in between.

        Args:
            stream: the stream's name (chunks must carry the same name).
            fps: the feed's frame rate (chunks must match).
            config: ingest configuration; when None, ``tune_on`` must
                provide a GT-labelled warmup window to tune on (a live
                camera has no full table to sample, Section 4.3).
            index_mode: "lazy" (default) or "materialized", as in
                :class:`~repro.core.ingest.IngestPipeline`.
            wal_store: a document store to write-ahead journal into.
                Every appended chunk is journaled before it is applied,
                :meth:`checkpoint` commits atomic epoch-tagged
                snapshots, and :meth:`recover` resumes the session
                after a crash with state bit-identical to uninterrupted
                ingest (``docs/DURABILITY.md``).
            wal_reset: wipe the stream's previous durable state in
                ``wal_store`` first (a fresh session is a new lineage;
                without this flag, leftover state raises instead of
                being silently mixed).
        """
        if config is None:
            if tune_on is None:
                raise ValueError(
                    "open_stream needs config= or a tune_on= warmup window "
                    "(a live stream has no archive to sample)"
                )
            self.ledger.record(
                CostCategory.RETRAIN_GT,
                self.gt_model,
                len(tune_on),
                note="tuning sample",
            )
            tuner = ParameterTuner(self.gt_model, self.target, self.tuner_settings)
            tuning = tuner.tune(tune_on, stream)
            config = tuning.choose(self.policy).config
        else:
            tuning = None

        journal = None
        if wal_store is not None:
            if wal_reset:
                reset_stream(wal_store, stream)
            journal = IngestJournal(wal_store, stream, metrics=self.metrics)
        ingestor = StreamIngestor(
            config,
            stream,
            fps=fps,
            ledger=self.ledger,
            max_live_clusters=max_live_clusters,
            index_mode=index_mode,
            dispatcher=IngestDispatcher(self.cluster),
            journal=journal,
        )
        engine = QueryEngine(
            ingestor.index, ingestor.table, config.model, self.gt_model,
            ledger=self.ledger,
        )
        handle = StreamHandle(
            stream=stream,
            table=ingestor.table,
            tuning=tuning,
            config=config,
            ingest=ingestor.result,
            engine=engine,
            ingestor=ingestor,
        )
        self._streams[stream] = handle
        # a fresh session restarts cluster ids at 0; verdicts of any
        # earlier session under this name must not serve its queries
        self.service.cache.invalidate_stream(stream)
        return handle

    def append(
        self,
        stream: str,
        chunk: ObservationTable,
        watermark_s: Optional[float] = None,
    ) -> ChunkReport:
        """Push one chunk into a live session opened by :meth:`open_stream`.

        After this returns, queries against ``stream`` (including
        ``query_all`` fan-outs) answer at the new watermark.  Cached GT
        verdicts survive: growing a cluster never moves its centroid,
        so only clusters whose id is new this chunk are invalidated.
        """
        handle = self.handle(stream)
        if handle.ingestor is None:
            raise ValueError(
                "stream %r is not a live session; open it with open_stream"
                % stream
            )
        report = handle.ingestor.push(chunk, watermark_s=watermark_s)
        handle.table = handle.ingestor.table
        handle.engine.table = handle.table
        handle.ingest = handle.ingestor.result
        if report.new_clusters:
            self.service.cache.invalidate_clusters(stream, report.new_clusters)
        return report

    def recover(
        self,
        store: DocumentStore,
        streams: Optional[Sequence[str]] = None,
        configs: Optional[Mapping[str, FocusConfig]] = None,
    ) -> List[str]:
        """Resume journaled live sessions after a crash.

        For every stream with durable state in ``store`` (or the
        requested subset), the last committed checkpoint is restored and
        the journal's suffix replayed
        (:meth:`StreamIngestor.recover`), yielding live, appendable,
        queryable sessions whose state is bit-identical to uninterrupted
        ingest.  Configurations are rebuilt from the journaled session
        descriptor; streams ingested with a specialized (non-zoo) model
        need their config supplied via ``configs``.

        Returns the recovered stream names.
        """
        available = journaled_streams(store)
        wanted = available if streams is None else list(streams)
        missing = [s for s in wanted if s not in available]
        if missing:
            raise KeyError(
                "no durable stream state for: %s" % ", ".join(sorted(missing))
            )
        recovered: List[str] = []
        for name in wanted:
            config = configs.get(name) if configs else None
            ingestor = StreamIngestor.recover(
                store,
                name,
                config=config,
                ledger=self.ledger,
                dispatcher=IngestDispatcher(self.cluster),
            )
            engine = QueryEngine(
                ingestor.index, ingestor.table, ingestor.config.model,
                self.gt_model, ledger=self.ledger,
            )
            self._streams[name] = StreamHandle(
                stream=name,
                table=ingestor.table,
                tuning=None,
                config=ingestor.config,
                ingest=ingestor.result,
                engine=engine,
                ingestor=ingestor,
            )
            # cached verdicts may predate the crash; cluster ids are
            # stable across recovery, but a conservative flush keeps
            # recovery free of any cache-coherence proof burden
            self.service.cache.invalidate_stream(name)
            recovered.append(name)
        return recovered

    def _sample_slice(self, table: ObservationTable) -> ObservationTable:
        settings = self.tuner_settings
        window = min(
            settings.max_sample_seconds, table.duration_s * settings.sample_fraction
        )
        window = max(window, min(table.duration_s, 30.0))
        return table.scattered_sample(window)

    # -- query -------------------------------------------------------------
    def streams(self) -> List[str]:
        return sorted(self._streams)

    def handle(self, stream: str) -> StreamHandle:
        try:
            return self._streams[stream]
        except KeyError:
            raise KeyError("stream %r has not been ingested" % stream)

    def close_stream(self, stream: str) -> StreamHandle:
        """Detach a stream from this system and return its handle.

        The stream stops being served (queries and ``query_all``
        fan-outs no longer see it) and its cached GT verdicts are
        dropped.  Nothing durable is touched: the stream's journal,
        checkpoints, and index stay in whatever store holds them.  Live
        stream migration (``repro.fabric``) uses this to release the
        source shard's in-memory session after its state has been
        copied and fenced.
        """
        handle = self.handle(stream)
        del self._streams[stream]
        self.service.cache.invalidate_stream(stream)
        return handle

    def query(
        self,
        stream: str,
        clazz: Union[int, str],
        kx: Optional[int] = None,
        time_range: Optional[Tuple[float, float]] = None,
    ) -> QueryAnswer:
        """Query one stream for all frames containing a class.

        ``clazz`` may be a class id or a class name (e.g. ``"car"``).
        """
        handle = self.handle(stream)
        cid = class_id_of(clazz) if isinstance(clazz, str) else int(clazz)
        result = handle.engine.query(cid, kx=kx, time_range=time_range)
        metrics = handle.engine.metrics(cid, result.returned_rows, time_range)
        latency = self.coordinator.latency(self.gt_model, result.gt_inferences)
        return QueryAnswer(
            stream=stream,
            class_id=cid,
            class_name=class_name(cid) if cid >= 0 else "OTHER",
            frames=result.returned_frames,
            latency_seconds=latency,
            gt_inferences=result.gt_inferences,
            metrics=metrics,
            result=result,
        )

    # -- cross-stream serving ----------------------------------------------
    def query_all(
        self,
        clazz: Union[int, str],
        streams: Optional[Sequence[str]] = None,
        kx: Optional[int] = None,
        time_range: Optional[Tuple[float, float]] = None,
    ) -> MultiStreamAnswer:
        """Query a class across many streams in one verification round.

        Candidate centroids from every shard are deduplicated, checked
        against the verification cache, and batch-dispatched onto the
        GPU cluster's work queues; repeated or overlapping queries skip
        already-verified centroids entirely.
        """
        return self.service.query_all(
            clazz, streams=streams, kx=kx, time_range=time_range
        )

    def query_batch(
        self, requests: Sequence[QueryRequest]
    ) -> List[MultiStreamAnswer]:
        """Serve concurrent queries, coalescing their GT-CNN work."""
        return self.service.query_batch(requests)

    # -- reporting -----------------------------------------------------------
    def cost_summary(self) -> Dict[str, float]:
        """GPU-seconds per ledger category plus serving counters."""
        out = self.ledger.summary()
        out.update(self.service.counters())
        return out

    # -- persistence ---------------------------------------------------------
    def _stream_meta_doc(self, handle: StreamHandle) -> Dict:
        """The stream metadata document ``load_indexes`` cold-starts from."""
        model = handle.config.model if handle.config else None
        if isinstance(model, SpecializedClassifier):
            head = [int(c) for c in model.head_classes]
        else:
            head = handle.head_classes
        return {
            "stream": handle.stream,
            "duration_s": float(handle.table.duration_s),
            "fps": float(handle.table.fps),
            "head_classes": head,
            "num_rows": len(handle.table),
            "checksum": _table_checksum(handle.table),
            "live": handle.live,
            "watermark_s": float(handle.watermark_s),
        }

    def _write_stream_meta(self, store: DocumentStore, handle: StreamHandle) -> None:
        """Upsert the stream metadata ``load_indexes`` cold-starts from."""
        store.collection("stream-meta").upsert(
            {"stream": handle.stream}, self._stream_meta_doc(handle)
        )

    def save_indexes(self, store: DocumentStore) -> None:
        """Persist every stream's index plus the stream metadata a
        service needs to cold-start (``load_indexes``)."""
        for handle in self._streams.values():
            handle.index.to_docstore(store)
            self._write_stream_meta(store, handle)

    def checkpoint(
        self,
        store: DocumentStore,
        streams: Optional[Sequence[str]] = None,
        strict: bool = True,
    ) -> List[str]:
        """Incrementally persist streams: append cluster deltas only.

        The live-session counterpart of :meth:`save_indexes`, routed
        through :meth:`QueryService.checkpoint_streams` so every stream
        commits under its *own* epoch: a crash while checkpointing one
        stream can never corrupt a sibling's committed snapshot.

        For plain sessions each stream's index writes just the clusters
        added or grown since its last checkpoint (unchanged cluster
        documents are not rewritten) plus the stream metadata cursor;
        :meth:`load_indexes` later restores query-only access, and
        ingest cannot be resumed (clusterer state is not persisted).
        Sessions opened with ``wal_store=store`` instead commit the full
        atomic durable checkpoint -- index delta, resumable ingest
        state, stream metadata, and the epoch marker land as one staged
        swap -- which both :meth:`load_indexes` (query-only) and
        :meth:`recover` (full resumption) can restore from.

        ``strict=False`` continues past a failing stream (chaos-drill
        mode) -- only the names that committed are returned.
        """
        outcomes = self.checkpoint_outcomes(store, streams=streams, strict=strict)
        return [o.stream for o in outcomes if o.committed]

    def checkpoint_outcomes(
        self,
        store: DocumentStore,
        streams: Optional[Sequence[str]] = None,
        strict: bool = True,
    ) -> List["StreamCheckpoint"]:
        """:meth:`checkpoint` returning the full per-stream outcomes.

        Same protocol, but the caller gets every stream's
        :class:`~repro.serve.service.StreamCheckpoint` (committed epoch,
        durability, non-strict errors) instead of just the committed
        names -- what a multi-shard fabric needs to aggregate rounds.
        Unknown streams are rejected up front with one ``KeyError``
        naming *all* of them, before any stream checkpoints.
        """
        wanted = self.streams() if streams is None else list(streams)
        missing = sorted({name for name in wanted if name not in self._streams})
        if missing:
            raise KeyError("streams not ingested: %s" % ", ".join(missing))
        handles = {name: self.handle(name) for name in wanted}
        meta_docs = {
            name: self._stream_meta_doc(handle) for name, handle in handles.items()
        }
        return self.service.checkpoint_streams(
            store, handles, streams=wanted, meta_docs=meta_docs, strict=strict
        )

    def load_indexes(
        self,
        store: DocumentStore,
        streams: Optional[Sequence[str]] = None,
        tables: Optional[Mapping[str, ObservationTable]] = None,
    ) -> List[str]:
        """Cold-start: restore stream handles from persisted indexes.

        The counterpart of :meth:`save_indexes`: no tuning, no ingest
        CNN work -- the top-K index is read back from the store and a
        query engine is rebuilt over it, so queries (including
        ``query_all``) run immediately at pure query-time cost.

        The observation table (standing in for the archived video) is
        taken from ``tables`` when provided, otherwise regenerated
        deterministically from the stream's profile and the recorded
        synthesis window; a persisted checksum guards against restoring
        an index over the wrong table.

        Works for full :meth:`save_indexes` snapshots and for
        mid-ingest :meth:`checkpoint` cursors alike -- a live session's
        checkpoint restores *query-only* access to everything ingested
        up to the recorded watermark (clusterer state is not persisted,
        so continuing ingest requires a fresh :meth:`open_stream`
        session).  For a live checkpoint, pass the session's
        accumulated table via ``tables`` (a truncated window
        regenerated from the profile would cut tracks that crossed the
        watermark differently than the live feed did; the checksum
        guard catches the mismatch).

        Note: persisted indexes are materialized, so a restored engine
        may verify slightly *more* candidates than the live (lazy)
        index it was saved from -- the two index variants sample
        spurious top-K membership differently.  Returned frames are
        unaffected (GT verification rejects the extra candidates).

        Returns the names of the restored streams.
        """
        available = stored_streams(store)
        wanted = available if streams is None else list(streams)
        missing = [s for s in wanted if s not in available]
        if missing:
            raise KeyError("no persisted index for: %s" % ", ".join(sorted(missing)))

        meta = store.collection("stream-meta")
        restored: List[str] = []
        for name in wanted:
            index = TopKIndex.from_docstore(store, name)
            doc = meta.find_one({"stream": name})
            if tables is not None and name in tables:
                table = tables[name]
            elif doc is not None:
                table = generate_observations(name, doc["duration_s"], doc["fps"])
            else:
                raise KeyError(
                    "stream %r has an index but no stream-meta; pass its "
                    "table via tables=" % name
                )
            if doc is not None and "checksum" in doc:
                if (
                    len(table) != doc["num_rows"]
                    or _table_checksum(table) != doc["checksum"]
                ):
                    raise ValueError(
                        "stream %r: the reconstructed observation table does "
                        "not match the one this index was built over (e.g. a "
                        "non-default seed_salt or a transformed table); pass "
                        "the original table via tables=" % name
                    )
            head = set(doc["head_classes"]) if doc and doc["head_classes"] else None
            if head is None and doc is None and OTHER_CLASS in index.classes():
                # a specialized index without stream-meta: the head/OTHER
                # token mapping is unrecoverable, and an identity mapping
                # would silently answer tail-class queries with nothing
                raise ValueError(
                    "stream %r: index was built by a specialized model but "
                    "the store has no stream-meta to reconstruct its "
                    "head/OTHER token mapping; re-save with "
                    "FocusSystem.save_indexes" % name
                )
            if head is not None:
                token_fn = lambda cid, _head=head: (
                    cid if cid in _head else OTHER_CLASS
                )
            else:
                token_fn = lambda cid: cid
            engine = QueryEngine(
                index,
                table,
                ingest_model=None,
                gt_model=self.gt_model,
                ledger=self.ledger,
                query_token_fn=token_fn,
            )
            self._streams[name] = StreamHandle(
                stream=name,
                table=table,
                tuning=None,
                config=None,
                ingest=None,
                engine=engine,
                head_classes=sorted(head) if head is not None else None,
            )
            self.service.cache.invalidate_stream(name)
            restored.append(name)
        return restored
