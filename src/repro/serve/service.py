"""The multi-stream query service (Section 5 deployment, served).

Ties the serving layers together: the planner fans each query out into
per-stream shard plans, the batch scheduler coalesces all in-flight
shards' centroids into deduplicated, cached, GPU-batched verification
work, and the service assembles per-stream answers: frames and cost.
Accuracy is graded offline (:func:`repro.core.metrics.grade`), never
here.  ``query_batch`` is the multi-tenant entry point -- every
request in the batch shares one verification round, so concurrent
queries over overlapping video pay for the GT-CNN once.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.cnn.model import ClassifierModel
from repro.core.costmodel import GPULedger
from repro.core.query import QueryEngine, QueryResult
from repro.obs.metrics import MetricsRegistry, counter_kinds, register_counters
from repro.obs.trace import get_tracer, span
from repro.sched.cluster import QueryCoordinator
from repro.serve.cache import VerificationCache
from repro.serve.planner import QueryPlan, QueryPlanner, QueryRequest
from repro.serve.scheduler import BatchVerificationScheduler, VerificationReport
from repro.storage.docstore import DocumentStore
from repro.storage.journal import JournalError, committed_checkpoint
from repro.video.classes import class_name


#: merge semantics of :meth:`QueryService.counters` keys when values
#: from many nodes (shards) are aggregated into one fleet view:
#: ``"sum"`` marks a monotone total that adds across nodes;
#: ``"gauge"`` marks a point-in-time level that is only meaningful per
#: node and must be reported per shard (or recomputed), never summed.
#: Every key ``counters()`` returns MUST be classified here -- the
#: fabric's aggregation (``repro.fabric.router``) and the serve tests
#: enforce the invariant, so an unclassified counter cannot silently
#: get summed (or dropped) by a multi-shard merge.
#:
#: This is the *live* kind registry from :mod:`repro.obs.metrics`
#: (``kind_registry("counters")``): each key is declared exactly once,
#: at the module that owns it -- the serve keys below, the data-plane
#: wire keys and fault-tolerance keys in :mod:`repro.fabric.protocol`
#: (``WIRE_COUNTER_KEYS`` / ``FAULT_COUNTER_KEYS``), the admission
#: keys in :mod:`repro.serve.frontdoor`, the GPU-ledger categories in
#: :mod:`repro.core.costmodel`, and the WAL totals in
#: :mod:`repro.fabric.shard` -- and appears here the moment its owning
#: module imports.
COUNTER_KINDS: Dict[str, str] = counter_kinds()

#: the keys of :meth:`QueryService.counters`
SERVING_COUNTER_KEYS = register_counters(
    "sum",
    "verification-cache-hits",
    "verification-cache-misses",
    "verification-cache-invalidations",
    "queries-served",
)


def merge_counters(per_node: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Merge many nodes' ``counters()`` dicts into one fleet total.

    ``"sum"``-classified keys add across nodes; ``"gauge"`` keys are
    skipped (a fleet-level gauge is meaningless -- read them from the
    per-node breakdown instead).  Unclassified keys raise ``KeyError``
    so a new counter cannot be aggregated with unstated semantics.
    """
    merged: Dict[str, float] = {}
    for counters in per_node:
        for key, value in counters.items():
            kind = COUNTER_KINDS.get(key)
            if kind is None:
                raise KeyError(
                    "counter %r has no merge semantics; classify it in "
                    "repro.serve.service.COUNTER_KINDS" % key
                )
            if kind == "sum":
                merged[key] = merged.get(key, 0.0) + float(value)
    return merged


@dataclass(frozen=True)
class StreamCheckpoint:
    """Outcome of one stream's slot in a multi-stream checkpoint round.

    ``epoch`` is the committed per-stream epoch.  ``error`` is set only
    in non-strict rounds, for streams whose checkpoint attempt raised.
    A failure can land *after* the atomic commit (e.g. during journal
    compaction), so an errored outcome still reports the store's
    actual committed epoch: ``epoch`` is the authoritative answer to
    "did this round's snapshot land", ``committed`` to "does the
    stream's durable state reflect this round".
    """

    stream: str
    epoch: Optional[int]
    error: Optional[str] = None
    #: whether this round's snapshot is the store's committed state
    #: (True for clean commits and for post-commit failures alike)
    landed: bool = True

    @property
    def committed(self) -> bool:
        return self.landed


@dataclass(frozen=True)
class DegradedScope:
    """What a partial answer is missing (see ``docs/RESILIENCE.md``).

    Attached to :class:`MultiStreamAnswer` when a fabric router ran
    with ``allow_partial=True`` and some shards stayed down through the
    retry budget: ``shards`` names exactly the lost shards and
    ``streams`` the requested streams that lived on them -- their
    slices are absent, every surviving slice is still bit-identical to
    the strict answer's.  A ``None`` marker means the answer is whole.
    """

    shards: Tuple[str, ...]
    streams: Tuple[str, ...]


@dataclass
class MultiStreamAnswer:
    """A cross-stream query answer with serving statistics attached.

    ``gt_inferences`` counts the GT-CNN classifications *this* query
    contributed to its verification round -- candidates served from the
    cache or coalesced with other in-flight queries cost nothing.

    ``cache_hits`` and ``duplicates_coalesced`` are *round-level*
    statistics: when several requests are served by one ``query_batch``
    round, every answer of that round reports the same values (a cached
    or deduplicated centroid benefits all queries that asked for it, so
    per-query attribution would be arbitrary).  Do not sum them across
    a batch.
    """

    class_id: int
    class_name: str
    slices: Dict[str, QueryResult]
    latency_seconds: float
    gt_inferences: int
    candidates: int
    cache_hits: int
    duplicates_coalesced: int
    #: set only by a fabric router's ``allow_partial=True`` path when
    #: shards stayed down: names what is missing; None -> whole answer
    degraded: Optional[DegradedScope] = None

    @property
    def is_degraded(self) -> bool:
        return self.degraded is not None

    @property
    def streams(self) -> List[str]:
        return sorted(self.slices)

    @property
    def total_frames(self) -> int:
        return sum(len(r.frames) for r in self.slices.values())


class QueryService:
    """Multi-tenant serving facade over a set of per-stream engines."""

    def __init__(
        self,
        engines: Callable[[], Mapping[str, QueryEngine]],
        gt_model: ClassifierModel,
        coordinator: QueryCoordinator,
        ledger: GPULedger,
        cache_capacity: int = 4096,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.planner = QueryPlanner(engines)
        self.cache = VerificationCache(cache_capacity)
        self.scheduler = BatchVerificationScheduler(
            coordinator, gt_model, ledger, cache=self.cache,
            metrics=self.metrics,
        )
        self.gt_model = gt_model
        self.queries_served = 0
        #: whether this service is a trace *entry point* -- True for a
        #: standalone ``FocusSystem`` (walk-in queries sample here), set
        #: False by ``ShardNode``, whose router/front door owns sampling
        #: (a scatter leg must never start its own root trace)
        self.trace_walkins = True

    # -- serving -----------------------------------------------------------
    def query_all(
        self,
        clazz: Union[int, str],
        streams: Optional[Sequence[str]] = None,
        kx: Optional[int] = None,
        time_range: Optional[Tuple[float, float]] = None,
    ) -> MultiStreamAnswer:
        """Answer one class query across many streams."""
        request = QueryRequest(
            clazz=clazz, streams=streams, kx=kx, time_range=time_range
        )
        return self.query_batch([request])[0]

    def query_batch(
        self, requests: Sequence[QueryRequest]
    ) -> List[MultiStreamAnswer]:
        """Serve concurrent queries through one verification round.

        All requests' candidate centroids are deduplicated and batched
        together before any GT-CNN work is scheduled, so overlapping
        queries share cost the way the paper's idle-worker
        parallelization shares GPUs.
        """
        if not requests:
            return []
        # walk-in sampling: a batch that never met a front door or
        # router can still be traced; a scatter leg's sub-requests
        # either already carry their root's context or were left
        # unsampled by it (trace_walkins is False on shard services)
        if self.trace_walkins and all(r.trace is None for r in requests):
            ctx = get_tracer().sample()
            if ctx is not None:
                requests = [replace(r, trace=ctx) for r in requests]
        batch_ctx = next((r.trace for r in requests if r.trace is not None), None)
        with span("service:query_batch", batch_ctx, n=len(requests)) as child:
            if child is not None:
                requests = [
                    replace(r, trace=child) if r.trace is not None else r
                    for r in requests
                ]
            plans = self.planner.plan_batch(requests)
            report = self.scheduler.verify(plans)
            # fresh verifications are attributed to the first query (and
            # shard) that requested each centroid, so per-query
            # gt_inferences sum to the round's fresh total
            charged: set = set()
            answers = [self._assemble(plan, report, charged) for plan in plans]
        self.queries_served += len(requests)
        return answers

    def _assemble(
        self, plan: QueryPlan, report: VerificationReport, charged: set
    ) -> MultiStreamAnswer:
        """QT4 per shard, with verdicts from the shared round."""
        slices: Dict[str, QueryResult] = {}
        per_inference = self.gt_model.cost_seconds(1)
        plan_fresh = 0
        for shard in plan.shards:
            matched = [
                cid
                for cid in shard.candidates
                if report.verdicts[(shard.stream, cid)] == plan.class_id
            ]
            rows, frames = shard.engine.collect(matched, time_range=shard.time_range)
            # attribute each fresh verification to the first shard (in
            # plan order) that requested it, so per-stream costs sum to
            # the round total
            shard_fresh = [
                k for k in shard.keys() if k in report.fresh and k not in charged
            ]
            charged.update(shard_fresh)
            plan_fresh += len(shard_fresh)
            slices[shard.stream] = QueryResult(
                class_id=plan.class_id,
                token=shard.token,
                candidate_clusters=shard.candidates,
                matched_clusters=matched,
                returned_rows=rows,
                returned_frames=frames,
                gt_inferences=len(shard_fresh),
                gpu_seconds=len(shard_fresh) * per_inference,
            )
        return MultiStreamAnswer(
            class_id=plan.class_id,
            class_name=class_name(plan.class_id),
            slices=slices,
            latency_seconds=report.latency_seconds,
            gt_inferences=plan_fresh,
            candidates=plan.num_candidates,
            cache_hits=report.cache_hits,
            duplicates_coalesced=report.duplicates_coalesced,
        )

    # -- durability ---------------------------------------------------------
    def checkpoint_streams(
        self,
        store: DocumentStore,
        handles: Mapping[str, Any],
        streams: Optional[Sequence[str]] = None,
        strict: bool = True,
    ) -> List["StreamCheckpoint"]:
        """Checkpoint many durable live sessions, one independent epoch
        per stream.

        Each stream's checkpoint is its own atomic unit, committed
        through the staged epoch-tagged protocol
        (:meth:`~repro.core.streaming.StreamIngestor.checkpoint`).
        Because staging and the commit marker are per stream, a crash --
        or an injected fault -- while checkpointing stream A can never
        leave sibling B's committed snapshot half-written: B either
        committed its own epoch earlier in the loop or still stands at
        its previous one.  A round naming any stream without a journal
        is refused with one :class:`~repro.storage.journal.JournalError`
        naming all of them, before any stream checkpoints.

        ``strict=True`` (default) re-raises the first failure after
        discarding its staging; ``strict=False`` records the failure in
        the returned report and continues with the remaining siblings
        (the chaos-drill mode).
        """
        wanted = sorted(handles) if streams is None else list(streams)
        ingestors = {name: handles[name].ingestor for name in wanted}
        unjournaled = sorted(
            {
                name
                for name, ingestor in ingestors.items()
                if ingestor is None or ingestor.journal is None
            }
        )
        if unjournaled:
            raise JournalError(
                "streams without a write-ahead journal cannot checkpoint "
                "(open them with wal_store=, or export them with "
                "save_indexes): %s" % ", ".join(unjournaled)
            )
        outcomes: List[StreamCheckpoint] = []
        for name in wanted:
            ingestor = ingestors[name]
            epoch_before = ingestor.committed_epoch
            started = _time.perf_counter()
            try:
                epoch = ingestor.checkpoint(store)
                outcomes.append(StreamCheckpoint(stream=name, epoch=epoch))
                self.metrics.observe(
                    "checkpoint.commit_s", _time.perf_counter() - started
                )
            except Exception as exc:
                if strict:
                    raise
                # the failed stream's staging is garbage; drop it so the
                # next sibling stages from clean committed state
                store.discard_staged()
                # a failure can land *after* the atomic commit (journal
                # compaction): report the store's actual committed epoch
                # so operators and retry logic key off the truth
                marker = committed_checkpoint(store, name)
                outcomes.append(
                    StreamCheckpoint(
                        stream=name,
                        epoch=marker["epoch"] if marker else None,
                        error=str(exc),
                        landed=ingestor.committed_epoch > epoch_before,
                    )
                )
        return outcomes

    # -- introspection -----------------------------------------------------
    def cache_stats(self) -> Dict[str, float]:
        return self.cache.stats()

    def counters(self) -> Dict[str, float]:
        """Serving counters merged into ``FocusSystem.cost_summary()``.

        Every key is classified in :data:`COUNTER_KINDS` (summable
        total vs per-node gauge) so multi-shard aggregation
        (:func:`merge_counters`) has stated semantics for each value.
        """
        return {
            "verification-cache-hits": float(self.cache.hits),
            "verification-cache-misses": float(self.cache.misses),
            "verification-cache-invalidations": float(self.cache.invalidations),
            "queries-served": float(self.queries_served),
        }
