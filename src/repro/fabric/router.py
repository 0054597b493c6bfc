"""Scatter-gather routing over N shards, one logical service.

:class:`FabricRouter` gives a fleet of :class:`~repro.fabric.shard.ShardNode`
shards the full single-node ``QueryService`` surface -- ``query``,
``query_all``, ``query_batch``, ``checkpoint_streams`` -- plus stream
lifecycle (``open_stream``/``append``/``recover``) and live migration.
Requests are split by the versioned placement table
(:class:`~repro.fabric.placement.PlacementTable`), executed on the
owning shards, and the per-shard answers merged.

The router is written against one contract,
:class:`~repro.fabric.shard.ShardLeg`, and never asks a leg which kind
it is.  Scatter legs are *pipelined* by one primitive, ``_scatter``:
every shard's ``*_submit`` is called before any reply is gathered, and
every reply is gathered -- value or exception -- before any failure is
acted on (``append_many``, ``query_batch`` and ``checkpoint_streams``
are policies over its outcomes; ``_retry_leg`` is the one healing
loop).  Two kinds of leg, in any mix:

* in-process :class:`~repro.fabric.shard.ShardNode` objects -- a leg
  executes at submit time, serially in this interpreter;
* :class:`~repro.fabric.worker.ShardClient` handles -- each shard is
  its own OS process, so shards ingest and verify in parallel.

**Observability.**  Every surface (``cost_summary``, ``cache_stats``,
``counters``, ``metrics_snapshot``, ``load_report``, ``gpu_depths``) is
a view over one gather of the legs' ``counters()`` documents: one call,
and over a worker leg one wire op, per shard.

**Bit-identity.**  A stream's plan, verification verdicts, returned
frames, and segment metrics are pure functions of that stream's own
state -- sibling streams only share verification *batching*, which
changes counters and latency, never verdicts.  A fabric answer's
per-stream slices are therefore bit-identical to a single-node
``QueryService`` over the same streams; the tests assert it frame by
frame in both index modes.  Merged round statistics follow scatter-
gather semantics: ``gt_inferences``/``candidates``/``cache_hits``/
``duplicates_coalesced`` sum across the shards' independent rounds,
and ``latency_seconds`` is the *max* over shard rounds (shards verify
in parallel on their own GPU clusters).
"""

from __future__ import annotations

import time
from dataclasses import replace as _dc_replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.config import FocusConfig
from repro.core.streaming import ChunkReport
from repro.core.system import QueryAnswer, StreamHandle
from repro.fabric.migration import MigrationReport, migrate_stream
from repro.fabric.placement import PlacementTable, rendezvous_shard
from repro.fabric.protocol import DeadlineExceeded, WorkerCrashed
from repro.fabric.shard import ShardLeg
from repro.obs.events import emit as _emit_event
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import finish_span, get_tracer, span, start_span
from repro.serve.cache import VerificationCache
from repro.serve.planner import QueryRequest
from repro.serve.service import (
    SERVING_COUNTER_KEYS,
    DegradedScope,
    MultiStreamAnswer,
    StreamCheckpoint,
    merge_counters,
)
from repro.storage.docstore import DocumentStore
from repro.video.classes import class_id as class_id_of
from repro.video.classes import class_name
from repro.video.synthesis import ObservationTable

#: leg failures the router may transparently heal: both guarantee the
#: command never happened durably (the mirror only advances with
#: acknowledged replies), so a restart-and-retry is idempotent -- see
#: docs/RESILIENCE.md's retry matrix
_RETRYABLE = (WorkerCrashed, DeadlineExceeded)


class FabricRouter:
    """N shards behind one logical Focus service.

    The router owns the authoritative placement table: streams opened
    or ingested *through the router* are placed (rendezvous) and
    routed; migration re-pins them.  Reaching around the router to a
    shard's system directly leaves placement stale -- adopt such
    streams at construction time (they are pinned where found) or keep
    all lifecycle calls on the router.

    ``meta_store`` optionally persists every placement version
    (:meth:`PlacementTable.save`), so a restarted router -- or a second
    one -- reloads the same mapping instead of re-deriving it.

    Over worker shards the router self-heals (``docs/RESILIENCE.md``):
    idempotent legs that die with ``WorkerCrashed``/``DeadlineExceeded``
    are transparently retried up to ``max_retries`` times against the
    worker the leg's ``ensure_alive`` respawns (``recover_configs``
    feeds the restart's WAL replay).  ``query_all`` and ``query_batch``
    additionally accept ``allow_partial=True`` to degrade instead of
    raising when a shard stays down -- the default everywhere is strict,
    and strict answers are bit-identical to a single node's.
    """

    def __init__(
        self,
        shards: Sequence[ShardLeg],
        placement: Optional[PlacementTable] = None,
        meta_store: Optional[DocumentStore] = None,
        max_retries: int = 2,
        recover_configs: Optional[Mapping[str, FocusConfig]] = None,
    ):
        self.max_retries = int(max_retries)
        self._recover_configs = recover_configs
        #: router-side fault counters, folded into ``cost_summary``'s
        #: fleet total (per-shard keys stay zero: these incidents span
        #: shards, so per-shard attribution would be arbitrary)
        self._fault_counters: Dict[str, float] = {
            "retries": 0.0,
            "partial_answers": 0.0,
        }
        #: router-side metrics (scatter-leg latency); shard registries
        #: merge into it in :meth:`metrics_snapshot`
        self.metrics = MetricsRegistry()
        #: sample walk-in query batches (requests arriving untraced) at
        #: this fabric entry point; a front door stamping its own trace
        #: upstream simply arrives pre-traced and is never re-sampled
        self.trace_walkins = True
        if not shards:
            raise ValueError("a fabric needs at least one shard")
        ids = [s.shard_id for s in shards]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate shard ids: %s" % ids)
        self._shards: Dict[str, ShardLeg] = {s.shard_id: s for s in shards}
        self.meta_store = meta_store
        if placement is None and meta_store is not None:
            # a restarted router adopts the persisted authoritative
            # mapping (pins included) instead of re-deriving placement
            placement = PlacementTable.load(meta_store)
        if placement is None:
            placement = PlacementTable.build(ids)
        # reconcile the table with the constructed fleet: streams on a
        # shard this fabric does not have are unreachable data -- refuse
        # loudly; an added (or emptied-and-removed) shard is adopted so
        # new placements rendezvous over the actual fleet, while every
        # placed stream keeps the shard its data lives on
        orphaned = sorted(
            {
                shard
                for shard in placement.assignments.values()
                if shard not in self._shards
            }
        )
        if orphaned:
            raise ValueError(
                "placement assigns streams to shards not in this fabric: %s "
                "(migrate or recover them before dropping the shard)"
                % ", ".join(orphaned)
            )
        placement = placement.adopt_shards(ids)
        # adopt streams already living on the shards (ingested before
        # this router existed): they are where they are -- record that
        # as pinned fact rather than pretending rendezvous put them there
        for shard in shards:
            for stream in shard.streams():
                if stream not in placement.assignments:
                    placement = placement.with_streams(stream)
                if placement.shard_of(stream) != shard.shard_id:
                    placement = placement.pin(stream, shard.shard_id)
        self._placement = self._commit_placement(placement)

    # -- placement -----------------------------------------------------------
    @property
    def placement(self) -> PlacementTable:
        return self._placement

    def _commit_placement(self, table: PlacementTable) -> PlacementTable:
        """Persist a placement change (version-CAS), then return it.

        Persistence comes *first*: on :class:`PlacementConflictError`
        (another router advanced the store) the exception propagates
        before this router adopts the unpersisted table, so its next
        change still carries a stale version and keeps failing the CAS
        instead of leapfrogging the other writer's mapping.
        """
        if self.meta_store is not None:
            stored = PlacementTable.load(self.meta_store)
            if stored != table:
                table.save(self.meta_store)
        return table

    def _update_placement(self, table: PlacementTable) -> None:
        if table is self._placement:
            return
        self._placement = self._commit_placement(table)

    def shard_ids(self) -> List[str]:
        return sorted(self._shards)

    def shard(self, shard_id: str) -> ShardLeg:
        try:
            return self._shards[shard_id]
        except KeyError:
            raise KeyError(
                "no shard %r in this fabric (have: %s)"
                % (shard_id, ", ".join(self.shard_ids()))
            )

    def shard_of(self, stream: str) -> ShardLeg:
        """The shard serving ``stream`` (KeyError when unplaced)."""
        return self.shard(self._placement.shard_of(stream))

    def streams(self) -> List[str]:
        return self._placement.streams()

    def _resolve_streams(self, streams: Optional[Sequence[str]]) -> List[str]:
        """Validate a requested stream set against placement.

        Unknown names raise one ``KeyError`` listing *all* of them --
        the fabric-level mirror of the planner's aggregated check, so a
        fan-out never dies on the first bad name deep inside a shard.
        """
        known = self._placement.assignments
        if streams is None:
            wanted = sorted(known)
        else:
            wanted = list(streams)
            missing = sorted({s for s in wanted if s not in known})
            if missing:
                raise KeyError(
                    "streams not ingested: %s" % ", ".join(missing)
                )
        return wanted

    def _group_by_shard(self, streams: Sequence[str]) -> Dict[str, List[str]]:
        grouped: Dict[str, List[str]] = {}
        for stream in streams:
            grouped.setdefault(self._placement.shard_of(stream), []).append(stream)
        return grouped

    # -- scatter-gather + self-healing ----------------------------------------
    def _scatter(self, legs, healable=(), opened=None):
        """Run ``(shard, op, kwargs)`` legs pipelined: every leg's
        ``{op}_submit`` is called before any reply is gathered, then
        every reply is gathered in submission order -- a raise at submit
        or at ``result()`` becomes that leg's error, so no reply is
        abandoned and every acknowledged delta reaches the mirror.
        After the drain, the first error in submission order that is
        not ``healable`` is re-raised (an application error is never
        retried); otherwise one ``(value, error)`` per leg comes back.
        ``opened(shard, kwargs)`` runs just before a leg's submit and
        returns what to call just after its gather (a per-leg span)."""
        flights = []
        for shard, op, kwargs in legs:
            closed = opened(shard, kwargs) if opened is not None else None
            reply = error = None
            try:
                reply = getattr(shard, op + "_submit")(**kwargs)
            except Exception as exc:
                error = exc
            flights.append((reply, error, closed))
        outcomes = []
        for reply, error, closed in flights:
            value = None
            if error is None:
                try:
                    value = reply.result()
                except Exception as exc:
                    error = exc
            if closed is not None:
                closed()
            outcomes.append((value, error))
        for _, error in outcomes:
            if error is not None and not isinstance(error, healable):
                raise error
        return outcomes

    def _failover(self, shard: ShardLeg) -> bool:
        """Heal one failed leg.  False when a retry is pointless: an
        in-process shard, or a worker whose breaker is tripped."""
        return shard.ensure_alive(self._recover_configs)

    def _retry_leg(self, shard, fn, failed=None):
        """Run one idempotent leg, transparently retried (up to
        ``max_retries``) against the respawned worker when it dies or
        blows its deadline.  Both failures guarantee the command never
        happened durably, so the retry cannot double-apply.  ``failed``
        is such a failure a scatter already met on this leg: running
        ``fn`` at all is then the first retry."""
        attempt = 0
        while True:
            if failed is None:
                try:
                    return fn()
                except _RETRYABLE as exc:
                    failed = exc
            attempt += 1
            if attempt > self.max_retries or not self._failover(shard):
                raise failed
            self._fault_counters["retries"] += 1
            failed = None

    # -- stream lifecycle ----------------------------------------------------
    def ingest_stream(
        self, stream: Union[str, ObservationTable], **kwargs
    ) -> StreamHandle:
        """Place (rendezvous) and one-shot ingest a stream on its shard.

        Over in-process shards this returns the live ``StreamHandle``;
        over worker shards it returns the wire-safe
        :class:`~repro.fabric.protocol.StreamHandleInfo` summary (live
        handles are worker-local).
        """
        name = stream.stream if isinstance(stream, ObservationTable) else stream
        shard, placed = self._place(name)
        handle = shard.ingest_stream(stream, **kwargs)
        self._update_placement(placed)
        return handle

    def open_stream(self, stream: str, **kwargs) -> StreamHandle:
        """Place (rendezvous) and open a live session on the owning shard.

        Durable by default (the shard's own store journals the session)
        -- see :meth:`ShardNode.open_stream`.
        """
        shard, placed = self._place(stream)
        handle = shard.open_stream(stream, **kwargs)
        self._update_placement(placed)
        return handle

    def _place(self, stream: str) -> Tuple[ShardLeg, PlacementTable]:
        """The stream's (owning shard, placement-after) -- computed but
        NOT committed: callers install the returned table only after the
        shard call succeeds, so a failed open/ingest never leaves a
        phantom placed-but-unserved stream behind (which would poison
        every later fleet-wide fan-out)."""
        placed = self._placement.with_streams(stream)
        return self.shard(placed.shard_of(stream)), placed

    def append(
        self,
        stream: str,
        chunk: ObservationTable,
        watermark_s: Optional[float] = None,
    ) -> ChunkReport:
        """Append one chunk: :meth:`append_many` of one, so retried
        after failover and at-most-once like every round."""
        watermarks = None if watermark_s is None else {stream: watermark_s}
        return self.append_many([(stream, chunk)], watermarks)[0]

    def append_many(
        self,
        chunks: Sequence[Tuple[str, ObservationTable]],
        watermarks: Optional[Mapping[str, float]] = None,
    ) -> List[ChunkReport]:
        """Append a batch of chunks, scattered to their owning shards.

        ``chunks`` is ``(stream, chunk)`` pairs; reports come back in
        input order.  Per stream the input order is preserved (a shard
        executes its legs FIFO); across *shards* the appends overlap --
        every chunk is submitted before any report is gathered, which
        over worker-process shards is the fabric's parallel ingest path.

        Mirror deltas are coalesced per round: every pipelined leg
        except a shard's last is submitted with ``defer_delta`` so the
        round ships one cumulative store delta per shard instead of one
        per chunk (worker-shard wire tax; reports are still per chunk).

        Failover granularity is a shard's *whole round*: deferred legs
        ship no delta, so a worker death anywhere in a shard's round
        means the mirror holds none of it -- after the respawn every one
        of that shard's legs is replayed (in order, plain appends) and
        the reports land at their original indices; an unacknowledged
        append never reached the mirror (and the WAL's journal dedup
        collapses a same-seq duplicate), so that is at-most-once.  A
        refused chunk is never retried: every round is drained first,
        so the other shards' chunks are applied and mirrored.
        """
        self._resolve_streams([stream for stream, _ in chunks])
        #: per chunk: (owning shard, its ``append`` keywords)
        plan = [
            (
                self.shard_of(stream),
                {
                    "stream": stream,
                    "chunk": chunk,
                    "watermark_s": watermarks.get(stream) if watermarks else None,
                },
            )
            for stream, chunk in chunks
        ]
        #: shard id -> the indices of its round, in submission order
        rounds: Dict[str, List[int]] = {}
        for i, (shard, _) in enumerate(plan):
            rounds.setdefault(shard.shard_id, []).append(i)
        final = {indices[-1] for indices in rounds.values()}
        outcomes = self._scatter(
            [
                (shard, "append", dict(kwargs, defer_delta=i not in final))
                for i, (shard, kwargs) in enumerate(plan)
            ],
            healable=_RETRYABLE,
        )
        reports = [report for report, _ in outcomes]
        for indices in rounds.values():
            died = [outcomes[i][1] for i in indices if outcomes[i][1] is not None]
            if not died:
                continue
            shard = plan[indices[0]][0]
            for i in indices:
                reports[i] = None

            def replay():
                # each acknowledged plain append is mirrored, so a
                # replay that dies too resumes after it
                for i in indices:
                    if reports[i] is None:
                        reports[i] = shard.append(**plan[i][1])

            self._retry_leg(shard, replay, failed=died[0])
        return reports

    def recover(
        self, configs: Optional[Mapping[str, "FocusConfig"]] = None
    ) -> List[str]:
        """Resume every shard's journaled sessions (fleet restart).

        ``configs`` (stream -> FocusConfig) is forwarded to each shard
        for streams whose specialized model the zoo cannot rebuild.
        """
        recovered: List[str] = []
        for sid in self.shard_ids():
            recovered.extend(self.shard(sid).recover(configs=configs))
        for stream in recovered:
            # a recovered stream lives where its durable state lives;
            # pin only when that disagrees with rendezvous (mirror of
            # construction-time adoption -- a needless pin would exempt
            # the stream from future rebalancing)
            holder = self._shard_holding(stream)
            placed = self._placement.with_streams(stream)
            if placed.shard_of(stream) != holder:
                placed = placed.pin(stream, holder)
            self._update_placement(placed)
        return sorted(recovered)

    def _shard_holding(self, stream: str) -> str:
        for sid in self.shard_ids():
            if stream in self.shard(sid).streams():
                return sid
        raise KeyError("stream %r is not held by any shard" % stream)

    # -- serving (the QueryService surface) ----------------------------------
    def query(
        self,
        stream: str,
        clazz: Union[int, str],
        kx: Optional[int] = None,
        time_range: Optional[Tuple[float, float]] = None,
    ) -> QueryAnswer:
        """Single-stream query, routed to the owning shard (retried
        after failover: queries are read-only, hence idempotent)."""
        self._resolve_streams([stream])
        shard = self.shard_of(stream)
        return self._retry_leg(
            shard,
            lambda: shard.query(stream, clazz, kx=kx, time_range=time_range),
        )

    def query_all(
        self,
        clazz: Union[int, str],
        streams: Optional[Sequence[str]] = None,
        kx: Optional[int] = None,
        time_range: Optional[Tuple[float, float]] = None,
        allow_partial: bool = False,
    ) -> MultiStreamAnswer:
        """One class query scattered across every owning shard.

        ``allow_partial=True`` degrades instead of raising when shards
        stay down through the retry budget: the answer carries the
        surviving streams' (bit-identical) slices plus a ``degraded``
        marker naming exactly the lost shards and streams.
        """
        request = QueryRequest(
            clazz=clazz, streams=streams, kx=kx, time_range=time_range
        )
        return self.query_batch([request], allow_partial=allow_partial)[0]

    def query_batch(
        self,
        requests: Sequence[QueryRequest],
        allow_partial: bool = False,
    ) -> List[MultiStreamAnswer]:
        """Serve concurrent queries, scatter-gathered per shard.

        Each shard runs one verification round over the sub-batch of
        requests that touch its streams (in-flight dedup, verdict
        cache, GPU batching -- the single-node machinery, reused as
        is); the per-shard answers are then merged per request.

        A worker leg that dies or blows its deadline is retried against
        the respawned worker (queries are idempotent).  When a shard
        stays down: strict mode (default) raises; ``allow_partial=True``
        drops the lost legs and marks every touched answer ``degraded``
        with exactly the lost shards and their requested streams.
        """
        if not requests:
            return []
        if self.trace_walkins and all(r.trace is None for r in requests):
            # walk-in batch at a fabric entry point: consult the
            # process-global sampler exactly once for the whole batch
            ctx = get_tracer().sample()
            if ctx is not None:
                requests = [_dc_replace(r, trace=ctx) for r in requests]
        # scatter: per shard, (request indices, the sub-requests whose
        # streams it owns); every other field rides to the leg as is --
        # QoS, so each shard's round batches in the same priority-then-
        # deadline order, and the trace context (over workers, the wire)
        per_shard: Dict[str, Tuple[List[int], List[QueryRequest]]] = {}
        for idx, request in enumerate(requests):
            wanted = self._resolve_streams(request.streams)
            if not wanted:
                raise ValueError("no streams to query; ingest or open some first")
            for sid, subset in self._group_by_shard(wanted).items():
                idxs, subs = per_shard.setdefault(sid, ([], []))
                idxs.append(idx)
                subs.append(_dc_replace(request, streams=subset))
        legs = [
            (self.shard(sid), "query_batch", {"requests": subs})
            for sid, (_, subs) in sorted(per_shard.items())
        ]
        partial: List[List[MultiStreamAnswer]] = [[] for _ in requests]
        #: per request: lost shard -> the streams it owed that request
        lost_by_idx: List[Dict[str, Tuple[str, ...]]] = [{} for _ in requests]
        batch_ctx = next(
            (r.trace for r in requests if r.trace is not None), None
        )
        with span("router:query_batch", batch_ctx, n=len(requests)) as root:

            def opened(shard, kwargs):
                # one manual span per scatter leg (started at submit,
                # finished at gather -- the pipelined window a `with`
                # block cannot bracket); sub-requests carry its child
                # context so worker-side spans parent under the leg
                subs = kwargs["requests"]
                handle, leg_ctx = start_span(
                    "router:scatter", root, shard=shard.shard_id, n=len(subs)
                )
                if leg_ctx is not None:
                    kwargs["requests"] = [
                        _dc_replace(sub, trace=leg_ctx)
                        if sub.trace is not None
                        else sub
                        for sub in subs
                    ]
                started = time.perf_counter()

                def closed():
                    finish_span(handle)
                    self.metrics.observe(
                        "router.scatter_s", time.perf_counter() - started
                    )

                return closed

            outcomes = self._scatter(legs, healable=_RETRYABLE, opened=opened)
            for (shard, _, kwargs), (answers, died) in zip(legs, outcomes):
                sid, subs = shard.shard_id, kwargs["requests"]
                idxs = per_shard[sid][0]
                if died is not None:
                    # a dead worker or a blown deadline: re-run the leg
                    # on the respawned worker (a plain call: nothing is
                    # left to pipeline against), or drop it
                    try:
                        answers = self._retry_leg(
                            shard, lambda: shard.query_batch(subs), failed=died
                        )
                    except _RETRYABLE:
                        if not allow_partial:
                            raise
                        # record exactly what each touched request lost
                        for idx, sub in zip(idxs, subs):
                            lost_by_idx[idx][sid] = tuple(sub.streams)
                        continue
                for idx, answer in zip(idxs, answers):
                    partial[idx].append(answer)
        out: List[MultiStreamAnswer] = []
        for idx, parts in enumerate(partial):
            missing = lost_by_idx[idx]
            degraded = None
            if missing:
                degraded = DegradedScope(
                    shards=tuple(sorted(missing)),
                    streams=tuple(
                        sorted({s for streams in missing.values() for s in streams})
                    ),
                )
                self._fault_counters["partial_answers"] += 1
                _emit_event(
                    "router.partial_answer",
                    shards=list(degraded.shards),
                    streams=list(degraded.streams),
                    trace_id=(batch_ctx or {}).get("trace_id"),
                )
            if parts:
                out.append(self._merge_answers(parts, degraded))
            else:
                # every leg of this request was lost: an empty but
                # well-shaped degraded answer (class resolved locally)
                out.append(self._empty_answer(requests[idx], degraded))
        return out

    @staticmethod
    def _empty_answer(
        request: QueryRequest, degraded: Optional[DegradedScope]
    ) -> MultiStreamAnswer:
        cid = (
            class_id_of(request.clazz)
            if isinstance(request.clazz, str)
            else int(request.clazz)
        )
        return MultiStreamAnswer(
            class_id=cid,
            class_name=class_name(cid) if cid >= 0 else "OTHER",
            slices={},
            latency_seconds=0.0,
            gt_inferences=0,
            candidates=0,
            cache_hits=0,
            duplicates_coalesced=0,
            degraded=degraded,
        )

    @staticmethod
    def _merge_answers(
        parts: List[MultiStreamAnswer],
        degraded: Optional[DegradedScope] = None,
    ) -> MultiStreamAnswer:
        """Merge one request's per-shard answers into a fleet answer."""
        slices = {}
        for part in parts:
            slices.update(part.slices)
        return MultiStreamAnswer(
            class_id=parts[0].class_id,
            class_name=parts[0].class_name,
            slices=slices,
            # shards verify in parallel on their own clusters: the round
            # takes as long as its slowest shard
            latency_seconds=max(p.latency_seconds for p in parts),
            gt_inferences=sum(p.gt_inferences for p in parts),
            candidates=sum(p.candidates for p in parts),
            cache_hits=sum(p.cache_hits for p in parts),
            duplicates_coalesced=sum(p.duplicates_coalesced for p in parts),
            degraded=degraded,
        )

    # -- durability ----------------------------------------------------------
    def checkpoint_streams(
        self,
        streams: Optional[Sequence[str]] = None,
        strict: bool = True,
    ) -> List[StreamCheckpoint]:
        """Checkpoint streams across the fleet, each into its own
        shard's store under its own epoch; outcomes sorted by stream
        (none on a fleet with no streams yet).  Fail-loud: no leg is
        retried, and the first error is re-raised once every shard's
        leg has been gathered."""
        grouped = self._group_by_shard(self._resolve_streams(streams))
        outcomes = self._scatter(
            [
                (self.shard(sid), "checkpoint", {"streams": names, "strict": strict})
                for sid, names in sorted(grouped.items())
            ]
        )
        return sorted(
            (o for committed, _ in outcomes for o in committed),
            key=lambda o: o.stream,
        )

    def checkpoint(
        self,
        streams: Optional[Sequence[str]] = None,
        strict: bool = True,
    ) -> List[str]:
        """The committed stream names of a :meth:`checkpoint_streams` round."""
        return [
            o.stream
            for o in self.checkpoint_streams(streams=streams, strict=strict)
            if o.committed
        ]

    # -- migration -----------------------------------------------------------
    def migrate(
        self, stream: str, target_shard_id: str, checkpoint: bool = True
    ) -> MigrationReport:
        """Move a live stream to another shard, then re-pin placement.

        The data-plane move is :func:`~repro.fabric.migration.migrate_stream`
        (checkpoint -> copy -> recover -> fence) between any two legs;
        on success the placement table pins the stream to its new shard
        under a new version, persisted to ``meta_store`` when configured.
        """
        report = migrate_stream(
            self.shard_of(stream),
            self.shard(target_shard_id),
            stream,
            checkpoint=checkpoint,
        )
        # pin only when the move disagrees with rendezvous: a migration
        # onto the stream's natural winner leaves it rebalance-eligible
        # (same invariant as construction-time adoption and recover())
        natural = rendezvous_shard(stream, self._placement.shards)
        self._update_placement(
            self._placement.assign(
                stream, target_shard_id, pin=natural != target_shard_id
            )
        )
        return report

    # -- observability -------------------------------------------------------
    def _gather_counters(self) -> Dict[str, Dict[str, object]]:
        """Every shard's ``counters()`` document, one call per leg.  All
        six public surfaces below are projections or merges of this."""
        return {
            sid: self._retry_leg(shard, shard.counters)
            for sid, shard in sorted(self._shards.items())
        }

    def _metrics_view(self, docs) -> Dict[str, object]:
        """``metrics_snapshot(per_shard=True)`` of gathered documents."""
        per = {sid: doc["metrics"] for sid, doc in docs.items()}
        total = MetricsRegistry.merge_snapshots(
            [*per.values(), self.metrics.snapshot()]
        )
        return {"total": total, "per_shard": per}

    def cost_summary(self, per_shard: bool = False):
        """The fleet's merged cost/serving totals.

        Every key of a shard's ``cost`` section is a summable total
        (GPU-seconds per ledger category, serving counters, journal,
        wire and fault counters), so the fleet view is a per-key sum.
        With ``per_shard=True`` the answer is ``{"total": ...,
        "per_shard": {shard_id: ...}, "histograms": ...}`` -- the
        breakdown operators page shards with.
        """
        docs = self._gather_counters()
        per = {sid: doc["cost"] for sid, doc in docs.items()}
        # router-side incidents (fleet-scoped, not attributable to one
        # shard) land in the total on top of the shards' zeros
        total = merge_counters([*per.values(), self._fault_counters])
        if per_shard:
            # histograms ride as a sibling section: "total"/"per_shard"
            # stay flat float dicts (summable totals, the shape the
            # fleet-sum invariant is tested against)
            snaps = self._metrics_view(docs)
            return {
                "total": total,
                "per_shard": per,
                "histograms": {
                    "total": MetricsRegistry.summarize(snaps["total"]),
                    "per_shard": {
                        sid: MetricsRegistry.summarize(snapshot)
                        for sid, snapshot in snaps["per_shard"].items()
                    },
                },
            }
        return total

    def cache_stats(self, per_shard: bool = False):
        """Fleet verification-cache statistics.

        Hit/miss/eviction/invalidation counters and resident sizes sum
        across shards; the hit rate is recomputed from the merged
        totals (:meth:`VerificationCache.merge_stats`).
        """
        per = {sid: doc["cache"] for sid, doc in self._gather_counters().items()}
        total = VerificationCache.merge_stats(per.values())
        if per_shard:
            return {"total": total, "per_shard": per}
        return total

    def counters(self) -> Dict[str, float]:
        """The fleet's merged serving counters (``QueryService.counters``
        summed under their declared semantics)."""
        return merge_counters(
            [
                {key: doc["cost"][key] for key in SERVING_COUNTER_KEYS}
                for doc in self._gather_counters().values()
            ]
        )

    def metrics_snapshot(self, per_shard: bool = False):
        """The fleet's merged metrics-registry snapshot.

        Latency histograms merge by bucket
        counts (:meth:`MetricsRegistry.merge_snapshots`), so fleet
        p50/p95/p99 come from the *combined* distribution, not an
        average of per-shard quantiles.  The router's own registry
        (scatter-leg latency) folds into the total; with
        ``per_shard=True`` the answer also carries the raw per-shard
        snapshots.
        """
        view = self._metrics_view(self._gather_counters())
        return view if per_shard else view["total"]

    def load_report(self) -> Dict[str, Dict[str, float]]:
        """Per-shard load snapshot -- the rebalancer's input signal.

        One flat float dict per shard: placement weight (streams),
        committed GPU work and queue depth, and the count/p95 of its
        dispatch and journal-append histograms.
        """
        report: Dict[str, Dict[str, float]] = {}
        for sid, doc in self._gather_counters().items():
            summaries = MetricsRegistry.summarize(doc["metrics"])
            dispatch = summaries.get("scheduler.dispatch_s", {})
            append = summaries.get("journal.append_s", {})
            report[sid] = {
                "streams": float(doc["streams"]),
                "live_streams": float(doc["live-streams"]),
                "busy_gpu_seconds": float(doc["gpu"]["busy-gpu-seconds"]),
                "gpu_queue_depth": float(doc["gpu"]["queue-depth"]),
                "dispatches": float(dispatch.get("count", 0.0)),
                "dispatch_p95_s": float(dispatch.get("p95_s", 0.0)),
                "journal_appends": float(append.get("count", 0.0)),
                "journal_append_p95_s": float(append.get("p95_s", 0.0)),
            }
        return report

    def gpu_depths(self) -> Dict[str, float]:
        """Per-shard committed GPU work (monotone ``busy-gpu-seconds``).

        The front door's ingest-backpressure signal (``docs/QOS.md``):
        sampled periodically, differenced into a leaky-bucket backlog
        estimate per shard, and compared against the high-water mark.
        Works identically over in-process nodes and worker clients (one
        wire round-trip per shard there -- sample on an interval, not
        per admission).
        """
        return {
            sid: float(doc["gpu"]["busy-gpu-seconds"])
            for sid, doc in self._gather_counters().items()
        }
