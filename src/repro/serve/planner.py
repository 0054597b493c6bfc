"""Cross-stream query planning (service-level QT2).

A cross-stream query ("find every frame with a bus on these cameras
between t0 and t1") fans out into one *shard plan* per stream: the
stream's top-K index is consulted for candidate clusters (cheap, CPU
only), and the per-shard candidate lists are handed to the batch
verification scheduler, which owns all GT-CNN work.  Planning touches
no GPU, so a service can plan many concurrent queries before deciding
how to batch their verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.query import QueryEngine
from repro.video.classes import class_id as class_id_of


#: default QoS class for requests that never met a front door: between
#: interactive (0) and bulk (larger); see ``docs/QOS.md``
DEFAULT_PRIORITY = 1


@dataclass(frozen=True)
class QueryRequest:
    """One user query before planning.

    Attributes:
        clazz: class id or name (e.g. ``"car"``).
        streams: streams to search; None means every ingested stream.
        kx: dynamic query-time K, clamped per shard to that index's K.
        time_range: optional [start, end) seconds restriction.
        priority: QoS class (lower is more urgent); stamped by the
            front door from the tenant's declared budget.  Affects only
            verification *batch formation order*, never the answer.
        deadline_s: optional soft deadline (seconds) used to order
            batch formation within a priority class; not an SLA and
            never alters the answer.
        trace: optional trace context (``repro.obs.trace``) stamped by
            the front door (or a ``query_*`` entry point) when the
            request was sampled.  Excluded from equality -- a traced
            request *is* its untraced twin -- and spans record only ids
            and timestamps, so tracing can never alter the answer.
    """

    clazz: Union[int, str]
    streams: Optional[Sequence[str]] = None
    kx: Optional[int] = None
    time_range: Optional[Tuple[float, float]] = None
    priority: int = DEFAULT_PRIORITY
    deadline_s: Optional[float] = None
    trace: Optional[Dict] = field(default=None, compare=False)


@dataclass
class ShardPlan:
    """One stream's slice of a query: its candidate clusters."""

    stream: str
    engine: QueryEngine
    class_id: int
    token: int
    candidates: List[int]
    kx: Optional[int]
    time_range: Optional[Tuple[float, float]]

    def keys(self) -> List[Tuple[str, int]]:
        """(stream, cluster) verification keys this shard needs."""
        return [(self.stream, cid) for cid in self.candidates]


@dataclass
class QueryPlan:
    """A planned cross-stream query: one shard plan per stream.

    ``priority`` and ``deadline_s`` ride along from the request so the
    batch verification scheduler can form GPU batches in
    priority-then-deadline order (``docs/QOS.md``).
    """

    class_id: int
    shards: List[ShardPlan]
    kx: Optional[int] = None
    time_range: Optional[Tuple[float, float]] = None
    priority: int = DEFAULT_PRIORITY
    deadline_s: Optional[float] = None
    trace: Optional[Dict] = field(default=None, compare=False)

    @property
    def streams(self) -> List[str]:
        return [s.stream for s in self.shards]

    @property
    def num_candidates(self) -> int:
        """Total candidate centroids before dedup/caching."""
        return sum(len(s.candidates) for s in self.shards)


class QueryPlanner:
    """Resolves user queries into per-shard index lookups.

    ``engines`` is a live provider (stream -> QueryEngine) so the
    planner always sees the system's current set of ingested streams,
    including ones restored via ``FocusSystem.load_indexes``.
    """

    def __init__(self, engines: Callable[[], Mapping[str, QueryEngine]]):
        self._engines = engines

    def plan(self, request: QueryRequest) -> QueryPlan:
        """Fan one request out into per-stream shard plans."""
        engines = self._engines()
        if request.streams is None:
            streams = sorted(engines)
        else:
            streams = list(request.streams)
            missing = [s for s in streams if s not in engines]
            if missing:
                raise KeyError(
                    "streams not ingested: %s" % ", ".join(sorted(missing))
                )
        if not streams:
            raise ValueError("no streams to query; ingest or load some first")
        cid = (
            class_id_of(request.clazz)
            if isinstance(request.clazz, str)
            else int(request.clazz)
        )
        if request.kx is not None and request.kx < 1:
            raise ValueError("kx must be >= 1")

        shards: List[ShardPlan] = []
        for stream in streams:
            engine = engines[stream]
            # per-shard clamp: indexes tuned per stream may have K
            # smaller than the requested query-time Kx
            kx = request.kx
            if kx is not None:
                kx = min(kx, engine.index.k)
            token, candidates = engine.plan(
                cid, kx=kx, time_range=request.time_range
            )
            shards.append(
                ShardPlan(
                    stream=stream,
                    engine=engine,
                    class_id=cid,
                    token=token,
                    candidates=candidates,
                    kx=kx,
                    time_range=request.time_range,
                )
            )
        return QueryPlan(
            class_id=cid,
            shards=shards,
            kx=request.kx,
            time_range=request.time_range,
            priority=request.priority,
            deadline_s=request.deadline_s,
            trace=request.trace,
        )

    def plan_batch(self, requests: Sequence[QueryRequest]) -> List[QueryPlan]:
        """Plan several concurrent queries (verification is batched later).

        Unknown stream names anywhere in the batch are rejected up
        front with one ``KeyError`` naming *all* missing streams across
        all requests -- not just the first request's, and never from a
        lookup deep inside per-shard planning.
        """
        engines = self._engines()
        missing = sorted(
            {
                s
                for request in requests
                if request.streams is not None
                for s in request.streams
                if s not in engines
            }
        )
        if missing:
            raise KeyError("streams not ingested: %s" % ", ".join(missing))
        return [self.plan(r) for r in requests]
