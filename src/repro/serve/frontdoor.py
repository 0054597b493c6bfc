"""Admission control in front of the query service.

The paper's deployment answers low-latency queries on machines that are
simultaneously ingesting live streams; at "millions of users" scale
nothing may drive the GPU work queues at unbounded rates.  The front
door puts a declared-policy layer in front of ``QueryService`` /
``FocusSystem`` / ``FabricRouter``:

* **per-tenant budgets** -- each tenant declares a token-bucket rate
  (sustained QPS + burst), an inflight cap, and a priority class, once;
  enforcement happens at admission, far cheaper than the GPU work it
  gates.  Over-budget requests fail fast with a typed
  :class:`AdmissionRejected` carrying a retry-after hint.
* **ingest backpressure** -- per-shard committed GPU work
  (``busy-gpu-seconds`` from ``GPUCluster.counters``) is sampled on an
  interval and differenced into a leaky-bucket backlog estimate; when a
  shard's backlog crosses the high-water mark, ``append`` /
  ``append_many`` legs are throttled *before* any query is -- the
  paper's ingest-vs-query contention tradeoff, enforced at the door.
* **deadline-aware dispatch** -- admitted queries are stamped with the
  tenant's priority class (and an optional deadline), which the batch
  verification scheduler uses to form GPU batches in
  priority-then-deadline order.

The front door never alters an admitted request's answer: stamping
priority/deadline reorders batch *formation*, not verdicts, and every
other field is forwarded verbatim -- only *which* requests run changes,
never their results (test-enforced bit-identity, both fabric modes).

See ``docs/QOS.md`` for the budget format and the rules in full.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.events import EventLog, default_events
from repro.obs.metrics import MetricsRegistry, register_counters
from repro.obs.trace import Tracer, get_tracer, span
from repro.serve.planner import QueryRequest

__all__ = [
    "ADMISSION_COUNTER_KEYS",
    "AdmissionRejected",
    "FrontDoor",
    "IngestBackpressure",
    "TenantBudget",
]

#: admission outcome totals (sum across doors) -- declared here, the
#: owning module, into the shared kind registry behind ``COUNTER_KINDS``
ADMISSION_COUNTER_KEYS = register_counters(
    "sum",
    "admission-admitted",
    "admission-rejected-rate",
    "admission-rejected-inflight",
    "admission-rejected-backpressure",
) + register_counters("gauge", "admission-inflight")


class AdmissionRejected(RuntimeError):
    """A request the front door refused to run.

    Carries enough structure for a well-behaved client to back off:
    ``tenant``, the ``op`` it tried ("query" / "ingest"),
    the ``reason`` ("rate" | "inflight" | "backpressure") and
    ``retry_after_s`` -- the earliest moment a retry could be admitted
    (0.0 when it depends on other requests completing).
    """

    def __init__(
        self, tenant: str, op: str, reason: str, retry_after_s: float
    ):
        self.tenant = tenant
        self.op = op
        self.reason = reason
        self.retry_after_s = float(retry_after_s)
        super().__init__(
            "tenant %r %s rejected (%s); retry after %.3fs"
            % (tenant, op, reason, self.retry_after_s)
        )


@dataclass(frozen=True)
class TenantBudget:
    """One tenant's declared budget (see ``docs/QOS.md``).

    ``qps`` is the sustained admitted-request rate (token-bucket refill);
    ``burst`` the bucket size (default: one second of refill, at least
    1); ``max_inflight`` caps concurrently admitted requests;
    ``priority`` is the QoS class stamped onto queries (lower is more
    urgent: 0 interactive, larger is bulkier); ``slo_p99_ms`` is the
    tenant's *declared* p99 target -- reported against by the load
    generator, never enforced at admission.
    """

    qps: float
    burst: Optional[float] = None
    max_inflight: int = 8
    priority: int = 1
    slo_p99_ms: Optional[float] = None

    def __post_init__(self):
        if self.qps <= 0:
            raise ValueError("qps must be positive")
        if self.burst is not None and self.burst < 1:
            raise ValueError("burst must be >= 1 token")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.priority < 0:
            raise ValueError("priority must be >= 0")

    @property
    def bucket_size(self) -> float:
        return self.burst if self.burst is not None else max(1.0, self.qps)


class _TokenBucket:
    """Classic token bucket against an injectable monotonic clock."""

    def __init__(self, qps: float, size: float, now: float):
        self.qps = qps
        self.size = size
        self.tokens = size
        self.last = now

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self.last)
        self.tokens = min(self.size, self.tokens + elapsed * self.qps)
        self.last = now

    def peek(self, now: float) -> float:
        """0.0 when a token is available, else seconds until one is."""
        self._refill(now)
        if self.tokens >= 1.0:
            return 0.0
        return (1.0 - self.tokens) / self.qps

    def take(self) -> None:
        """Consume one token (call only after ``peek`` returned 0)."""
        self.tokens -= 1.0


class _TenantState:
    def __init__(self, budget: TenantBudget, now: float):
        self.budget = budget
        self.bucket = _TokenBucket(budget.qps, budget.bucket_size, now)
        self.inflight = 0
        self.admitted = 0
        self.rejected: Dict[str, int] = {
            "rate": 0, "inflight": 0, "backpressure": 0,
        }


class IngestBackpressure:
    """Per-shard GPU backlog estimate driving ingest throttling.

    ``depth_fn`` returns each shard's cumulative committed GPU seconds
    (``busy-gpu-seconds`` -- monotone); the delta since the previous
    sample feeds a per-shard leaky bucket that drains at ``drain_rate``
    GPU-seconds per wall second.  A shard whose bucket level exceeds
    ``high_water_s`` throttles ingest; queries are never throttled by
    this signal (appends are shed *before* queries, per the paper's
    contention tradeoff).  Sampling is rate-limited to
    ``sample_interval_s`` so the admission decision stays far cheaper
    than the work it gates (worker-fabric sampling is a wire round-trip
    per shard).
    """

    def __init__(
        self,
        depth_fn: Callable[[], Mapping[str, float]],
        high_water_s: float = 30.0,
        drain_rate: float = 1.0,
        sample_interval_s: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
    ):
        if high_water_s <= 0:
            raise ValueError("high_water_s must be positive")
        if drain_rate <= 0:
            raise ValueError("drain_rate must be positive")
        self.depth_fn = depth_fn
        self.high_water_s = high_water_s
        self.drain_rate = drain_rate
        self.sample_interval_s = sample_interval_s
        self.clock = clock
        self._levels: Dict[str, float] = {}
        self._committed: Dict[str, float] = {}
        self._last_sample: Optional[float] = None
        self._last_drain: Optional[float] = None
        # baseline now: committed GPU history predating the door is not
        # backlog -- only deltas observed from here on count against the
        # high-water mark
        self._observe(self.clock())

    def _observe(self, now: float) -> None:
        if (
            self._last_sample is not None
            and now - self._last_sample < self.sample_interval_s
        ):
            return
        self._last_sample = now
        for shard, committed in self.depth_fn().items():
            committed = float(committed)
            previous = self._committed.get(shard)
            if previous is not None:
                self._levels[shard] = (
                    self._levels.get(shard, 0.0) + max(0.0, committed - previous)
                )
            else:
                self._levels.setdefault(shard, 0.0)
            self._committed[shard] = committed

    def _drain(self, now: float) -> None:
        if self._last_drain is not None:
            drained = max(0.0, now - self._last_drain) * self.drain_rate
            for shard in self._levels:
                self._levels[shard] = max(0.0, self._levels[shard] - drained)
        self._last_drain = now

    def levels(self) -> Dict[str, float]:
        """Current per-shard backlog estimate (GPU seconds)."""
        now = self.clock()
        self._observe(now)
        self._drain(now)
        return dict(self._levels)

    def check(self) -> Tuple[bool, float]:
        """(throttle ingest?, retry-after seconds)."""
        levels = self.levels()
        worst = max(levels.values(), default=0.0)
        if worst <= self.high_water_s:
            return False, 0.0
        return True, (worst - self.high_water_s) / self.drain_rate


def _default_depth_fn(
    service: Any,
) -> Optional[Callable[[], Mapping[str, float]]]:
    """Infer the per-shard committed-GPU-seconds sampler for a service.

    A ``FabricRouter`` exposes :meth:`~repro.fabric.router.FabricRouter.
    gpu_depths`; a ``FocusSystem`` has one local ``cluster``.  Anything
    else (e.g. a bare ``QueryService``) has no ingest surface to
    protect, so backpressure is disabled.
    """
    if hasattr(service, "gpu_depths"):
        return service.gpu_depths
    cluster = getattr(service, "cluster", None)
    if cluster is not None and hasattr(cluster, "counters"):
        return lambda: {"local": cluster.counters()["busy-gpu-seconds"]}
    return None


class FrontDoor:
    """Admission control wrapping a query/ingest service.

    ``service`` is duck-typed: anything with the ``QueryService``
    surface (``query_batch``; optionally ``query_all``, ``query``,
    ``append``, ``append_many``, ``open_stream``) -- a ``FocusSystem``,
    a ``FabricRouter`` over either fabric mode, or a bare
    ``QueryService``.  Admitted calls forward verbatim (queries gain
    only the tenant's priority stamp and optional deadline), so answers
    are bit-identical to a no-front-door run.

    ``tenants`` maps tenant name to :class:`TenantBudget`; requests
    from unknown tenants are refused with ``KeyError`` unless a
    ``default_budget`` is given.  ``clock`` is injectable for
    deterministic tests.  ``backpressure`` defaults to an
    :class:`IngestBackpressure` sampling the service's per-shard GPU
    counters; pass your own to tune the high-water mark, or ``False``
    to disable ingest throttling entirely.
    """

    def __init__(
        self,
        service: Any,
        tenants: Mapping[str, TenantBudget],
        default_budget: Optional[TenantBudget] = None,
        clock: Callable[[], float] = time.monotonic,
        backpressure: Union[IngestBackpressure, None, bool] = None,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.service = service
        self.clock = clock
        self.default_budget = default_budget
        #: per-door registry: admitted-op wall-latency histograms
        #: (``frontdoor.query_s`` / ``frontdoor.ingest_s``) feeding
        #: ``metrics_snapshot``
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._events = events
        self._tracer = tracer
        self._tenants: Dict[str, _TenantState] = {}
        for name, budget in tenants.items():
            self._tenants[name] = _TenantState(budget, clock())
        if backpressure is None:
            depth_fn = _default_depth_fn(service)
            backpressure = (
                IngestBackpressure(depth_fn, clock=clock)
                if depth_fn is not None
                else False
            )
        self.backpressure: Optional[IngestBackpressure] = (
            backpressure if backpressure is not False else None
        )

    @property
    def events(self) -> EventLog:
        """The lifecycle event log (process-wide default unless set)."""
        return self._events if self._events is not None else default_events()

    @property
    def tracer(self) -> Tracer:
        """The trace sampler (process-wide default unless set)."""
        return self._tracer if self._tracer is not None else get_tracer()

    # -- admission ---------------------------------------------------------
    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            if self.default_budget is None:
                raise KeyError(
                    "unknown tenant %r (declare a budget or pass "
                    "default_budget)" % tenant
                )
            state = _TenantState(self.default_budget, self.clock())
            self._tenants[tenant] = state
        return state

    def _admit(self, tenant: str, op: str) -> _TenantState:
        """Admit or raise; on admission the tenant's inflight slot and
        token are consumed (release the slot via ``_release``).

        Checks are ordered cheapest-first and nothing is consumed until
        every check passes, so a rejected request charges zero cost
        anywhere -- no token, no inflight slot, no ledger or GPU work.
        """
        state = self._state(tenant)
        now = self.clock()
        retry_after = state.bucket.peek(now)
        if retry_after > 0.0:
            state.rejected["rate"] += 1
            self._reject(tenant, op, "rate", retry_after)
        if state.inflight >= state.budget.max_inflight:
            state.rejected["inflight"] += 1
            # no schedule to predict: retry when an inflight completes
            self._reject(tenant, op, "inflight", 0.0)
        if op == "ingest" and self.backpressure is not None:
            throttled, retry_after = self.backpressure.check()
            if throttled:
                state.rejected["backpressure"] += 1
                self._reject(tenant, op, "backpressure", retry_after)
        state.bucket.take()
        state.inflight += 1
        state.admitted += 1
        return state

    def _reject(
        self, tenant: str, op: str, reason: str, retry_after_s: float
    ) -> None:
        self.events.emit(
            "admission.rejected",
            tenant=tenant,
            op=op,
            reason=reason,
            retry_after_s=round(retry_after_s, 6),
        )
        raise AdmissionRejected(tenant, op, reason, retry_after_s)

    @staticmethod
    def _release(state: _TenantState) -> None:
        state.inflight -= 1

    def _stamp(
        self, request: QueryRequest, budget: TenantBudget,
        deadline_s: Optional[float],
        trace: Optional[Dict[str, Any]] = None,
    ) -> QueryRequest:
        """Stamp the tenant's QoS class onto an admitted query request.

        Only ``priority``, ``deadline_s``, and (when the request was
        sampled) the ``trace`` context change -- fields that reorder
        verification batch formation or record timestamps but can never
        alter a verdict -- so the admitted answer stays bit-identical
        to a no-front-door run of the same request.
        """
        return replace(
            request,
            priority=budget.priority,
            deadline_s=(
                request.deadline_s if request.deadline_s is not None else deadline_s
            ),
            trace=request.trace if request.trace is not None else trace,
        )

    # -- the service surface, gated ----------------------------------------
    def query_batch(
        self,
        tenant: str,
        requests: Sequence[QueryRequest],
        deadline_s: Optional[float] = None,
        **kwargs: Any,
    ) -> List[Any]:
        state = self._admit(tenant, "query")
        started = time.perf_counter()
        ctx = self.tracer.sample()
        try:
            with span(
                "frontdoor:query", ctx, tenant=tenant, n=len(requests)
            ) as child:
                stamped = [
                    self._stamp(r, state.budget, deadline_s, trace=child)
                    for r in requests
                ]
                return self.service.query_batch(stamped, **kwargs)
        finally:
            self._release(state)
            self.metrics.observe(
                "frontdoor.query_s", time.perf_counter() - started
            )

    def query_all(
        self,
        tenant: str,
        clazz: Union[int, str],
        streams: Optional[Sequence[str]] = None,
        kx: Optional[int] = None,
        time_range: Optional[Tuple[float, float]] = None,
        deadline_s: Optional[float] = None,
        **kwargs: Any,
    ) -> Any:
        request = QueryRequest(
            clazz=clazz, streams=streams, kx=kx, time_range=time_range
        )
        return self.query_batch(
            tenant, [request], deadline_s=deadline_s, **kwargs
        )[0]

    def append(
        self, tenant: str, stream: str, chunk: Any, **kwargs: Any
    ) -> Any:
        state = self._admit(tenant, "ingest")
        started = time.perf_counter()
        ctx = self.tracer.sample()
        try:
            with span("frontdoor:ingest", ctx, tenant=tenant, stream=stream):
                return self.service.append(stream, chunk, **kwargs)
        finally:
            self._release(state)
            self.metrics.observe(
                "frontdoor.ingest_s", time.perf_counter() - started
            )

    def append_many(
        self, tenant: str, chunks: Sequence[Tuple[str, Any]], **kwargs: Any
    ) -> Any:
        state = self._admit(tenant, "ingest")
        started = time.perf_counter()
        ctx = self.tracer.sample()
        try:
            with span("frontdoor:ingest", ctx, tenant=tenant, n=len(chunks)):
                return self.service.append_many(chunks, **kwargs)
        finally:
            self._release(state)
            self.metrics.observe(
                "frontdoor.ingest_s", time.perf_counter() - started
            )

    # -- observability -----------------------------------------------------
    def counters(self) -> Dict[str, float]:
        """Admission totals, classified in ``COUNTER_KINDS`` like every
        serving counter (``admission-inflight`` is a gauge)."""
        admitted = rejected_rate = rejected_inflight = rejected_bp = 0
        inflight = 0
        for state in self._tenants.values():
            admitted += state.admitted
            rejected_rate += state.rejected["rate"]
            rejected_inflight += state.rejected["inflight"]
            rejected_bp += state.rejected["backpressure"]
            inflight += state.inflight
        return {
            "admission-admitted": float(admitted),
            "admission-rejected-rate": float(rejected_rate),
            "admission-rejected-inflight": float(rejected_inflight),
            "admission-rejected-backpressure": float(rejected_bp),
            "admission-inflight": float(inflight),
        }

    def metrics_snapshot(self) -> Dict[str, Any]:
        """This door's registry snapshot (admitted-op latency
        histograms in their mergeable wire encoding)."""
        return self.metrics.snapshot()

    def tenant_report(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant admission outcomes against the declared budget
        (the load generator's SLO report reads from this)."""
        out: Dict[str, Dict[str, Any]] = {}
        for name, state in sorted(self._tenants.items()):
            out[name] = {
                "qps_budget": state.budget.qps,
                "max_inflight": state.budget.max_inflight,
                "priority": state.budget.priority,
                "slo_p99_ms": state.budget.slo_p99_ms,
                "admitted": state.admitted,
                "rejected": dict(state.rejected),
                "inflight": state.inflight,
            }
        return out
