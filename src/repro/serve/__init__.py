"""Multi-stream, multi-tenant query serving (Section 5, served).

The paper's deployment queries "some or all" of an organization's
camera streams at once.  This package turns the single-stream query
engine into a service: a planner fans cross-stream queries into
per-shard index lookups, a batch scheduler coalesces concurrent
queries' centroid verification (dedup + LRU verdict cache + fixed-size
GPU batches) onto the cluster's per-device work queues, and the service
facade assembles per-stream answers (frames and cost) and serving
counters.
"""

from repro.serve.cache import VerificationCache
from repro.serve.frontdoor import (
    AdmissionRejected,
    FrontDoor,
    IngestBackpressure,
    TenantBudget,
)
from repro.serve.planner import QueryPlan, QueryPlanner, QueryRequest, ShardPlan
from repro.serve.scheduler import BatchVerificationScheduler, VerificationReport
from repro.serve.service import (
    COUNTER_KINDS,
    DegradedScope,
    MultiStreamAnswer,
    QueryService,
    merge_counters,
)

__all__ = [
    "AdmissionRejected",
    "COUNTER_KINDS",
    "DegradedScope",
    "FrontDoor",
    "IngestBackpressure",
    "TenantBudget",
    "merge_counters",
    "VerificationCache",
    "QueryPlan",
    "QueryPlanner",
    "QueryRequest",
    "ShardPlan",
    "BatchVerificationScheduler",
    "VerificationReport",
    "MultiStreamAnswer",
    "QueryService",
]
