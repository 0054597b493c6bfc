"""Batched GT-CNN verification across concurrent queries (QT3 at scale).

The paper verifies cluster centroids with the GT-CNN at query time;
when many queries are in flight (one user querying all cameras, or many
users querying overlapping windows), their candidate centroids are
coalesced before touching a GPU:

1. **dedup** -- a centroid requested by several in-flight shards is
   classified once;
2. **cache** -- a centroid verified by an earlier batch is not
   re-classified at all (:class:`~repro.serve.cache.VerificationCache`);
3. **batch** -- surviving centroids are packed into fixed-size GPU
   batches and dispatched onto the cluster's per-device work queues, in
   priority-then-deadline order (plans carry the front door's QoS
   stamps; see ``docs/QOS.md``) so a bulk sweep's batches never start
   ahead of an interactive query's.

Only the fresh centroids are charged to the GPU ledger, so
``cost_summary()`` reflects the work actually scheduled -- a round that
aborts mid-verdict refunds its unverified remainder.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cnn.model import ClassifierModel
from repro.core.costmodel import CostCategory, GPULedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span
from repro.sched.cluster import DispatchReport, QueryCoordinator
from repro.serve.cache import CacheKey, VerificationCache
from repro.serve.planner import QueryPlan

#: (stream, cluster_id) -- a centroid's identity within one GT model.
CentroidKey = Tuple[str, int]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one coalesced verification round.

    ``verdicts`` maps every requested centroid to the GT-CNN's class;
    ``fresh`` lists the keys that were actually classified this round
    (the rest came from the cache or were duplicates).
    """

    verdicts: Dict[CentroidKey, int]
    fresh: Set[CentroidKey]
    fresh_inferences: int
    cache_hits: int
    duplicates_coalesced: int
    latency_seconds: float
    gpu_seconds: float
    num_batches: int


class BatchVerificationScheduler:
    """Coalesces centroid verification work from concurrent query plans."""

    def __init__(
        self,
        coordinator: QueryCoordinator,
        gt_model: ClassifierModel,
        ledger: GPULedger,
        cache: Optional[VerificationCache] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.coordinator = coordinator
        self.gt_model = gt_model
        self.ledger = ledger
        # explicit None check: an empty VerificationCache is falsy
        self.cache = cache if cache is not None else VerificationCache()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def _cache_key(self, key: CentroidKey) -> CacheKey:
        stream, cluster_id = key
        return (stream, cluster_id, self.gt_model.name)

    @staticmethod
    def _formation_groups(
        plans: Sequence[QueryPlan],
    ) -> List[Tuple[Tuple[int, float], List[int]]]:
        """Plan indices grouped in batch-formation order.

        Priority class first (lower is more urgent), tighter deadline
        next, arrival order last -- so a low-priority bulk sweep's
        centroids are enqueued on the GPU queues *behind* an
        interactive query's, never ahead of them (``docs/QOS.md``).
        Plans sharing a (priority, deadline) class form one group and
        batch together, exactly like the pre-QoS scheduler.
        """
        def klass(i: int) -> Tuple[int, float]:
            plan = plans[i]
            deadline = (
                plan.deadline_s if plan.deadline_s is not None else float("inf")
            )
            return (plan.priority, deadline)

        order = sorted(range(len(plans)), key=lambda i: (klass(i), i))
        groups: List[Tuple[Tuple[int, float], List[int]]] = []
        for i in order:
            if groups and groups[-1][0] == klass(i):
                groups[-1][1].append(i)
            else:
                groups.append((klass(i), [i]))
        return groups

    def verify(self, plans: Sequence[QueryPlan]) -> VerificationReport:
        """Run one verification round over all shards of all plans.

        Batches form in priority-then-deadline order; ordering decides
        only *when* a plan's fresh centroids reach the GPU queues within
        the round -- verdicts (and therefore answers) are bit-identical
        under any ordering, which is what lets the front door stamp
        priorities without breaking the no-front-door reference.
        """
        groups = self._formation_groups(plans)

        # 1. dedup: formation order, one slot per unique centroid; a
        # centroid wanted by several groups is owned by (and dispatched
        # with) the most urgent one
        unique: Dict[CentroidKey, object] = {}
        duplicates = 0
        group_keys: List[List[CentroidKey]] = []
        for _, indices in groups:
            mine: List[CentroidKey] = []
            for i in indices:
                for shard in plans[i].shards:
                    for key in shard.keys():
                        if key in unique:
                            duplicates += 1
                        else:
                            unique[key] = shard.engine
                            mine.append(key)
            group_keys.append(mine)

        # 2. cache: split into already-verified and fresh (per group)
        verdicts: Dict[CentroidKey, int] = {}
        fresh: List[Tuple[CentroidKey, object]] = []
        group_fresh: List[int] = []
        cache_hits = 0
        for keys in group_keys:
            n_before = len(fresh)
            for key in keys:
                cached = self.cache.get(self._cache_key(key))
                if cached is not None:
                    verdicts[key] = cached
                    cache_hits += 1
                else:
                    fresh.append((key, unique[key]))
            group_fresh.append(len(fresh) - n_before)

        # 3. batch + dispatch fresh work onto the per-GPU queues, one
        # dispatch per formation group so urgent groups' batches start
        # (and finish) first; the simulated GT model answers the
        # centroid's true class, and the ledger charges exactly the
        # centroids scheduled
        reports: List[DispatchReport] = []
        if fresh:
            for ((prio, deadline), indices), n_group in zip(groups, group_fresh):
                if not n_group:
                    continue
                if len(groups) == 1:
                    label = "verify x%d (%d queries)" % (len(fresh), len(plans))
                else:
                    label = "verify x%d p%d%s" % (
                        n_group,
                        prio,
                        "" if deadline == float("inf") else " d%.3gs" % deadline,
                    )
                # the group's trace context (if any member was sampled)
                # brackets its GPU dispatch; the histogram is always on
                ctx = next(
                    (plans[i].trace for i in indices if plans[i].trace is not None),
                    None,
                )
                started = time.perf_counter()
                with span(
                    "scheduler:dispatch", ctx, batch=n_group, priority=prio
                ):
                    reports.append(
                        self.coordinator.dispatch(
                            self.gt_model, n_group, label=label
                        )
                    )
                self.metrics.observe(
                    "scheduler.dispatch_s", time.perf_counter() - started
                )
            self.ledger.record(
                CostCategory.QUERY_GT,
                self.gt_model,
                len(fresh),
                note="batched verification: %d fresh, %d cached, %d deduped"
                % (len(fresh), cache_hits, duplicates),
            )
        # 4. verdicts: on a mid-round failure (cluster retired/migrated
        # between plan and verify) refund the *unverified* remainder of
        # the ledger charge -- completed verdicts stay charged and
        # cached, so accounting and cache agree on exactly the work done
        completed = 0
        try:
            for key, engine in fresh:
                _, cluster_id = key
                gt_class = engine.index.centroid_class(cluster_id)
                verdicts[key] = gt_class
                self.cache.put(self._cache_key(key), gt_class)
                completed += 1
        except Exception:
            remainder = len(fresh) - completed
            if remainder:
                self.ledger.refund(
                    CostCategory.QUERY_GT,
                    self.gt_model,
                    remainder,
                    note="verification round aborted: %d of %d unverified"
                    % (remainder, len(fresh)),
                )
            raise

        return VerificationReport(
            verdicts=verdicts,
            fresh={key for key, _ in fresh},
            fresh_inferences=len(fresh),
            cache_hits=cache_hits,
            duplicates_coalesced=duplicates,
            latency_seconds=(
                max(r.end for r in reports) - min(r.start for r in reports)
                if reports
                else 0.0
            ),
            gpu_seconds=sum(r.gpu_seconds for r in reports),
            num_batches=sum(len(r.scheduled) for r in reports),
        )
