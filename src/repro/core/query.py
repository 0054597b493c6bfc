"""The query pipeline (Figure 4, QT1-QT4).

A query for class X looks up the top-K index for clusters matching X
(QT2), classifies only their *centroids* with the GT-CNN (QT3), and
returns all frames of the clusters whose centroid the GT-CNN confirmed
as X (QT4).  For classes outside a specialized model's head, the lookup
goes through the OTHER bucket (Section 4.3).  A smaller dynamic Kx can
shrink the candidate set at query time (Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.cnn.model import ClassifierModel
from repro.cnn.specialize import SpecializedClassifier
from repro.core.costmodel import CostCategory, GPULedger
from repro.core.index import IndexReader
from repro.core.metrics import SegmentMetrics, gt_segments, segment_metrics_in_range
from repro.video.synthesis import ObservationTable


@dataclass
class QueryResult:
    """Outcome of one class query."""

    class_id: int
    token: int
    candidate_clusters: List[int]
    matched_clusters: List[int]
    returned_rows: np.ndarray
    returned_frames: np.ndarray
    gt_inferences: int
    gpu_seconds: float

    def latency_seconds(self, num_gpus: int = 1) -> float:
        """Wall-clock latency on a cluster of ``num_gpus`` GPUs.

        GPU time is the only latency component the paper measures
        (Section 6.1); query work parallelizes across idle workers
        (Section 5).
        """
        if num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        return self.gpu_seconds / num_gpus


class QueryEngine:
    """Serves class queries against an ingest result."""

    def __init__(
        self,
        index: IndexReader,
        table: ObservationTable,
        ingest_model: Optional[ClassifierModel],
        gt_model: ClassifierModel,
        ledger: Optional[GPULedger] = None,
        query_token_fn: Optional[Callable[[int], int]] = None,
    ):
        """``ingest_model`` may be None for an engine restored from a
        persisted index, in which case ``query_token_fn`` supplies the
        class -> index-token mapping (identity for generic models, the
        head/OTHER mapping for specialized ones)."""
        if not gt_model.is_ground_truth:
            raise ValueError("gt_model must be a ground-truth model (dispersion 0)")
        if ingest_model is None and query_token_fn is None:
            raise ValueError("an engine without an ingest_model needs query_token_fn")
        self.index = index
        self.table = table
        self.ingest_model = ingest_model
        self.gt_model = gt_model
        self.ledger = ledger or GPULedger()
        self._query_token_fn = query_token_fn
        #: ground-truth segments per class over ``table``, valid while
        #: the table has ``_truth_rows`` rows (tables only ever grow)
        self._truth: Dict[int, Set[int]] = {}
        self._truth_rows = -1

    def _token_for(self, class_id: int) -> int:
        if self._query_token_fn is not None:
            return self._query_token_fn(class_id)
        if isinstance(self.ingest_model, SpecializedClassifier):
            return self.ingest_model.query_token(class_id)
        return class_id

    # -- staged pipeline ---------------------------------------------------
    # query() = plan() -> verify() -> collect().  The serve layer calls
    # the stages separately so a batch scheduler can interleave the
    # verification of many concurrent queries (dedup + cache + GPU
    # batching) between plan and collect.

    def plan(
        self,
        class_id: int,
        kx: Optional[int] = None,
        time_range: Optional[Tuple[float, float]] = None,
    ) -> Tuple[int, List[int]]:
        """QT2: index lookup. Returns (token, candidate cluster ids)."""
        token = self._token_for(class_id)
        return token, self.index.lookup(token, kx=kx, time_range=time_range)

    def verify_centroid(self, cluster_id: int, class_id: int) -> bool:
        """QT3 verdict for one centroid, *without* ledger accounting.

        The simulated GT model has dispersion 0, so its answer is the
        true class of the centroid observation; whoever calls this is
        responsible for recording the GT-CNN cost.
        """
        return self.index.cluster(cluster_id).centroid_class == class_id

    def collect(
        self,
        matched: List[int],
        time_range: Optional[Tuple[float, float]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """QT4: expand matched clusters into (rows, unique frame ids)."""
        if not matched:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        rows = np.concatenate([self.index.members(cid) for cid in matched])
        if time_range is not None:
            start, end = time_range
            times = self.table.time_s[rows]
            rows = rows[(times >= start) & (times < end)]
        frames = np.unique(self.table.frame_idx[rows])
        return rows, frames

    def metrics(
        self,
        class_id: int,
        returned_rows: np.ndarray,
        time_range: Optional[Tuple[float, float]] = None,
    ) -> SegmentMetrics:
        """Segment accuracy of an answer's rows against ground truth.

        The class's ground-truth segments are a scan of the whole table;
        they are computed on the first answer for a class and held until
        the table grows.
        """
        table = self.table
        if len(table) != self._truth_rows:
            self._truth, self._truth_rows = {}, len(table)
        truth = self._truth.get(class_id)
        if truth is None:
            truth = self._truth[class_id] = gt_segments(table, class_id)
        return segment_metrics_in_range(
            table, class_id, returned_rows, time_range, truth=truth
        )

    def query(
        self,
        class_id: int,
        kx: Optional[int] = None,
        time_range: Optional[Tuple[float, float]] = None,
    ) -> QueryResult:
        """Find all frames containing objects of ``class_id``.

        Args:
            class_id: the queried object class.
            kx: optional dynamic K (<= index K) to trade recall for
                latency at query time.
            time_range: optional [start, end) seconds restriction.
        """
        token, candidates = self.plan(class_id, kx=kx, time_range=time_range)

        # QT3: GT-CNN verifies each candidate centroid.
        matched = [cid for cid in candidates if self.verify_centroid(cid, class_id)]
        entry = self.ledger.record(
            CostCategory.QUERY_GT,
            self.gt_model,
            len(candidates),
            note="query class=%d stream=%s" % (class_id, self.index.stream),
        )

        rows, frames = self.collect(matched, time_range=time_range)
        return QueryResult(
            class_id=class_id,
            token=token,
            candidate_clusters=candidates,
            matched_clusters=matched,
            returned_rows=rows,
            returned_frames=frames,
            gt_inferences=len(candidates),
            gpu_seconds=entry.gpu_seconds,
        )

    def query_incremental(
        self, class_id: int, batches: List[int]
    ) -> List[QueryResult]:
        """Progressive retrieval with growing Kx (Section 5).

        Serves "give me some results fast, more if needed": each batch
        re-queries with the next larger Kx; candidates already verified
        are not re-classified (their GT cost is deducted).
        """
        results: List[QueryResult] = []
        seen: set = set()
        for kx in batches:
            result = self.query(class_id, kx=kx)
            fresh = [c for c in result.candidate_clusters if c not in seen]
            refund = len(result.candidate_clusters) - len(fresh)
            if refund:
                # query() charged every candidate; deduct the duplicates
                # so the ledger matches the centroids actually classified
                self.ledger.refund(
                    CostCategory.QUERY_GT, self.gt_model, refund,
                    note="dedup refund (%d centroids)" % refund,
                )
                result.gt_inferences = len(fresh)
                result.gpu_seconds = self.gt_model.cost_seconds(len(fresh), self.ledger.gpu)
            seen.update(result.candidate_clusters)
            results.append(result)
        return results
