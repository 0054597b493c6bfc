"""GPU-time accounting.

The paper's two metrics -- ingest cost and query latency -- are defined
purely as GPU time spent classifying images, excluding CPU work such as
video decoding, motion detection, clustering and index I/O (Section
6.1, Metrics).  ``GPULedger`` records every simulated inference batch
under a category so experiments can report exactly those two numbers
and their baseline ratios.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cnn.costs import GPUSpec, DEFAULT_GPU
from repro.cnn.model import ClassifierModel
from repro.obs.metrics import register_counters


class CostCategory(enum.Enum):
    """Where GPU time is spent."""

    INGEST_CNN = "ingest-cnn"          # cheap CNN on detected objects
    QUERY_GT = "query-gt"              # GT-CNN on cluster centroids at query time
    RETRAIN_GT = "retrain-gt"          # GT-CNN labelling samples for specialization
    BASELINE_INGEST = "baseline-ingest"  # Ingest-all's GT-CNN work
    BASELINE_QUERY = "baseline-query"    # Query-all's GT-CNN work


#: every ledger category is a summable fleet counter (they ride a
#: shard's ``cost`` section across the wire; the router sums per key)
LEDGER_COUNTER_KEYS = register_counters(
    "sum", *(category.value for category in CostCategory)
)


@dataclass(frozen=True)
class LedgerEntry:
    category: CostCategory
    model_name: str
    inferences: int
    gpu_seconds: float
    note: str = ""


class GPULedger:
    """Accumulates GPU-seconds per cost category."""

    def __init__(self, gpu: GPUSpec = DEFAULT_GPU):
        self.gpu = gpu
        self._entries: List[LedgerEntry] = []

    def record(
        self,
        category: CostCategory,
        model: ClassifierModel,
        inferences: int,
        note: str = "",
    ) -> LedgerEntry:
        """Record ``inferences`` classifications with ``model``."""
        if inferences < 0:
            raise ValueError("inferences must be non-negative")
        entry = LedgerEntry(
            category=category,
            model_name=model.name,
            inferences=inferences,
            gpu_seconds=model.cost_seconds(inferences, self.gpu),
            note=note,
        )
        self._entries.append(entry)
        return entry

    def refund(
        self,
        category: CostCategory,
        model: ClassifierModel,
        inferences: int,
        note: str = "",
    ) -> LedgerEntry:
        """Deduct ``inferences`` previously-recorded classifications.

        Appends a negative entry so ``seconds()``/``inferences()``/
        ``summary()`` totals genuinely shrink; the category's running
        total may not go below zero.
        """
        if inferences < 0:
            raise ValueError("inferences must be non-negative")
        if inferences > self.inferences(category):
            raise ValueError(
                "refund of %d inferences exceeds the %s total"
                % (inferences, category.value)
            )
        entry = LedgerEntry(
            category=category,
            model_name=model.name,
            inferences=-inferences,
            gpu_seconds=-model.cost_seconds(inferences, self.gpu),
            note=note,
        )
        self._entries.append(entry)
        return entry

    @property
    def entries(self) -> List[LedgerEntry]:
        return list(self._entries)

    def seconds(self, category: Optional[CostCategory] = None) -> float:
        """Total GPU-seconds, optionally restricted to one category."""
        return sum(
            e.gpu_seconds for e in self._entries if category is None or e.category == category
        )

    def inferences(self, category: Optional[CostCategory] = None) -> int:
        return sum(
            e.inferences for e in self._entries if category is None or e.category == category
        )

    @property
    def ingest_seconds(self) -> float:
        return self.seconds(CostCategory.INGEST_CNN)

    @property
    def query_seconds(self) -> float:
        return self.seconds(CostCategory.QUERY_GT)

    def merge(self, other: "GPULedger") -> None:
        """Fold another ledger's entries into this one."""
        self._entries.extend(other._entries)

    def summary(self) -> Dict[str, float]:
        """GPU-seconds per category name."""
        out: Dict[str, float] = {}
        for entry in self._entries:
            key = entry.category.value
            out[key] = out.get(key, 0.0) + entry.gpu_seconds
        return out

    def clear(self) -> None:
        self._entries.clear()
