"""The ingest pipeline (Figure 4, IT1-IT4).

For each detected moving object: run the cheap ingest CNN (IT1) --
unless pixel differencing shows it nearly identical to an object in the
previous frame (Section 4.2) -- cluster by feature vector (IT2), and
index each cluster's centroid under its top-K classes (IT3-IT4).  Only
the cheap-CNN invocations cost GPU time; clustering and indexing run on
the ingest machine's CPUs, fully pipelined with the GPU (Section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cnn.calibration import INGEST
from repro.cnn.hashing import combine, hash_uniform, stable_salt
from repro.cnn.model import ClassifierModel
from repro.core.clustering import ClusterSummary, cluster_table
from repro.core.config import FocusConfig
from repro.core.costmodel import CostCategory, GPULedger
from repro.core.index import IndexReader, index_builder
from repro.video.synthesis import ObservationTable

_PIXELDIFF_SALT = stable_salt("pixel-diff")


def simulate_pixel_diff(
    table: ObservationTable,
    max_suppression: Optional[float] = None,
) -> np.ndarray:
    """Which observations pixel differencing suppresses (no CNN run).

    A non-first observation of a track is suppressed when the object's
    pixels barely changed since the previous frame.  At 30 fps adjacent
    observations are 33 ms apart and frequently near-identical; at lower
    frame rates the gap grows and suppression opportunities shrink
    proportionally.  Deterministic per observation.
    """
    if max_suppression is None:
        max_suppression = INGEST.pixel_diff_max_suppression
    if not 0.0 <= max_suppression < 1.0:
        raise ValueError("max_suppression must be in [0, 1)")
    p = max_suppression * min(table.fps / 30.0, 1.0)
    u = hash_uniform(combine(table.observation_seeds(), np.uint64(_PIXELDIFF_SALT)))
    return (table.obs_in_track > 0) & (u < p)


@dataclass
class IngestResult:
    """Everything ingest produces for one stream window."""

    table: ObservationTable
    config: FocusConfig
    clusters: ClusterSummary
    index: IndexReader  # TopKIndex or LazyTopKIndex behind one protocol
    suppressed: np.ndarray
    cnn_inferences: int
    ingest_gpu_seconds: float

    @property
    def suppression_ratio(self) -> float:
        n = len(self.table)
        return float(self.suppressed.sum()) / n if n else 0.0


class IngestPipeline:
    """Runs ingest for one stream window under one configuration."""

    def __init__(
        self,
        config: FocusConfig,
        ledger: Optional[GPULedger] = None,
        max_live_clusters: int = 512,
        index_mode: str = "lazy",
    ):
        self._build_index = index_builder(index_mode)
        self.config = config
        self.ledger = ledger or GPULedger()
        self.max_live_clusters = max_live_clusters

    def run(self, table: ObservationTable) -> IngestResult:
        """Ingest all observations of ``table``."""
        config = self.config
        if config.pixel_diff:
            suppressed = simulate_pixel_diff(table)
        else:
            suppressed = np.zeros(len(table), dtype=bool)

        clusters = cluster_table(
            table,
            config.model,
            threshold=config.cluster_threshold,
            max_live_clusters=self.max_live_clusters,
            suppressed=suppressed,
        )
        index = self._build_index(table, config.model, config.k, clusters)

        inferences = int(len(table) - suppressed.sum())
        entry = self.ledger.record(
            CostCategory.INGEST_CNN,
            config.model,
            inferences,
            note="stream=%s" % table.stream,
        )
        return IngestResult(
            table=table,
            config=config,
            clusters=clusters,
            index=index,
            suppressed=suppressed,
            cnn_inferences=inferences,
            ingest_gpu_seconds=entry.gpu_seconds,
        )
