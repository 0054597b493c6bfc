"""The paper's primary contribution: the Focus ingest/query system.

Ingest-time (Figure 4, IT1-IT4): classify detected objects with a cheap
per-stream CNN, cluster them by feature vector, and index each cluster
under the top-K classes of its centroid.  Query-time (QT1-QT4): look up
the clusters matching the queried class, verify only their centroids
with the expensive GT-CNN, and return the frames of verified clusters.
A tuner picks the cheap CNN, K, Ls and the clustering threshold T per
stream to meet precision/recall targets while trading ingest cost
against query latency (Section 4.4).
"""

from repro.core.config import AccuracyTarget, FocusConfig, Policy, TunerSettings
from repro.core.costmodel import CostCategory, GPULedger
from repro.core.clustering import ClusterSummary, IncrementalClusterer, cluster_table
from repro.core.index import IndexReader, LazyTopKIndex, TopKIndex
from repro.core.ingest import IngestPipeline, IngestResult, simulate_pixel_diff
from repro.core.query import QueryEngine, QueryResult
from repro.core.streaming import ChunkReport, StreamIngestor
from repro.core.metrics import (
    SegmentMetrics,
    gt_segments,
    result_segments,
    segment_metrics,
)
from repro.core.tuning import CandidateConfig, ParameterTuner, TuningResult, pareto_front
from repro.core.system import FocusSystem, StreamHandle, QueryAnswer

__all__ = [
    "AccuracyTarget",
    "FocusConfig",
    "Policy",
    "TunerSettings",
    "CostCategory",
    "GPULedger",
    "ClusterSummary",
    "IncrementalClusterer",
    "cluster_table",
    "IndexReader",
    "TopKIndex",
    "LazyTopKIndex",
    "IngestPipeline",
    "IngestResult",
    "simulate_pixel_diff",
    "ChunkReport",
    "StreamIngestor",
    "QueryEngine",
    "QueryResult",
    "SegmentMetrics",
    "gt_segments",
    "result_segments",
    "segment_metrics",
    "CandidateConfig",
    "ParameterTuner",
    "TuningResult",
    "pareto_front",
    "FocusSystem",
    "StreamHandle",
    "QueryAnswer",
]
