"""The correctness oracle: a single-node, one-shot reference.

Every path the workloads drive -- tuned, chunked, journaled,
recovered, sharded, cross-process, cached -- must answer exactly what
one ``IngestPipeline.run`` over the whole table followed by plain
``QueryEngine.query`` calls answers.  Answers are compared by frame
array and candidate count and folded into one digest per round, so
two commits can be compared by their digests.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Hashable, Iterable, Optional, Tuple

import numpy as np

from repro.cnn.zoo import resnet152
from repro.core.config import FocusConfig
from repro.core.ingest import IngestPipeline, IngestResult
from repro.core.query import QueryEngine, QueryResult
from repro.video.synthesis import ObservationTable

TimeRange = Optional[Tuple[float, float]]


class Reference:
    """One-shot ingest of each table plus memoized reference queries."""

    def __init__(
        self,
        tables: Dict[str, ObservationTable],
        configs: Dict[str, FocusConfig],
        index_mode: str,
    ):
        self.gt_model = resnet152()
        self.tables = tables
        self.ingests: Dict[str, IngestResult] = {}
        self.engines: Dict[str, QueryEngine] = {}
        for name, table in tables.items():
            config = configs[name]
            ingest = IngestPipeline(config, index_mode=index_mode).run(table)
            self.ingests[name] = ingest
            self.engines[name] = QueryEngine(
                ingest.index, table, config.model, self.gt_model
            )
        self._memo: Dict[Hashable, QueryResult] = {}

    def clusters(self, stream: str) -> int:
        return int(self.ingests[stream].clusters.num_clusters)

    def query(self, stream: str, class_id: int, time_range: TimeRange = None) -> QueryResult:
        key = (stream, int(class_id), time_range)
        result = self._memo.get(key)
        if result is None:
            result = self.engines[stream].query(int(class_id), time_range=time_range)
            self._memo[key] = result
        return result

    def matches(
        self,
        stream: str,
        class_id: int,
        time_range: TimeRange,
        frames: np.ndarray,
        candidates: Optional[int] = None,
    ) -> bool:
        """Does one served single-stream answer equal the reference's?

        ``candidates`` is the number of centroids the GT-CNN had to
        look at (``gt_inferences`` of an uncached query); pass None
        where a verification cache or another index variant makes the
        served count legitimately differ.
        """
        want = self.query(stream, class_id, time_range)
        if candidates is not None and int(candidates) != want.gt_inferences:
            return False
        return np.array_equal(np.asarray(frames), want.returned_frames)

    def matches_multi(self, answer, class_id: int, streams: Iterable[str], time_range: TimeRange) -> bool:
        """A cross-stream answer: every slice's frames, and the summed
        candidate count (cache hits do not change what was planned)."""
        streams = list(streams)
        if sorted(answer.slices) != sorted(streams):
            return False
        planned = 0
        for stream in streams:
            want = self.query(stream, class_id, time_range)
            planned += want.gt_inferences
            if not np.array_equal(answer.slices[stream].frames, want.returned_frames):
                return False
        return int(answer.candidates) == planned

    # -- simulated economics (the paper's two axes) ------------------------
    def ingest_cheaper_x(self, focus_ingest_gpu_s: float) -> float:
        """Ingest-all GPU-seconds over Focus ingest GPU-seconds."""
        baseline = sum(
            self.gt_model.cost_seconds(len(t)) for t in self.tables.values()
        )
        return baseline / focus_ingest_gpu_s

    def query_faster_x(self) -> float:
        """Query-all GPU-seconds over Focus query GPU-seconds, summed
        over every (stream, dominant class) full-range query."""
        baseline = focus = 0.0
        for name, table in self.tables.items():
            for class_id in table.dominant_classes(0.95):
                baseline += self.gt_model.cost_seconds(len(table))
                focus += self.query(name, class_id).gpu_seconds
        return baseline / focus


class Digest:
    """Order-sensitive hash of a round's answers."""

    def __init__(self):
        self._h = hashlib.sha1()

    def add(self, label: str, frames: np.ndarray, *counts: int) -> None:
        self._h.update(label.encode("utf-8"))
        self._h.update(np.ascontiguousarray(frames, dtype=np.int64).tobytes())
        self._h.update(repr(tuple(int(c) for c in counts)).encode("utf-8"))

    def hexdigest(self) -> str:
        return self._h.hexdigest()
