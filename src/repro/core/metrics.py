"""Accuracy metrics on one-second segments.

The paper's ground-truth criterion (Section 6.1): a class is *present*
in a one-second segment if the GT-CNN reports it in at least 50% of the
frames of that segment -- smoothing out frame-level flicker.  Precision
and recall are computed between the query's returned segments and the
ground-truth segments under the same criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set

import numpy as np

from repro.video.synthesis import ObservationTable


@dataclass(frozen=True)
class SegmentMetrics:
    """Precision/recall over one-second segments for one class query."""

    class_id: int
    true_segments: int
    returned_segments: int
    correct_segments: int

    @property
    def precision(self) -> float:
        if self.returned_segments == 0:
            return 1.0
        return self.correct_segments / self.returned_segments

    @property
    def recall(self) -> float:
        if self.true_segments == 0:
            return 1.0
        return self.correct_segments / self.true_segments

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) > 0 else 0.0


def _segments_from_rows(
    table: ObservationTable, rows: np.ndarray, threshold_frames: float
) -> Set[int]:
    """Seconds in which the rows cover >= threshold_frames distinct frames."""
    if len(rows) == 0:
        return set()
    seconds = np.floor(table.time_s[rows]).astype(np.int64)
    frames = np.asarray(table.frame_idx[rows], dtype=np.int64)
    # one int64 key per (second, frame) pair: a 1-D unique sorts machine
    # words, where unique(axis=0) over stacked pairs sorts structured rows
    lo = int(frames.min())
    span = int(frames.max()) - lo + 1
    pairs = np.unique(seconds * span + (frames - lo))
    secs, counts = np.unique(pairs // span, return_counts=True)
    return {int(s) for s, c in zip(secs, counts) if c >= threshold_frames}


def gt_segments(table: ObservationTable, class_id: int) -> Set[int]:
    """Ground-truth segments for a class (the paper's 50%-of-frames rule)."""
    rows = np.nonzero(table.class_id == class_id)[0]
    return _segments_from_rows(table, rows, threshold_frames=0.5 * table.fps)


def result_segments(table: ObservationTable, returned_rows: np.ndarray) -> Set[int]:
    """Segments asserted by a query result, under the same 50% rule.

    ``returned_rows`` are the observation rows of all returned cluster
    members -- the objects Focus claims belong to the queried class.
    """
    return _segments_from_rows(
        table, np.asarray(returned_rows, dtype=np.int64), threshold_frames=0.5 * table.fps
    )


def segment_metrics(
    table: ObservationTable, class_id: int, returned_rows: np.ndarray
) -> SegmentMetrics:
    """Compare a query's returned rows against ground truth."""
    truth = gt_segments(table, class_id)
    reported = result_segments(table, returned_rows)
    return SegmentMetrics(
        class_id=class_id,
        true_segments=len(truth),
        returned_segments=len(reported),
        correct_segments=len(truth & reported),
    )


def segment_metrics_in_range(
    table: ObservationTable,
    class_id: int,
    returned_rows: np.ndarray,
    time_range: Optional[tuple] = None,
    truth: Optional[Set[int]] = None,
) -> SegmentMetrics:
    """Like :func:`segment_metrics`, with ground truth restricted to a
    [start, end) window when ``time_range`` is given.

    The returned rows are expected to already be window-filtered (the
    query engine drops out-of-range rows in QT4).  ``truth`` is
    ``gt_segments(table, class_id)`` when the caller already holds it
    (:meth:`repro.core.query.QueryEngine.metrics` does); it is only read.
    """
    if truth is None:
        truth = gt_segments(table, class_id)
    if time_range is not None:
        start, end = time_range
        truth = {s for s in truth if start <= s < end}
    reported = result_segments(table, returned_rows)
    return SegmentMetrics(
        class_id=class_id,
        true_segments=len(truth),
        returned_segments=len(reported),
        correct_segments=len(truth & reported),
    )


def evaluate_query(
    table: ObservationTable, class_id: int, returned_rows: np.ndarray
) -> SegmentMetrics:
    """Alias of :func:`segment_metrics` with the query-centric name."""
    return segment_metrics(table, class_id, returned_rows)


@dataclass(frozen=True)
class StreamAccuracy:
    """Accuracy aggregated over a stream's dominant classes.

    The paper evaluates "all dominant object classes" per stream and
    averages (Section 6.1).  We weight by ground-truth segment counts so
    rare-but-dominant classes do not swamp the average.
    """

    per_class: Dict[int, SegmentMetrics]

    @property
    def precision(self) -> float:
        return self._weighted(lambda m: m.precision, lambda m: max(m.returned_segments, 1))

    @property
    def recall(self) -> float:
        return self._weighted(lambda m: m.recall, lambda m: max(m.true_segments, 1))

    def _weighted(self, value_fn, weight_fn) -> float:
        metrics = list(self.per_class.values())
        if not metrics:
            return 1.0
        weights = [weight_fn(m) for m in metrics]
        total = sum(weights)
        return sum(value_fn(m) * w for m, w in zip(metrics, weights)) / total

    @property
    def min_precision(self) -> float:
        if not self.per_class:
            return 1.0
        return min(m.precision for m in self.per_class.values())

    @property
    def min_recall(self) -> float:
        if not self.per_class:
            return 1.0
        return min(m.recall for m in self.per_class.values())
