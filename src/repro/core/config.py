"""Configuration types for Focus."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.cnn.model import ClassifierModel


class Policy(enum.Enum):
    """The ingest-cost vs query-latency trade-off policies (Section 4.4).

    * ``OPT_INGEST`` minimizes ingest cost -- for streams that are
      rarely queried (most surveillance video).
    * ``BALANCE`` (default) minimizes the sum of ingest and query GPU
      cost.
    * ``OPT_QUERY`` minimizes query latency -- for streams needing fast
      turnaround.
    """

    OPT_INGEST = "opt-ingest"
    BALANCE = "balance"
    OPT_QUERY = "opt-query"


@dataclass(frozen=True)
class AccuracyTarget:
    """User-specified precision/recall targets relative to the GT-CNN.

    The paper's default is 95%/95% (Section 6.1); it also evaluates
    97/98/99% (Section 6.5).
    """

    precision: float = 0.95
    recall: float = 0.95

    def __post_init__(self):
        for name, value in (("precision", self.precision), ("recall", self.recall)):
            if not 0.0 < value <= 1.0:
                raise ValueError("%s target must be in (0, 1], got %r" % (name, value))


@dataclass(frozen=True)
class FocusConfig:
    """One concrete operating point: the tuner's output.

    Attributes:
        model: the ingest-time cheap CNN (generic or specialized).
        k: top-K index width.
        cluster_threshold: feature-distance threshold T for the
            single-pass clusterer.
        pixel_diff: whether ingest applies pixel differencing between
            adjacent frames (Section 4.2).
    """

    model: ClassifierModel
    k: int
    cluster_threshold: float
    pixel_diff: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.cluster_threshold < 0:
            raise ValueError("cluster_threshold must be non-negative")

    def describe(self) -> str:
        return "%s, K=%d, T=%.2f%s" % (
            self.model.name,
            self.k,
            self.cluster_threshold,
            "" if self.pixel_diff else ", no pixel-diff",
        )


@dataclass(frozen=True)
class TunerSettings:
    """Search-space and sampling settings for the parameter tuner.

    Defaults keep the sweep tractable while covering the paper's
    parameter ranges: generic K up to 200 (Figure 5), specialized
    K = 2-8 (Section 4.3), Ls in {5, 10, 20, 50}, and a T grid spanning
    per-track to cross-track clustering.
    """

    k_grid_generic: Tuple[int, ...] = (10, 20, 60, 100, 200)
    k_grid_specialized: Tuple[int, ...] = (1, 2, 4, 6, 8)
    t_grid: Tuple[float, ...] = (0.04, 0.06, 0.09, 0.12, 0.16)
    ls_values: Tuple[int, ...] = (5, 10, 20, 50)
    specialization_divisors: Tuple[float, ...] = (6.0, 10.0)
    sample_fraction: float = 0.4
    max_sample_seconds: float = 180.0
    include_generic: bool = True
    max_candidates_per_model: int = 2
    dominant_coverage: float = 0.95
    #: Safety margin on sample-estimated accuracy: the tuner only
    #: accepts configurations whose *per-class minimum* precision and
    #: recall clear the target by this much on the sample, absorbing
    #: sampling error so the full-video accuracy still meets the target.
    accuracy_margin: float = 0.04
