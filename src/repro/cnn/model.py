"""The simulated classifier model.

``ClassifierModel`` bundles the three interfaces Focus consumes from a
CNN -- ranked classification output, penultimate-layer features, and
per-inference GPU cost -- behind one object.  All classification
behaviour is a pure function of (model, observation), vectorized over
:class:`~repro.video.synthesis.ObservationTable` rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.cnn.costs import ArchSpec, GPUSpec, DEFAULT_GPU, inference_seconds
from repro.cnn.features import FeatureExtractor
from repro.cnn.hashing import combine, hash_uniform, mix64, stable_salt
from repro.cnn.noise import ConfusionModel, default_confusion, true_class_ranks
from repro.video.classes import NUM_CLASSES
from repro.video.synthesis import ObservationTable


@dataclass(frozen=True)
class ClassificationResult:
    """Ranked output of one model on one object (single-object API)."""

    model_name: str
    ranked_classes: List[int]
    true_class: int
    true_rank: int

    @property
    def top1(self) -> int:
        return self.ranked_classes[0]

    def contains(self, class_id: int, k: Optional[int] = None) -> bool:
        prefix = self.ranked_classes if k is None else self.ranked_classes[:k]
        return class_id in prefix


class ClassifierModel:
    """A simulated image classifier.

    Attributes:
        name: unique model name (also seeds its noise).
        arch: architecture (drives the GPU-cost model).
        dispersion: rank-dispersion constant; 0 means ground truth.
            ``recall@K ~= 1 - exp(-K / (dispersion * difficulty))``.
        feature_noise: multiplier on per-observation feature jitter
            (cheaper models embed less sharply).
        num_classes: size of the model's output space.
    """

    def __init__(
        self,
        name: str,
        arch: ArchSpec,
        dispersion: float,
        feature_noise: float = 1.0,
        num_classes: int = NUM_CLASSES,
        confusion: Optional[ConfusionModel] = None,
    ):
        if dispersion < 0:
            raise ValueError("dispersion must be non-negative")
        self.name = name
        self.arch = arch
        self.dispersion = dispersion
        self.feature_noise = feature_noise
        self.num_classes = num_classes
        self.confusion = confusion or default_confusion()
        self.salt = stable_salt("model:" + name)
        self._extractor = FeatureExtractor(self.salt, noise_multiplier=feature_noise)

    # -- cost --------------------------------------------------------------
    @property
    def gflops(self) -> float:
        return self.arch.gflops

    def cost_seconds(self, n_inferences: int = 1, gpu: GPUSpec = DEFAULT_GPU) -> float:
        """GPU-seconds to classify ``n_inferences`` objects."""
        return inference_seconds(self.arch, gpu, batch=n_inferences)

    def cheaper_than(self, other: "ClassifierModel") -> float:
        """Cost ratio ``other / self`` (how many times cheaper this is)."""
        return other.gflops / self.gflops

    @property
    def is_ground_truth(self) -> bool:
        return self.dispersion == 0

    # -- classification ------------------------------------------------------
    def ranks(self, table: ObservationTable) -> np.ndarray:
        """Rank of each observation's true class in this model's output."""
        return true_class_ranks(
            self.salt,
            table.observation_seeds(),
            table.difficulty,
            self.dispersion,
            self.num_classes,
        )

    def predicted_top1(self, table: ObservationTable) -> np.ndarray:
        """The model's top-most class per observation.

        The ground-truth model always answers the true class; cheap
        models answer a confusion draw whenever their true-class rank
        slipped below 1.
        """
        ranks = self.ranks(table)
        predicted = table.class_id.copy()
        wrong = ranks > 1
        if wrong.any():
            idx = np.nonzero(wrong)[0]
            seeds = table.observation_seeds()[idx]
            for j, row in enumerate(idx):
                slots = self.confusion.sample_slots(
                    self.salt, int(seeds[j]), int(table.class_id[row]), 1
                )
                predicted[row] = slots[0]
        return predicted

    def topk_membership(
        self, table: ObservationTable, query_class: int, k: int
    ) -> np.ndarray:
        """Whether ``query_class`` appears in each observation's top-K.

        Union of (a) the true class ranking within K and (b) the
        spurious-slot confusion process -- the two ways a class enters a
        top-K index entry (Section 4.1).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        ranks = self.ranks(table)
        member = (table.class_id == query_class) & (ranks <= k)
        others = table.class_id != query_class
        if others.any() and k > 1:
            seeds = table.observation_seeds()
            spurious = self.confusion.spurious_membership(
                self.salt, seeds, table.class_id, query_class, k
            )
            member |= others & spurious
        return member

    def topk_list(
        self, obs_seed: int, true_class: int, difficulty: float, k: int
    ) -> List[int]:
        """Materialized ranked top-K class list for one observation.

        Used when the ingest index is written out explicitly.  The true
        class sits at its sampled rank when that rank is within K;
        spurious confusion classes fill the remaining slots.
        """
        return self.topk_lists(
            np.asarray([obs_seed], dtype=np.uint64),
            np.asarray([true_class], dtype=np.int64),
            np.asarray([difficulty], dtype=np.float64),
            k,
        )[0]

    def topk_lists(
        self,
        obs_seeds: np.ndarray,
        true_classes: np.ndarray,
        difficulties: np.ndarray,
        k: int,
    ) -> List[List[int]]:
        """:meth:`topk_list` for a batch of observations.

        Index materialization calls this once per chunk/build instead
        of per cluster: ranks and the spurious-slot draws are generated
        vectorized (the per-centroid scalar path used to dominate
        materialized-index ingest).  Bit-identical to mapping
        :meth:`topk_list` over the rows.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        obs_seeds = np.asarray(obs_seeds, dtype=np.uint64)
        true_classes = np.asarray(true_classes, dtype=np.int64)
        ranks = true_class_ranks(
            self.salt, obs_seeds, np.asarray(difficulties, dtype=np.float64),
            self.dispersion, self.num_classes,
        )
        k_eff = min(k, self.num_classes)
        needed = np.where(ranks <= k_eff, k_eff - 1, k_eff)
        slots = self.confusion.sample_slots_batch(
            self.salt, obs_seeds, true_classes, needed
        )
        out: List[List[int]] = []
        for i in range(len(obs_seeds)):
            rank = int(ranks[i])
            ranked: List[int] = []
            slot_iter = iter(slots[i])
            for position in range(1, k_eff + 1):
                if position == rank:
                    ranked.append(int(true_classes[i]))
                else:
                    try:
                        ranked.append(next(slot_iter))
                    except StopIteration:
                        break
            out.append(ranked)
        return out

    def classify_one(
        self, obs_seed: int, true_class: int, difficulty: float, k: int = 5
    ) -> ClassificationResult:
        """Single-object classification (examples / interactive use)."""
        ranked = self.topk_list(obs_seed, true_class, difficulty, k)
        seeds = np.asarray([obs_seed], dtype=np.uint64)
        rank = int(
            true_class_ranks(
                self.salt, seeds, np.asarray([difficulty]), self.dispersion, self.num_classes
            )[0]
        )
        return ClassificationResult(
            model_name=self.name,
            ranked_classes=ranked,
            true_class=true_class,
            true_rank=rank,
        )

    # -- features -------------------------------------------------------------
    @property
    def feature_dim(self) -> int:
        return self._extractor.dim

    def features(self, table: ObservationTable) -> np.ndarray:
        """Penultimate-layer feature vectors [n, dim]."""
        return self._extractor.extract(table)

    def feature_extractor(self) -> FeatureExtractor:
        return self._extractor

    # -- misc --------------------------------------------------------------
    def expected_recall_at_k(self, k: int, difficulty: float = 1.0) -> float:
        """Analytic recall@K under the rank-dispersion model."""
        if self.dispersion == 0:
            return 1.0
        return 1.0 - float(np.exp(-k / (self.dispersion * difficulty)))

    def k_for_recall(self, recall: float, difficulty: float = 1.0) -> int:
        """Smallest K achieving ``recall`` under the analytic model."""
        if not 0.0 < recall < 1.0:
            raise ValueError("recall must be in (0, 1)")
        if self.dispersion == 0:
            return 1
        k = -self.dispersion * difficulty * np.log(1.0 - recall)
        return max(1, int(np.ceil(k)))

    def __repr__(self) -> str:
        return "ClassifierModel(name=%r, gflops=%.3f, dispersion=%.2f)" % (
            self.name,
            self.gflops,
            self.dispersion,
        )
