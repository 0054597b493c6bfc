"""Video-specific CNN specialization (Section 4.3).

A specialized model is retrained on the Ls most frequent classes of one
stream plus an "OTHER" bucket.  Differentiating ~tens of constrained
classes instead of 1000 generic ones makes the model both cheaper
(paper: ~10x cheaper than even the generic compressed CNN, 7-71x
cheaper than GT overall) and more accurate (K = 2-4 suffices for the
top-K index instead of 60-200).

The specialized model's output space is {head classes} + {OTHER}; a
query for a class outside the head is served through the OTHER bucket
(all OTHER-matching clusters are verified with GT-CNN at query time).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.cnn.calibration import INGEST, NOISE
from repro.cnn.costs import ArchSpec
from repro.cnn.hashing import combine, hash_uniform, mix64, stable_salt
from repro.cnn.model import ClassifierModel
from repro.cnn.noise import true_class_ranks
from repro.video.synthesis import ObservationTable

#: Sentinel class id for the specialized model's OTHER bucket.
OTHER_CLASS = -1

#: Specialized models never get cheaper than this factor vs an 11.4
#: GFLOP GT-CNN -- there is a floor to how small a useful stream-specific
#: model can be.  Together with pixel differencing (~1.4x) this puts the
#: cheapest ingest configurations at ~140x, the paper's Opt-Ingest max.
_MIN_GFLOPS = 11.4 / 100.0

_SLOT_SALT = stable_salt("spec-slot")


def specialized_dispersion(source: ClassifierModel, ls: int, cost_divisor: float) -> float:
    """Dispersion of a specialized model within its Ls+1-class space.

    Fit so that typical configurations reach the paper's operating
    point: K = 2-4 meets a 95%+ recall target (Section 4.3).  More head
    classes and cheaper sources both make the task slightly harder.
    """
    base = 0.45 + 0.010 * ls
    source_penalty = (max(source.dispersion, 1.0) / 24.0) ** 0.5
    divisor_penalty = (cost_divisor / INGEST.specialization_cost_divisor) ** 0.35
    return base * source_penalty * divisor_penalty


class SpecializedClassifier(ClassifierModel):
    """A per-stream specialized classifier with an OTHER bucket."""

    def __init__(
        self,
        name: str,
        arch: ArchSpec,
        dispersion: float,
        head_classes: Sequence[int],
        source_name: str,
        feature_noise: float = 1.0,
        confusion_mass: float = NOISE.specialized_confusion_mass,
    ):
        head = [int(c) for c in head_classes]
        if len(head) != len(set(head)):
            raise ValueError("head_classes must be distinct")
        if OTHER_CLASS in head:
            raise ValueError("OTHER_CLASS cannot be a head class")
        if not head:
            raise ValueError("a specialized model needs at least one head class")
        super().__init__(
            name=name,
            arch=arch,
            dispersion=dispersion,
            feature_noise=feature_noise,
            num_classes=len(head) + 1,
        )
        self.head_classes = np.asarray(sorted(head), dtype=np.int64)
        self.head_set = frozenset(head)
        self.source_name = source_name
        self.confusion_mass = confusion_mass

    # -- class-space mapping -------------------------------------------------
    @property
    def ls(self) -> int:
        return len(self.head_classes)

    @property
    def space_size(self) -> int:
        return self.ls + 1

    def space_tokens(self) -> List[int]:
        """All output tokens: head class ids plus OTHER_CLASS."""
        return [int(c) for c in self.head_classes] + [OTHER_CLASS]

    def map_to_space(self, class_ids: np.ndarray) -> np.ndarray:
        """Map true class ids onto the model's output space."""
        class_ids = np.asarray(class_ids)
        in_head = np.isin(class_ids, self.head_classes)
        mapped = np.where(in_head, class_ids, OTHER_CLASS)
        return mapped

    def query_token(self, class_id: int) -> int:
        """The index token used to query for a class: itself if in the
        head, otherwise OTHER (Section 4.3, '"OTHER" class')."""
        return class_id if class_id in self.head_set else OTHER_CLASS

    # -- classification ------------------------------------------------------
    def ranks(self, table: ObservationTable) -> np.ndarray:
        """Rank of the *mapped* true label within the Ls+1 space."""
        return true_class_ranks(
            self.salt,
            table.observation_seeds(),
            table.difficulty,
            self.dispersion,
            self.space_size,
        )

    def _slot_probability(self) -> float:
        """P(one spurious slot == a given other token), uniform in-space."""
        if self.space_size <= 1:
            return 0.0
        return self.confusion_mass / (self.space_size - 1)

    def topk_membership(
        self, table: ObservationTable, query_class: int, k: int
    ) -> np.ndarray:
        """Whether the query token appears in each observation's top-K.

        ``query_class`` may be a head class id or OTHER_CLASS; callers
        querying a tail class should first map through
        :meth:`query_token`.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        token = query_class
        if token != OTHER_CLASS and token not in self.head_set:
            raise ValueError(
                "class %d is not in this specialized model's space; "
                "query via query_token()" % token
            )
        mapped = self.map_to_space(table.class_id)
        ranks = self.ranks(table)
        member = (mapped == token) & (ranks <= k)
        others = mapped != token
        if others.any() and k > 1:
            p_member = 1.0 - (1.0 - self._slot_probability()) ** (k - 1)
            u = hash_uniform(
                combine(
                    table.observation_seeds(),
                    np.uint64(self.salt),
                    np.uint64(stable_salt("spec-member:%d" % token)),
                )
            )
            member |= others & (u < p_member)
        return member

    def topk_lists(
        self,
        obs_seeds: np.ndarray,
        true_classes: np.ndarray,
        difficulties: np.ndarray,
        k: int,
    ) -> List[List[int]]:
        """Batched :meth:`topk_list` over the specialized token space.

        Overrides the generic-model batch path: specialized entries are
        a deterministic per-object shuffle of the Ls+1 token space, not
        confusion-pool draws.  The shuffle keys are hashed as one grid.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        obs_seeds = np.asarray(obs_seeds, dtype=np.uint64)
        true_classes = np.asarray(true_classes, dtype=np.int64)
        mapped = self.map_to_space(true_classes)
        ranks = true_class_ranks(
            self.salt, obs_seeds, np.asarray(difficulties, dtype=np.float64),
            self.dispersion, self.space_size,
        )
        k_eff = min(k, self.space_size)
        all_tokens = self.space_tokens()
        n_other = len(all_tokens) - 1
        # deterministic shuffle of the other tokens, seeded per object
        keys = combine(
            obs_seeds, np.uint64(self.salt), np.uint64(_SLOT_SALT)
        )[:, np.newaxis]
        with np.errstate(over="ignore"):
            grid = mix64(keys + np.arange(n_other, dtype=np.uint64)[np.newaxis, :])
        orders = np.argsort(grid, axis=1)
        out: List[List[int]] = []
        for i in range(len(obs_seeds)):
            token = int(mapped[i])
            rank = int(ranks[i])
            tokens = [t for t in all_tokens if t != token]
            shuffled = [tokens[j] for j in orders[i]]
            ranked: List[int] = []
            slot_iter = iter(shuffled)
            for position in range(1, k_eff + 1):
                if position == rank:
                    ranked.append(token)
                else:
                    try:
                        ranked.append(next(slot_iter))
                    except StopIteration:
                        break
            out.append(ranked)
        return out


def head_classes_from_histogram(histogram: Mapping[int, int], ls: int) -> List[int]:
    """The Ls most frequent classes of a sampled ground-truth histogram."""
    if ls < 1:
        raise ValueError("ls must be >= 1")
    ranked = sorted(histogram.items(), key=lambda kv: (-kv[1], kv[0]))
    return [cid for cid, _ in ranked[:ls]]


def specialize(
    source: ClassifierModel,
    histogram: Mapping[int, int],
    ls: int,
    stream: str,
    cost_divisor: float = None,
) -> SpecializedClassifier:
    """Build a per-stream specialized model (Section 4.3, Model Retraining).

    Args:
        source: the generic compressed model the specialization starts
            from (its architecture family and cost anchor).
        histogram: class -> count from a GT-CNN-labelled sample of the
            stream (the periodic ground-truth sampling of Section 4.3).
        ls: number of head classes to retain.
        stream: stream name (specialized models are per-stream; the
            name also seeds the model's noise so two streams' models
            behave independently).
        cost_divisor: how much cheaper than the source the specialized
            model is; defaults to the calibrated ~10x of Section 4.3.
    """
    if not histogram:
        raise ValueError("histogram is empty; sample the stream first")
    divisor = INGEST.specialization_cost_divisor if cost_divisor is None else cost_divisor
    if divisor <= 0:
        raise ValueError("cost_divisor must be positive")
    head = head_classes_from_histogram(histogram, ls)
    ls_actual = len(head)
    gflops = max(source.gflops / divisor * (1.0 + 0.004 * ls_actual), _MIN_GFLOPS)
    arch = ArchSpec(
        family="specialized",
        conv_layers=max(1, source.arch.conv_layers * 2 // 3),
        input_px=max(8, source.arch.input_px // 2),
        gflops_override=gflops,
    )
    dispersion = specialized_dispersion(source, ls_actual, divisor)
    name = "spec-%s-%s-ls%d-d%g" % (stream, source.name, ls_actual, divisor)
    return SpecializedClassifier(
        name=name,
        arch=arch,
        dispersion=dispersion,
        head_classes=head,
        source_name=source.name,
        feature_noise=source.feature_noise * 0.8,
    )


def specialization_ladder(
    sources: Sequence[ClassifierModel],
    histogram: Mapping[int, int],
    stream: str,
    ls_values: Sequence[int] = (5, 10, 20, 50),
    cost_divisors: Sequence[float] = (6.0, 10.0),
) -> List[SpecializedClassifier]:
    """The specialized-model search space added to the ingest candidates."""
    ladder = []
    available = len(histogram)
    if available == 0:
        return ladder
    seen = set()
    for source in sources:
        for ls in ls_values:
            ls_actual = min(ls, available)
            for divisor in cost_divisors:
                key = (source.name, ls_actual, divisor)
                if key in seen:
                    continue
                seen.add(key)
                ladder.append(
                    specialize(source, histogram, ls_actual, stream, cost_divisor=divisor)
                )
    return ladder
