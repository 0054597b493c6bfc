"""Rank-dispersion and class-confusion noise model.

A cheap CNN's key failure mode, as the paper characterizes it, is that
the *true* class slides down its ranked output: "the top-most result of
the expensive CNN falls within the top-K results of the cheap CNN"
(Section 1), with recall rising steadily in K (Figure 5).  We model the
true class's rank as ``1 + floor(Exponential(dispersion * difficulty))``
-- giving ``recall@K = 1 - exp(-K / (dispersion * difficulty))``, the
saturating curves of Figure 5 -- where *dispersion* is a per-model
constant that grows as the model gets cheaper and *difficulty* is a
per-object hardness factor.

The remaining top-K slots are spurious entries drawn from a confusion
distribution: mostly classes visually confusable with the true class
(its domain pool), with a uniform tail.  These spurious entries are
what cap the top-K index's precision at ~1/K (Section 4.1) and inflate
query-time work.

Everything is a pure function of (model salt, observation seed), so
repeated evaluation anywhere in the pipeline agrees.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cnn.calibration import NOISE, NoiseCalibration
from repro.cnn.hashing import combine, hash_uniform, mix64, stable_salt
from repro.video.classes import NUM_CLASSES, confusable_pool

_RANK_SALT = stable_salt("rank")
_SLOT_SALT = stable_salt("slot")
_POOL_SALT = stable_salt("pool-choice")


def true_class_ranks(
    model_salt: int,
    obs_seeds: np.ndarray,
    difficulty: np.ndarray,
    dispersion: float,
    num_classes: int = NUM_CLASSES,
) -> np.ndarray:
    """Rank (1-based) of the true class in the model's output.

    ``dispersion == 0`` models the ground-truth CNN: always rank 1.
    """
    if dispersion < 0:
        raise ValueError("dispersion must be non-negative")
    n = len(obs_seeds)
    if dispersion == 0:
        return np.ones(n, dtype=np.int64)
    u = hash_uniform(combine(obs_seeds, np.uint64(model_salt), np.uint64(_RANK_SALT)))
    scale = dispersion * np.asarray(difficulty, dtype=np.float64)
    ranks = 1 + np.floor(-scale * np.log1p(-u)).astype(np.int64)
    return np.minimum(ranks, num_classes)


class ConfusionModel:
    """Distribution of a model's spurious top-K entries.

    With probability ``pool_mass`` a spurious slot is a class from the
    true class's confusable pool; otherwise it is uniform over the
    model's class space.
    """

    def __init__(
        self,
        pool_mass: float = NOISE.pool_confusion_mass,
        num_classes: int = NUM_CLASSES,
    ):
        if not 0.0 <= pool_mass <= 1.0:
            raise ValueError("pool_mass must be in [0, 1]")
        self.pool_mass = pool_mass
        self.num_classes = num_classes
        self._pools = self._build_pools(num_classes)
        self._pool_size = np.array([len(self._pools[c]) for c in range(num_classes)])
        # membership matrix is sparse; store per-class sets for prob lookup
        self._pool_sets = [frozenset(p) for p in self._pools]
        self._pool_arrays = [np.asarray(p, dtype=np.int64) for p in self._pools]

    @staticmethod
    def _build_pools(num_classes: int) -> List[List[int]]:
        return [confusable_pool(cid) for cid in range(num_classes)]

    def __reduce__(self):
        # the pools are a pure function of the two parameters (and 99.7 %
        # of a pickled config): ship the parameters, rebuild on arrival
        return _restore_confusion, (self.pool_mass, self.num_classes)

    def slot_probability(self, true_classes: np.ndarray, query_class: int) -> np.ndarray:
        """P(one spurious slot == query_class) per observation."""
        true_classes = np.asarray(true_classes)
        base = (1.0 - self.pool_mass) / self.num_classes
        probs = np.full(len(true_classes), base, dtype=np.float64)
        in_pool = np.fromiter(
            (query_class in self._pool_sets[int(c)] for c in true_classes),
            dtype=bool,
            count=len(true_classes),
        )
        if in_pool.any():
            sizes = self._pool_size[true_classes[in_pool]]
            probs[in_pool] += self.pool_mass / sizes
        return probs

    def spurious_membership(
        self,
        model_salt: int,
        obs_seeds: np.ndarray,
        true_classes: np.ndarray,
        query_class: int,
        k: int,
    ) -> np.ndarray:
        """Whether ``query_class`` appears among the K-1 spurious slots.

        Deterministic per (model, observation, query class): computed by
        thresholding a hashed uniform at the analytic membership
        probability ``1 - (1 - p_slot)^(k-1)``.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if k == 1:
            return np.zeros(len(obs_seeds), dtype=bool)
        p_slot = self.slot_probability(true_classes, query_class)
        p_member = 1.0 - np.power(1.0 - p_slot, k - 1)
        u = hash_uniform(
            combine(
                obs_seeds,
                np.uint64(model_salt),
                np.uint64(stable_salt("member:%d" % query_class)),
            )
        )
        return u < p_member

    def sample_slots(
        self, model_salt: int, obs_seed: int, true_class: int, count: int
    ) -> List[int]:
        """Materialize ``count`` spurious slot classes for one object.

        Used when the top-K index is written out explicitly; duplicates
        and the true class are removed, backfilling from the uniform
        tail so the returned list has exactly ``count`` distinct classes
        (or the whole class space, if smaller).
        """
        return self.sample_slots_batch(
            model_salt,
            np.asarray([obs_seed], dtype=np.uint64),
            np.asarray([true_class], dtype=np.int64),
            np.asarray([count], dtype=np.int64),
        )[0]

    def _candidate_grid(
        self,
        model_salt: int,
        obs_seeds: np.ndarray,
        true_classes: np.ndarray,
        attempts: np.ndarray,
    ) -> np.ndarray:
        """Candidate class per (observation, attempt) -- vectorized over
        the whole grid, bit-identical to the per-attempt scalar draw."""
        seeds = obs_seeds.astype(np.uint64)[:, np.newaxis]
        att = attempts.astype(np.uint64)[np.newaxis, :]
        u = hash_uniform(
            combine(seeds, np.uint64(model_salt), np.uint64(_SLOT_SALT), att)
        )
        z = mix64(
            combine(seeds, np.uint64(model_salt), np.uint64(_POOL_SALT), att)
        )
        uniform_pick = (z % np.uint64(self.num_classes)).astype(np.int64)
        candidates = uniform_pick
        pool_sizes = self._pool_size[true_classes]
        use_pool = (u < self.pool_mass) & (pool_sizes > 0)[:, np.newaxis]
        if use_pool.any():
            pool_pick = np.empty_like(uniform_pick)
            for cls in np.unique(true_classes):
                pool = self._pool_arrays[int(cls)]
                rows = np.nonzero(true_classes == cls)[0]
                if len(pool):
                    pool_pick[rows] = pool[
                        (z[rows] % np.uint64(len(pool))).astype(np.int64)
                    ]
            candidates = np.where(use_pool, pool_pick, uniform_pick)
        return candidates

    def sample_slots_batch(
        self,
        model_salt: int,
        obs_seeds: np.ndarray,
        true_classes: np.ndarray,
        counts: np.ndarray,
    ) -> List[List[int]]:
        """:meth:`sample_slots` for many observations at once.

        The hashed candidate draws are generated as one vectorized
        grid (in blocks of attempts, since nearly every observation
        finishes within ``count + a few`` draws); only the tiny
        dedup walk per observation stays in Python.  Bit-identical to
        calling :meth:`sample_slots` per observation.
        """
        n = len(obs_seeds)
        obs_seeds = np.asarray(obs_seeds, dtype=np.uint64)
        true_classes = np.asarray(true_classes, dtype=np.int64)
        limits = np.minimum(np.asarray(counts, dtype=np.int64),
                            self.num_classes - 1)
        out: List[List[int]] = [[] for _ in range(n)]
        seen = [{int(true_classes[i])} for i in range(n)]
        active = [i for i in range(n) if limits[i] > 0]
        attempt_base = 0
        max_attempts = int(20 * limits.max() + 50) if n else 0
        block = int(limits.max()) + 8 if n else 0
        while active and attempt_base < max_attempts:
            stop = min(attempt_base + block, max_attempts)
            idx = np.asarray(active, dtype=np.int64)
            grid = self._candidate_grid(
                model_salt, obs_seeds[idx], true_classes[idx],
                np.arange(attempt_base, stop, dtype=np.int64),
            ).tolist()
            still = []
            for row, i in enumerate(idx.tolist()):
                chosen = out[i]
                seen_i = seen[i]
                limit = int(limits[i])
                cap = 20 * limit + 50  # per-row attempt budget (matches
                #                        the one-observation loop)
                for attempt, candidate in enumerate(grid[row],
                                                    start=attempt_base):
                    if attempt >= cap:
                        break
                    if candidate not in seen_i:
                        chosen.append(candidate)
                        seen_i.add(candidate)
                        if len(chosen) >= limit:
                            break
                if len(chosen) < limit and stop < cap:
                    still.append(i)
            active = still
            attempt_base = stop
            block *= 2
        for i in active:
            # deterministic backfill if rejection sampling stalled
            chosen, seen_i, limit = out[i], seen[i], limits[i]
            next_cid = 0
            while len(chosen) < limit:
                if next_cid not in seen_i:
                    chosen.append(next_cid)
                    seen_i.add(next_cid)
                next_cid += 1
        return out


_DEFAULT_CONFUSION: Optional[ConfusionModel] = None


def default_confusion() -> ConfusionModel:
    """Shared default confusion model (pools are static)."""
    global _DEFAULT_CONFUSION
    if _DEFAULT_CONFUSION is None:
        _DEFAULT_CONFUSION = ConfusionModel()
    return _DEFAULT_CONFUSION


def _restore_confusion(pool_mass: float, num_classes: int) -> ConfusionModel:
    """What a pickled :class:`ConfusionModel` loads as: this process's
    shared default when the parameters are the default's, else a new
    model built from them."""
    default = default_confusion()
    if (pool_mass, num_classes) == (default.pool_mass, default.num_classes):
        return default
    return ConfusionModel(pool_mass, num_classes)
