"""Feature-vector synthesis (the CNN's penultimate layer).

Section 2.2.3 of the paper establishes the properties Focus relies on:
images with nearby feature vectors are visually similar; the nearest
neighbour of an object's vector (even from cheap ResNet18) is the same
class >99% of the time; and the same physical object across consecutive
frames has nearly identical features, drifting slowly with pose.

We synthesize a tiered geometry (see
:class:`~repro.cnn.calibration.FeatureCalibration`):

    v = normalize( w_c * prototype(class)
                 + w_x * prototype(confusable neighbour)   # per-track pull
                 + w_a * appearance(track, t)              # rotating drift
                 + noise )

* ``prototype(class)`` mixes a shared *pool anchor* with a unique
  direction, so visually-confusable classes (car/taxi/pickup) sit close
  while unrelated classes are nearly orthogonal.
* the *confuser* pull gives each track a random proximity to one
  neighbouring class; loose clustering thresholds therefore absorb
  boundary objects of the wrong class and lose precision -- the paper's
  T trade-off (Section 4.4).
* ``appearance`` rotates with time in view, fragmenting long tracks
  into multiple clusters; consecutive observations stay ~noise apart.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cnn.calibration import FEATURES, FeatureCalibration
from repro.cnn.hashing import combine, hash_normal_matrix, hash_uniform, mix64, stable_salt
from repro.video.classes import confusable_pool, confusable_pool_key
from repro.video.synthesis import ObservationTable

_POOL_SALT = stable_salt("pool-anchor")
_UNIQUE_SALT = stable_salt("class-unique")
_APP0_SALT = stable_salt("appearance-0")
_APP1_SALT = stable_salt("appearance-1")
_NOISE_SALT = stable_salt("feature-noise")
_CONFUSER_PICK_SALT = stable_salt("confuser-pick")
_CONFUSER_WEIGHT_SALT = stable_salt("confuser-weight")
_APP_SCALE_SALT = stable_salt("appearance-scale")
_DRIFT_SCALE_SALT = stable_salt("drift-scale")
_HARD_MASK_SALT = stable_salt("hard-example")
_HARD_DIR_SALT = stable_salt("hard-direction")

#: Length of a hard episode in frames (at the native frame rate).
_HARD_EPISODE_FRAMES = 6

#: Per-track spread of the appearance magnitude and drift rate.  Tracks
#: with a small appearance component sit close to their class manifold
#: and are absorbed by coarse clusters at moderate T, while
#: strong-appearance tracks resist merging -- smearing the cluster-
#: collapse threshold into the gradual precision-vs-T trade-off the
#: paper's tuner navigates (Section 4.4).
_APP_SCALE_RANGE = (0.35, 1.40)
_DRIFT_SCALE_RANGE = (0.50, 1.50)


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return matrix / norms


class FeatureExtractor:
    """Synthesizes penultimate-layer feature vectors for observations.

    One extractor per classifier model: cheaper models add more
    per-observation noise (``noise_multiplier``) but share the global
    class geometry, mirroring how different CNNs learn comparable but
    differently-sharp embeddings.
    """

    #: rows per internal extraction block.  The pipeline makes ~25
    #: elementwise passes over [n, dim] intermediates; blocking keeps
    #: them cache-resident, which is worth ~3x on 100k-row windows.
    BLOCK_ROWS = 8192

    #: per-track cache cap; the cache is cleared wholesale beyond this
    #: (a live stream only ever has a few hundred concurrent tracks)
    TRACK_CACHE_MAX = 16384

    def __init__(
        self,
        model_salt: int,
        noise_multiplier: float = 1.0,
        calibration: FeatureCalibration = FEATURES,
    ):
        if noise_multiplier < 0:
            raise ValueError("noise_multiplier must be non-negative")
        self.model_salt = model_salt
        self.noise_multiplier = noise_multiplier
        self.calibration = calibration
        self._reset_memos()

    def _reset_memos(self) -> None:
        """Empty the four memo caches: pure-function memoization,
        rebuilt on demand, so dropping them never changes a feature."""
        #: dense class -> prototype row matrix (grown on demand), so
        #: the per-block prototype lookup is a single fancy gather
        self._proto_matrix = None
        self._proto_known = np.zeros(0, dtype=bool)
        #: class id -> ndarray of confusable neighbours (excluding self)
        self._neighbour_cache: dict = {}
        #: track seed -> (app0, app1, app_scale, drift_scale,
        #:               confuser_class, confuser_w); all of these are
        #: pure functions of the track, recomputed per chunk before --
        #: live ingest pushes the same tracks every chunk
        self._track_cache: dict = {}

    def __getstate__(self) -> dict:
        """Pickle the parameters only: a config sent over the worker
        wire must not drag the sender's memo caches along."""
        return {
            "model_salt": self.model_salt,
            "noise_multiplier": self.noise_multiplier,
            "calibration": self.calibration,
        }

    def __setstate__(self, state: dict) -> None:
        self._reset_memos()
        self.__dict__.update(state)

    @property
    def dim(self) -> int:
        return self.calibration.dim

    # -- class geometry ------------------------------------------------------
    def class_prototype(self, class_id: int) -> np.ndarray:
        """Unit prototype for a class: pool anchor + unique direction."""
        return self._prototypes_for(np.asarray([class_id]))[0]

    def _prototypes_for(self, class_ids: np.ndarray) -> np.ndarray:
        class_ids = np.asarray(class_ids, dtype=np.int64)
        matrix = self._proto_matrix
        if matrix is None or (len(class_ids) and
                              class_ids.max() >= len(self._proto_known)):
            self._grow_proto_matrix(int(class_ids.max()) + 1 if len(class_ids)
                                    else 1)
            matrix = self._proto_matrix
        if len(class_ids):
            unknown = ~self._proto_known[class_ids]
            if unknown.any():
                self._compute_prototypes(np.unique(class_ids[unknown]))
        # one dense gather instead of a per-unique stack + inverse index
        return matrix[class_ids]

    def _grow_proto_matrix(self, min_classes: int) -> None:
        # geometric headroom: growing one id at a time must stay
        # amortized O(1) per class, not a full realloc per call
        size = max(min_classes, 2 * len(self._proto_known), 64)
        matrix = np.zeros((size, self.dim), dtype=np.float64)
        known = np.zeros(size, dtype=bool)
        if self._proto_matrix is not None:
            matrix[: len(self._proto_known)] = self._proto_matrix
            known[: len(self._proto_known)] = self._proto_known
        self._proto_matrix = matrix
        self._proto_known = known

    def _compute_prototypes(self, miss: np.ndarray) -> None:
        calib = self.calibration
        miss = np.asarray(miss, dtype=np.int64)
        pool_keys = np.asarray(
            [confusable_pool_key(int(c)) for c in miss], dtype=np.uint64
        )
        anchors = _unit_rows(
            hash_normal_matrix(combine(pool_keys, np.uint64(_POOL_SALT)), self.dim)
        )
        uniques = _unit_rows(
            hash_normal_matrix(
                combine(miss.astype(np.uint64), np.uint64(_UNIQUE_SALT)), self.dim
            )
        )
        protos = _unit_rows(calib.pool_weight * anchors + calib.unique_weight * uniques)
        self._proto_matrix[miss] = protos
        self._proto_known[miss] = True

    def _confuser_classes(self, class_ids: np.ndarray, track_seeds: np.ndarray) -> np.ndarray:
        """Per track, one deterministic confusable neighbour class.

        Grouped by class (cached neighbour arrays) rather than a
        per-row Python loop: picks are vectorized per class group.
        """
        out = np.empty(len(class_ids), dtype=np.int64)
        picks = mix64(combine(track_seeds, np.uint64(_CONFUSER_PICK_SALT)))
        for cid in np.unique(class_ids):
            cid = int(cid)
            neighbours = self._neighbour_cache.get(cid)
            if neighbours is None:
                neighbours = np.asarray(
                    [c for c in confusable_pool(cid) if c != cid],
                    dtype=np.int64,
                )
                self._neighbour_cache[cid] = neighbours
            rows = np.nonzero(class_ids == cid)[0]
            if not len(neighbours):
                out[rows] = cid
            else:
                out[rows] = neighbours[
                    (picks[rows] % np.uint64(len(neighbours))).astype(np.int64)
                ]
        return out

    # -- per-track state (cached across chunks) ----------------------------
    def _track_profiles(self, unique_tracks: np.ndarray,
                        track_classes: np.ndarray):
        """Appearance/confuser data per unique track, cached across calls.

        Everything here is a pure function of the track, yet the live
        ingest path used to rehash it for every pushed chunk; the cache
        makes repeat tracks (every chunk of a live stream) free.
        """
        cache = self._track_cache
        if len(cache) > self.TRACK_CACHE_MAX:
            cache.clear()
        u = len(unique_tracks)
        app0 = np.empty((u, self.dim), dtype=np.float64)
        app1 = np.empty((u, self.dim), dtype=np.float64)
        app_scale = np.empty(u, dtype=np.float64)
        drift_scale = np.empty(u, dtype=np.float64)
        confuser_w = np.empty(u, dtype=np.float64)
        confusers = np.empty(u, dtype=np.int64)
        track_list = unique_tracks.tolist()
        missing = [i for i, t in enumerate(track_list) if t not in cache]
        if missing:
            calib = self.calibration
            m = np.asarray(missing, dtype=np.int64)
            mt = unique_tracks[m]
            m_app0 = _unit_rows(
                hash_normal_matrix(combine(mt, np.uint64(_APP0_SALT)), self.dim)
            )
            m_app1 = _unit_rows(
                hash_normal_matrix(combine(mt, np.uint64(_APP1_SALT)), self.dim)
            )
            lo, hi = _APP_SCALE_RANGE
            m_ascale = lo + (hi - lo) * hash_uniform(
                combine(mt, np.uint64(_APP_SCALE_SALT))
            )
            dlo, dhi = _DRIFT_SCALE_RANGE
            m_dscale = dlo + (dhi - dlo) * hash_uniform(
                combine(mt, np.uint64(_DRIFT_SCALE_SALT))
            )
            m_conf = self._confuser_classes(track_classes[m], mt)
            m_w = calib.confuser_max * hash_uniform(
                combine(mt, np.uint64(_CONFUSER_WEIGHT_SALT))
            )
            for j, i in enumerate(missing):
                cache[track_list[i]] = (
                    m_app0[j], m_app1[j], float(m_ascale[j]),
                    float(m_dscale[j]), int(m_conf[j]), float(m_w[j]),
                )
        for i, track in enumerate(track_list):
            a0, a1, ascale, dscale, conf_cls, conf_w = cache[track]
            app0[i] = a0
            app1[i] = a1
            app_scale[i] = ascale
            drift_scale[i] = dscale
            confusers[i] = conf_cls
            confuser_w[i] = conf_w
        return app0, app1, app_scale, drift_scale, confusers, confuser_w

    # -- extraction --------------------------------------------------------
    def extract(self, table: ObservationTable) -> np.ndarray:
        """Feature matrix [n, dim] (float32) for all rows of ``table``.

        Internally processed in :attr:`BLOCK_ROWS` blocks: every row's
        vector is a pure function of that row, so blocking cannot change
        any output bit, but it keeps the ~25 elementwise intermediate
        arrays cache-resident on large windows.
        """
        n = len(table)
        if n <= self.BLOCK_ROWS:
            return self._extract_block(table)
        out = np.empty((n, self.dim), dtype=np.float32)
        for start in range(0, n, self.BLOCK_ROWS):
            stop = min(start + self.BLOCK_ROWS, n)
            out[start:stop] = self._extract_block(table.slice(start, stop))
        return out

    def _extract_block(self, table: ObservationTable) -> np.ndarray:
        n = len(table)
        if n == 0:
            return np.zeros((0, self.dim), dtype=np.float32)
        calib = self.calibration

        proto = self._prototypes_for(table.class_id)

        track_seeds = table.appearance_seed.astype(np.uint64)
        unique_tracks, first_row_of_track, track_inverse = np.unique(
            track_seeds, return_index=True, return_inverse=True
        )
        track_classes = table.class_id[first_row_of_track]
        (app0, app1, app_scale, drift_scale, confusers,
         confuser_w) = self._track_profiles(unique_tracks, track_classes)
        app_scale = app_scale[:, np.newaxis]
        confuser_w = confuser_w[:, np.newaxis]
        confuser_protos = self._prototypes_for(confusers)

        # appearance rotates drift_angle radians per 10 seconds in view
        time_in_track = table.obs_in_track / max(table.fps, 1e-9)
        theta = (
            calib.drift_angle * drift_scale[track_inverse] * time_in_track / 10.0
        )[:, np.newaxis]
        # the assembly below fuses with out=/in-place ops on arrays this
        # block owns; operand order matches the plain expression term by
        # term, so every output bit is unchanged
        appearance = (app_scale * (app0 * 1.0))[track_inverse]
        np.multiply(appearance, np.cos(theta), out=appearance)
        app_sin = (app_scale * app1)[track_inverse]
        np.multiply(app_sin, np.sin(theta), out=app_sin)
        appearance += app_sin

        noise_scale = calib.noise_scale * self.noise_multiplier
        if noise_scale > 0:
            obs_seeds = combine(
                table.observation_seeds(), np.uint64(self.model_salt), np.uint64(_NOISE_SALT)
            )
            # unit-normalize so the jitter magnitude is noise_scale,
            # independent of dimensionality
            noise = _unit_rows(hash_normal_matrix(obs_seeds, self.dim))
            np.multiply(noise, noise_scale, out=noise)
        else:
            noise = None

        vectors = calib.class_weight * proto
        vectors += (confuser_w * confuser_protos)[track_inverse]
        np.multiply(appearance, calib.appearance_weight, out=appearance)
        vectors += appearance
        if noise is not None:
            vectors += noise

        # hard episodes: short runs of frames where the object is
        # blurred/occluded/badly cropped and its embedding lands far
        # from every manifold.  Episodes are per (track, frame bucket),
        # so consecutive hard observations share one degraded embedding:
        # nearest neighbours stay same-class (Section 2.2.3) while each
        # episode still seeds its own stray cluster -- the candidate-set
        # inflation real deployments see at query time.
        if calib.hard_example_fraction > 0:
            bucket = (table.obs_in_track // _HARD_EPISODE_FRAMES).astype(np.uint64)
            episode_seed = combine(
                table.appearance_seed.astype(np.uint64),
                bucket,
                np.uint64(_HARD_MASK_SALT),
            )
            hard = hash_uniform(episode_seed) < calib.hard_example_fraction
            if hard.any():
                junk = _unit_rows(
                    hash_normal_matrix(
                        combine(episode_seed[hard], np.uint64(_HARD_DIR_SALT)), self.dim
                    )
                )
                vectors[hard] = 0.80 * proto[hard] + 1.00 * junk

        return _unit_rows(vectors).astype(np.float32)

    def extract_chunked(self, table: ObservationTable, chunk_rows: int = 65536):
        """Yield ``(start, stop, features)`` chunks to bound peak memory.

        Chunks are zero-copy row slices (no per-chunk mask build or
        column copies); per-track state is cached across chunks.
        """
        n = len(table)
        for start in range(0, n, chunk_rows):
            stop = min(start + chunk_rows, n)
            yield start, stop, self.extract(table.slice(start, stop))
