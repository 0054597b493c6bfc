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

import ctypes
from typing import Optional

import numpy as np

from repro.cnn.calibration import FEATURES, FeatureCalibration
from repro.cnn.hashing import combine, hash_normal_matrix, hash_uniform, mix64, stable_salt
from repro.video.classes import NUM_CLASSES, confusable_pool, confusable_pool_key
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

#: rows per assembly step of :meth:`FeatureExtractor._extract_block`:
#: its [rows, dim] float64 intermediates are then 256 KiB each, where a
#: whole 1 024-row block's are 1 MiB
_ASSEMBLY_ROWS = 256


def _unit_rows(matrix: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``matrix``'s rows scaled to unit length (zero rows stay zero),
    written to ``out``: a new array by default, ``matrix`` itself to
    normalize in place, or a float32 view, which takes each float64
    quotient rounded once, as ``astype`` would."""
    # np.linalg.norm's own expression, bit for bit, minus one temporary
    norms = np.sqrt(np.add.reduce(matrix * matrix, axis=1, keepdims=True))
    norms[norms == 0] = 1.0
    return np.divide(matrix, norms, out=out)


def _draw_unit_rows(seed_parts, dim: int):
    """One unit-normalized normal row per seed, one view per part.

    A single :func:`hash_normal_matrix` call over the stacked seeds,
    normalized in place and split afterwards: its fixed cost (~40 us) is
    paid once, not once per part, and since a row depends only on its
    seed every output bit is the same as one call per part.  The parts
    are views of the one draw, so a caller that keeps a row past the
    block copies it first.
    """
    bounds = np.cumsum([len(part) for part in seed_parts])
    if not bounds[-1]:
        return [np.zeros((0, dim)) for _ in seed_parts]
    normals = hash_normal_matrix(np.concatenate(seed_parts), dim)
    return np.split(_unit_rows(normals, out=normals), bounds[:-1])


# Every extraction frees one block's ~3 MB of intermediates.  glibc
# trims its heap past twice the largest mmapped chunk freed so far, so a
# process whose biggest transient is one block hands that memory back
# after each call and page-faults it in again on the next.  Pin
# M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD (-1) at their dynamic maxima.
try:
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt(-3, 32 << 20)
    _mallopt(-1, 64 << 20)
except (OSError, AttributeError, TypeError):  # not glibc
    pass

#: calibration -> class -> prototype matrix, shared by every model (a
#: prototype never depends on the model); rows [0, len) are all computed.
#: At most NUM_CLASSES x dim x 8 B (1 MiB) per calibration.
_PROTOTYPES: dict = {}


def _class_prototypes(calib: FeatureCalibration, class_ids) -> np.ndarray:
    """Unit prototype rows for ``class_ids``: pool anchor + unique
    direction, one dense gather from the shared table."""
    class_ids = np.asarray(class_ids, dtype=np.int64)
    table = _PROTOTYPES.get(calib, np.zeros((0, calib.dim)))
    need = int(class_ids.max()) + 1 if len(class_ids) else 0
    if need > len(table):
        # geometric headroom: growing one id at a time must stay
        # amortized O(1) per class, not a full realloc per call
        new = np.arange(len(table), max(need, min(2 * len(table), NUM_CLASSES), 64))
        pool_keys = np.asarray([confusable_pool_key(int(c)) for c in new], dtype=np.uint64)
        anchors, uniques = _draw_unit_rows([
            combine(pool_keys, np.uint64(_POOL_SALT)),
            combine(new.astype(np.uint64), np.uint64(_UNIQUE_SALT)),
        ], calib.dim)
        protos = _unit_rows(calib.pool_weight * anchors + calib.unique_weight * uniques)
        table = _PROTOTYPES[calib] = np.concatenate([table, protos])
    return table[class_ids]


class FeatureExtractor:
    """Synthesizes penultimate-layer feature vectors for observations.

    One extractor per classifier model: cheaper models add more
    per-observation noise (``noise_multiplier``) but share the global
    class geometry, mirroring how different CNNs learn comparable but
    differently-sharp embeddings.
    """

    #: rows per extraction block, and the default feature chunk of
    #: one-shot ingest and the tuner.  A block draws its normals as one
    #: [rows, dim] float64 array (1 MiB at dim 128) and assembles its
    #: rows :data:`_ASSEMBLY_ROWS` at a time: a warm block peaks at
    #: ~3.2 MB of live arrays, its float32 output included
    #: (docs/PERFORMANCE.md, "Feeding layers", has the measurements).
    BLOCK_ROWS = 1024

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
        """Empty the two per-model memo caches (prototypes are shared:
        :data:`_PROTOTYPES`): pure-function memoization, rebuilt on
        demand, so dropping them never changes a feature."""
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
        return _class_prototypes(self.calibration, [class_id])[0]

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
    def _uncached_tracks(self, track_list: list) -> list:
        """Positions in ``track_list`` without a cached profile (the
        cache is cleared wholesale past :attr:`TRACK_CACHE_MAX` first)."""
        cache = self._track_cache
        if len(cache) > self.TRACK_CACHE_MAX:
            cache.clear()
        return [i for i, t in enumerate(track_list) if t not in cache]

    def _track_profiles(self, unique_tracks: np.ndarray, track_classes: np.ndarray,
                        missing: list, m_app0: np.ndarray, m_app1: np.ndarray):
        """Appearance/confuser data per unique track, cached across calls.

        Everything here is a pure function of the track, yet the live
        ingest path used to rehash it for every pushed chunk; the cache
        makes repeat tracks (every chunk of a live stream) free.
        ``missing`` is :meth:`_uncached_tracks`' answer, and ``m_app0``
        / ``m_app1`` those tracks' two unit appearance bases, drawn with
        the rest of the block's normals.
        """
        # the cache keeps rows of these: copied, since a view would pin
        # the block's whole normal draw
        m_app0, m_app1 = m_app0.copy(), m_app1.copy()
        cache = self._track_cache
        u = len(unique_tracks)
        app0 = np.empty((u, self.dim), dtype=np.float64)
        app1 = np.empty((u, self.dim), dtype=np.float64)
        app_scale = np.empty(u, dtype=np.float64)
        drift_scale = np.empty(u, dtype=np.float64)
        confuser_w = np.empty(u, dtype=np.float64)
        confusers = np.empty(u, dtype=np.int64)
        track_list = unique_tracks.tolist()
        if missing:
            calib = self.calibration
            m = np.asarray(missing, dtype=np.int64)
            mt = unique_tracks[m]
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

        Internally processed in :attr:`BLOCK_ROWS` blocks, each written
        straight into the output: every row's vector is a pure function
        of that row, so blocking cannot change any output bit, but it
        bounds the intermediates whatever the table's length.
        """
        n = len(table)
        out = np.empty((n, self.dim), dtype=np.float32)
        for start in range(0, n, self.BLOCK_ROWS):
            stop = min(start + self.BLOCK_ROWS, n)
            self._extract_block(table.slice(start, stop), out[start:stop])
        return out

    def _extract_block(self, table: ObservationTable, out: np.ndarray) -> None:
        """Write the feature rows of ``table`` (1..BLOCK_ROWS rows) into
        ``out`` ([n, dim] float32).

        Everything drawn or gathered per track or per row stays whole
        for the block; the [n, dim] float64 assembly runs
        :data:`_ASSEMBLY_ROWS` rows at a time, so the block's largest
        live array is its one stacked normal draw."""
        n = len(table)
        calib = self.calibration

        track_seeds = table.appearance_seed.astype(np.uint64)
        unique_tracks, first_row_of_track, track_inverse = np.unique(
            track_seeds, return_index=True, return_inverse=True
        )
        track_classes = table.class_id[first_row_of_track]
        missing = self._uncached_tracks(unique_tracks.tolist())
        missing_seeds = unique_tracks[np.asarray(missing, dtype=np.int64)]

        # hard episodes: short runs of frames where the object is
        # blurred/occluded/badly cropped and its embedding lands far
        # from every manifold.  Episodes are per (track, frame bucket),
        # so consecutive hard observations share one degraded embedding:
        # nearest neighbours stay same-class (Section 2.2.3) while each
        # episode still seeds its own stray cluster -- the candidate-set
        # inflation real deployments see at query time.
        hard_rows = np.zeros(0, dtype=np.int64)
        hard_seeds = np.zeros(0, dtype=np.uint64)
        if calib.hard_example_fraction > 0:
            bucket = (table.obs_in_track // _HARD_EPISODE_FRAMES).astype(np.uint64)
            episode_seed = combine(track_seeds, bucket, np.uint64(_HARD_MASK_SALT))
            hard_rows = np.flatnonzero(hash_uniform(episode_seed) < calib.hard_example_fraction)
            hard_seeds = combine(episode_seed[hard_rows], np.uint64(_HARD_DIR_SALT))
        noise_scale = calib.noise_scale * self.noise_multiplier
        noise_seeds = np.zeros(0, dtype=np.uint64)
        if noise_scale > 0:
            noise_seeds = combine(
                table.observation_seeds(), np.uint64(self.model_salt), np.uint64(_NOISE_SALT)
            )
        # every normal the block needs, in one draw; unit rows, so the
        # jitter magnitude is noise_scale, independent of dimensionality
        m_app0, m_app1, noise, junk = _draw_unit_rows([
            combine(missing_seeds, np.uint64(_APP0_SALT)),
            combine(missing_seeds, np.uint64(_APP1_SALT)),
            noise_seeds,
            hard_seeds,
        ], self.dim)

        (app0, app1, app_scale, drift_scale, confusers,
         confuser_w) = self._track_profiles(
            unique_tracks, track_classes, missing, m_app0, m_app1
        )
        app_scale = app_scale[:, np.newaxis]
        # per-track terms [tracks, dim]; each row gathers its own
        app_cos = app_scale * (app0 * 1.0)
        app_sin = app_scale * app1
        confuser_term = confuser_w[:, np.newaxis] * _class_prototypes(calib, confusers)

        # appearance rotates drift_angle radians per 10 seconds in view
        time_in_track = table.obs_in_track / max(table.fps, 1e-9)
        theta = (
            calib.drift_angle * drift_scale[track_inverse] * time_in_track / 10.0
        )[:, np.newaxis]
        cos_theta, sin_theta = np.cos(theta), np.sin(theta)
        if noise_scale > 0:
            noise *= noise_scale

        # the rows' assembly, in place on arrays this loop owns; operand
        # order matches the plain expression term by term, and every
        # step is elementwise per row, so no output bit depends on the
        # slicing
        class_id = table.class_id
        # each sub-block's slice of hard_rows, hence of junk
        hard_bounds = np.searchsorted(
            hard_rows, np.arange(0, n + _ASSEMBLY_ROWS, _ASSEMBLY_ROWS)
        )
        for i, start in enumerate(range(0, n, _ASSEMBLY_ROWS)):
            stop = min(start + _ASSEMBLY_ROWS, n)
            rows = track_inverse[start:stop]
            appearance = app_cos[rows]
            appearance *= cos_theta[start:stop]
            rotated = app_sin[rows]
            rotated *= sin_theta[start:stop]
            appearance += rotated

            proto = _class_prototypes(calib, class_id[start:stop])
            vectors = calib.class_weight * proto
            vectors += confuser_term[rows]
            appearance *= calib.appearance_weight
            vectors += appearance
            if noise_scale > 0:
                vectors += noise[start:stop]
            lo, hi = hard_bounds[i], hard_bounds[i + 1]
            if hi > lo:
                hard = hard_rows[lo:hi] - start
                vectors[hard] = 0.80 * proto[hard] + 1.00 * junk[lo:hi]
            _unit_rows(vectors, out=out[start:stop])
