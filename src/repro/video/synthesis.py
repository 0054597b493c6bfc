"""Scene synthesis: tracks -> per-frame object observations.

An *observation* is one detected moving object in one frame -- the unit
the paper's pipeline operates on (its "objects").  The ingest CNN runs
once per observation (minus pixel-differencing savings), so observation
counts drive ingest cost; cluster counts over observations drive query
latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.video.profiles import StreamProfile, get_profile
from repro.video.tracks import ClassDistribution, TrackArrays, TrackGenerator


class ObservationTable:
    """Struct-of-arrays table of object observations for one stream.

    All downstream Focus stages (cheap-CNN classification, clustering,
    indexing, querying, metrics) consume this table.  Rows are sorted by
    frame index, mirroring ingest order of a live stream.
    """

    def __init__(
        self,
        stream: str,
        fps: float,
        duration_s: float,
        track_id: np.ndarray,
        class_id: np.ndarray,
        time_s: np.ndarray,
        frame_idx: np.ndarray,
        difficulty: np.ndarray,
        appearance_seed: np.ndarray,
        obs_in_track: np.ndarray,
    ):
        n = len(track_id)
        for name, arr in (
            ("class_id", class_id),
            ("time_s", time_s),
            ("frame_idx", frame_idx),
            ("difficulty", difficulty),
            ("appearance_seed", appearance_seed),
            ("obs_in_track", obs_in_track),
        ):
            if len(arr) != n:
                raise ValueError("column %s has length %d, expected %d" % (name, len(arr), n))
        self.stream = stream
        self.fps = float(fps)
        self.duration_s = float(duration_s)
        self.track_id = track_id
        self.class_id = class_id
        self.time_s = time_s
        self.frame_idx = frame_idx
        self.difficulty = difficulty
        self.appearance_seed = appearance_seed
        self.obs_in_track = obs_in_track

    # -- basic shape ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.track_id)

    @property
    def num_tracks(self) -> int:
        return int(len(np.unique(self.track_id)))

    @property
    def total_frames(self) -> int:
        return int(math.ceil(self.duration_s * self.fps))

    # -- statistics the paper measures ----------------------------------
    def frames_with_objects(self) -> np.ndarray:
        """Sorted unique frame indexes containing a moving object."""
        return np.unique(self.frame_idx)

    def empty_frame_fraction(self) -> float:
        """Fraction of frames with no moving objects (Section 2.2.1)."""
        total = self.total_frames
        if total == 0:
            return 0.0
        return 1.0 - len(self.frames_with_objects()) / total

    def present_classes(self) -> np.ndarray:
        """Sorted unique class ids occurring in the stream."""
        return np.unique(self.class_id)

    def class_histogram(self) -> Dict[int, int]:
        """Observation count per class id."""
        classes, counts = np.unique(self.class_id, return_counts=True)
        return {int(c): int(n) for c, n in zip(classes, counts)}

    def dominant_classes(self, coverage: float = 0.95) -> List[int]:
        """Most frequent classes covering ``coverage`` of observations."""
        classes, counts = np.unique(self.class_id, return_counts=True)
        order = np.argsort(counts)[::-1]
        cum = np.cumsum(counts[order]) / counts.sum()
        cut = int(np.searchsorted(cum, coverage)) + 1
        return [int(c) for c in classes[order[:cut]]]

    # -- selection -------------------------------------------------------
    def select(self, mask: np.ndarray) -> "ObservationTable":
        """Row subset preserving stream metadata."""
        return ObservationTable(
            stream=self.stream,
            fps=self.fps,
            duration_s=self.duration_s,
            track_id=self.track_id[mask],
            class_id=self.class_id[mask],
            time_s=self.time_s[mask],
            frame_idx=self.frame_idx[mask],
            difficulty=self.difficulty[mask],
            appearance_seed=self.appearance_seed[mask],
            obs_in_track=self.obs_in_track[mask],
        )

    def slice(self, start: int, stop: int) -> "ObservationTable":
        """Contiguous row range as zero-copy column views.

        The chunked hot paths (feature extraction, clustering, live
        pushes) iterate row ranges; a slice avoids the O(n) mask build
        and the fancy-indexing copy of every column that ``select``
        pays per chunk.
        """
        return ObservationTable(
            stream=self.stream,
            fps=self.fps,
            duration_s=self.duration_s,
            track_id=self.track_id[start:stop],
            class_id=self.class_id[start:stop],
            time_s=self.time_s[start:stop],
            frame_idx=self.frame_idx[start:stop],
            difficulty=self.difficulty[start:stop],
            appearance_seed=self.appearance_seed[start:stop],
            obs_in_track=self.obs_in_track[start:stop],
        )

    @classmethod
    def concat(
        cls,
        tables: Sequence["ObservationTable"],
        duration_s: Optional[float] = None,
    ) -> "ObservationTable":
        """Concatenate time-ordered chunks of one stream.

        The live-ingest accumulation primitive: chunks pushed through
        ``StreamIngestor`` append here, so row order (and therefore
        cluster ids and index member rows) matches the equivalent
        one-shot table.  ``duration_s`` defaults to the largest chunk
        window -- the stream's current watermark.
        """
        if not tables:
            raise ValueError("concat needs at least one table")
        first = tables[0]
        for t in tables[1:]:
            if t.stream != first.stream:
                raise ValueError(
                    "cannot concat tables of different streams: %r vs %r"
                    % (first.stream, t.stream)
                )
            if t.fps != first.fps:
                raise ValueError("cannot concat tables with different fps")
        if duration_s is None:
            duration_s = max(t.duration_s for t in tables)
        return cls(
            stream=first.stream,
            fps=first.fps,
            duration_s=duration_s,
            track_id=np.concatenate([t.track_id for t in tables]),
            class_id=np.concatenate([t.class_id for t in tables]),
            time_s=np.concatenate([t.time_s for t in tables]),
            frame_idx=np.concatenate([t.frame_idx for t in tables]),
            difficulty=np.concatenate([t.difficulty for t in tables]),
            appearance_seed=np.concatenate([t.appearance_seed for t in tables]),
            obs_in_track=np.concatenate([t.obs_in_track for t in tables]),
        )

    def time_range(self, start_s: float, end_s: float) -> "ObservationTable":
        """Observations with ``start_s <= time < end_s`` (a query interval)."""
        mask = (self.time_s >= start_s) & (self.time_s < end_s)
        return self.select(mask)

    def scattered_sample(
        self, total_seconds: float, chunk_seconds: float = 20.0
    ) -> "ObservationTable":
        """A sample of chunks spread evenly across the whole window.

        The paper's tuner "periodically obtains a small sample of video
        frames" (Section 4.3): scattering the sample across day and
        night captures the stream's full class mix, which one contiguous
        slice would miss.
        """
        if total_seconds <= 0 or chunk_seconds <= 0:
            raise ValueError("sample sizes must be positive")
        total_seconds = min(total_seconds, self.duration_s)
        n_chunks = max(1, int(round(total_seconds / chunk_seconds)))
        stride = self.duration_s / n_chunks
        mask = np.zeros(len(self), dtype=bool)
        for i in range(n_chunks):
            start = i * stride
            end = min(start + chunk_seconds, self.duration_s)
            mask |= (self.time_s >= start) & (self.time_s < end)
        return self.select(mask)

    def observation_seeds(self) -> np.ndarray:
        """A stable 64-bit seed per observation (track seed mixed with
        the observation's position in its track).  Deterministic model
        noise keys off these."""
        mixed = self.appearance_seed.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15) * (
            self.obs_in_track.astype(np.uint64) + np.uint64(1)
        )
        mixed ^= mixed >> np.uint64(33)
        mixed *= np.uint64(0xFF51AFD7ED558CCD)
        mixed ^= mixed >> np.uint64(33)
        return mixed


@dataclass
class SceneGenerator:
    """Generates :class:`ObservationTable` videos for one stream profile."""

    profile: StreamProfile
    seed_salt: int = 0

    def __post_init__(self):
        self._track_gen = TrackGenerator(self.profile, seed_salt=self.seed_salt)

    @property
    def distribution(self) -> ClassDistribution:
        return self._track_gen.distribution

    def generate(self, duration_s: float, fps: float = 30.0) -> ObservationTable:
        """Synthesize ``duration_s`` seconds of video at ``fps``."""
        if fps <= 0:
            raise ValueError("fps must be positive")
        tracks = self._track_gen.generate(duration_s)
        return observations_from_tracks(self.profile.name, tracks, duration_s, fps)


def observations_from_tracks(
    stream: str, tracks: TrackArrays, duration_s: float, fps: float
) -> ObservationTable:
    """Expand tracks into per-frame observations at ``fps``."""
    n_tracks = len(tracks)
    if n_tracks == 0:
        empty_i = np.zeros(0, dtype=np.int64)
        empty_f = np.zeros(0, dtype=np.float64)
        return ObservationTable(
            stream, fps, duration_s, empty_i, empty_i, empty_f, empty_i, empty_f, empty_i, empty_i
        )

    end_s = np.minimum(tracks.start_s + tracks.duration_s, duration_s)
    visible = np.maximum(end_s - tracks.start_s, 0.0)
    counts = np.maximum(1, np.floor(visible * fps).astype(np.int64))
    counts[visible <= 0] = 0

    total = int(counts.sum())
    if total == 0:
        empty_i = np.zeros(0, dtype=np.int64)
        empty_f = np.zeros(0, dtype=np.float64)
        return ObservationTable(
            stream, fps, duration_s, empty_i, empty_i, empty_f, empty_i, empty_f, empty_i, empty_i
        )

    track_row = np.repeat(np.arange(n_tracks), counts)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    time_s = tracks.start_s[track_row] + within / fps
    frame_idx = np.floor(time_s * fps).astype(np.int64)

    order = np.argsort(frame_idx, kind="stable")
    return ObservationTable(
        stream=stream,
        fps=fps,
        duration_s=duration_s,
        track_id=tracks.track_id[track_row][order],
        class_id=tracks.class_id[track_row][order],
        time_s=time_s[order],
        frame_idx=frame_idx[order],
        difficulty=tracks.difficulty[track_row][order],
        appearance_seed=tracks.appearance_seed[track_row][order],
        obs_in_track=within[order],
    )


def generate_observations(
    stream: str, duration_s: float, fps: float = 30.0, seed_salt: int = 0
) -> ObservationTable:
    """Convenience wrapper: generate a stream's observations by name."""
    profile = get_profile(stream) if isinstance(stream, str) else stream
    return SceneGenerator(profile, seed_salt=seed_salt).generate(duration_s, fps)
