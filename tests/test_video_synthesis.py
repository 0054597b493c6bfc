"""Unit tests for observation synthesis."""

import numpy as np
import pytest

from repro.video.synthesis import (
    ObservationTable,
    SceneGenerator,
    generate_observations,
    observations_from_tracks,
)
from repro.video.profiles import get_profile
from repro.video.tracks import TrackGenerator


def test_rows_sorted_by_frame(small_table):
    assert (np.diff(small_table.frame_idx) >= 0).all()


def test_deterministic(small_table):
    again = generate_observations("auburn_c", 60.0, 30.0)
    np.testing.assert_array_equal(small_table.class_id, again.class_id)
    np.testing.assert_array_equal(small_table.time_s, again.time_s)


def test_frame_idx_consistent_with_time(small_table):
    np.testing.assert_array_equal(
        small_table.frame_idx, np.floor(small_table.time_s * small_table.fps).astype(np.int64)
    )


def test_observations_per_track_match_duration(small_table):
    """A track visible v seconds yields ~v*fps observations."""
    track_ids, counts = np.unique(small_table.track_id, return_counts=True)
    # every track has at least one observation and no more than window*fps
    assert counts.min() >= 1
    assert counts.max() <= 60.0 * 30.0 + 1


def test_empty_frame_fraction_in_paper_band():
    """One-third to one-half of frames have no objects (Section 2.2.1)."""
    table = generate_observations("auburn_c", 600.0, 30.0)
    assert 0.2 <= table.empty_frame_fraction() <= 0.6


def test_select_preserves_metadata(small_table):
    mask = small_table.class_id == small_table.class_id[0]
    sub = small_table.select(mask)
    assert sub.stream == small_table.stream
    assert sub.fps == small_table.fps
    assert len(sub) == int(mask.sum())


def test_time_range_bounds(small_table):
    sub = small_table.time_range(10.0, 20.0)
    assert (sub.time_s >= 10.0).all()
    assert (sub.time_s < 20.0).all()


def test_scattered_sample_spans_window(small_table):
    sample = small_table.scattered_sample(20.0, chunk_seconds=5.0)
    assert len(sample) > 0
    assert sample.time_s.max() - sample.time_s.min() > 10.0  # spread out


def test_scattered_sample_validates():
    table = generate_observations("lausanne", 20.0, 30.0)
    with pytest.raises(ValueError):
        table.scattered_sample(0.0)


def test_observation_seeds_unique_within_track(small_table):
    """Each observation gets a distinct deterministic seed."""
    seeds = small_table.observation_seeds()
    track = small_table.track_id == small_table.track_id[0]
    assert len(np.unique(seeds[track])) == int(track.sum())


def test_observation_seeds_stable(small_table):
    np.testing.assert_array_equal(
        small_table.observation_seeds(), small_table.observation_seeds()
    )


def test_dominant_classes_cover_95pct(small_table):
    dom = small_table.dominant_classes(0.95)
    hist = small_table.class_histogram()
    covered = sum(hist[c] for c in dom) / len(small_table)
    assert covered >= 0.95


def test_class_histogram_totals(small_table):
    hist = small_table.class_histogram()
    assert sum(hist.values()) == len(small_table)


def test_empty_window_is_valid():
    profile = get_profile("lausanne")
    tracks = TrackGenerator(profile).generate(1.0)
    table = observations_from_tracks("lausanne", tracks, 0.0, 30.0)
    # zero-duration window: no visible observations, still a valid table
    assert isinstance(table, ObservationTable)


def test_column_length_validation():
    with pytest.raises(ValueError):
        ObservationTable(
            stream="x",
            fps=30,
            duration_s=1.0,
            track_id=np.zeros(2, dtype=np.int64),
            class_id=np.zeros(3, dtype=np.int64),
            time_s=np.zeros(2),
            frame_idx=np.zeros(2, dtype=np.int64),
            difficulty=np.zeros(2),
            appearance_seed=np.zeros(2, dtype=np.int64),
            obs_in_track=np.zeros(2, dtype=np.int64),
        )


def test_scene_generator_distribution_accessible():
    gen = SceneGenerator(get_profile("auburn_c"))
    assert gen.distribution.num_present > 0


def test_invalid_fps():
    gen = SceneGenerator(get_profile("auburn_c"))
    with pytest.raises(ValueError):
        gen.generate(10.0, fps=0)
