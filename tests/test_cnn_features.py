"""Unit tests for feature-vector synthesis (Section 2.2.3 properties)."""

import numpy as np
import pytest

from repro.cnn.features import FeatureExtractor
from repro.cnn.zoo import cheap_cnn, resnet18


@pytest.fixture(scope="module")
def extractor():
    return resnet18().feature_extractor()


@pytest.fixture(scope="module")
def feats(extractor, small_table):
    return extractor.extract(small_table)


def test_shape_and_dtype(feats, small_table, extractor):
    assert feats.shape == (len(small_table), extractor.dim)
    assert feats.dtype == np.float32


def test_unit_norm(feats):
    norms = np.linalg.norm(feats, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-5)


def test_deterministic(extractor, small_table):
    again = extractor.extract(small_table)
    np.testing.assert_array_equal(
        extractor.extract(small_table), again
    )


def test_extract_chunked_matches_full(extractor, tiny_table):
    """Live ingest extracts chunk by chunk, and only the rows the
    clusterer reads: any row slice or subset extracts as in the whole."""
    full = extractor.extract(tiny_table)
    n = len(tiny_table)
    parts = [extractor.extract(tiny_table.slice(a, min(a + 100, n)))
             for a in range(0, n, 100)]
    np.testing.assert_allclose(np.vstack(parts), full, atol=1e-6)
    odd = np.arange(n) % 2 == 1
    np.testing.assert_allclose(
        extractor.extract(tiny_table.select(odd)), full[odd], atol=1e-6)


def test_empty_table(extractor, small_table):
    empty = small_table.select(np.zeros(len(small_table), dtype=bool))
    assert extractor.extract(empty).shape == (0, extractor.dim)


def test_consecutive_observations_close(extractor, small_table):
    """Same object across adjacent frames: nearly identical features."""
    feats = extractor.extract(small_table)
    tid = small_table.track_id
    order = np.lexsort((small_table.time_s, tid))
    same_track = tid[order][1:] == tid[order][:-1]
    d = np.linalg.norm(feats[order][1:] - feats[order][:-1], axis=1)
    consecutive = d[same_track]
    # hard one-off observations are far from everything; the bulk of
    # consecutive pairs are within noise+drift distance
    assert np.median(consecutive) < 0.1


def test_same_class_closer_than_unrelated_class(extractor, small_table):
    """Class prototypes separate unrelated classes far more than
    instances of the same class."""
    feats = extractor.extract(small_table)
    classes = small_table.class_id
    unique = np.unique(classes)
    if len(unique) < 2:
        pytest.skip("sample has one class")
    a, b = unique[0], unique[-1]
    mean_a = feats[classes == a].mean(axis=0)
    mean_b = feats[classes == b].mean(axis=0)
    within = np.linalg.norm(feats[classes == a] - mean_a, axis=1).mean()
    between = np.linalg.norm(mean_a - mean_b)
    assert between > within * 0.5


def test_nearest_neighbour_same_class(extractor, tiny_table):
    """Section 2.2.3: NN by cheap-CNN features shares the class (>97%)."""
    feats = extractor.extract(tiny_table).astype(np.float64)
    d2 = (
        (feats ** 2).sum(1)[:, None]
        + (feats ** 2).sum(1)[None, :]
        - 2 * feats @ feats.T
    )
    np.fill_diagonal(d2, np.inf)
    nn = d2.argmin(axis=1)
    same = (tiny_table.class_id[nn] == tiny_table.class_id).mean()
    assert same > 0.97


def test_class_prototype_unit_and_cached(extractor):
    p1 = extractor.class_prototype(3)
    p2 = extractor.class_prototype(3)
    assert np.linalg.norm(p1) == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_array_equal(p1, p2)


def test_confusable_prototypes_closer(extractor):
    from repro.video.classes import class_id

    car = extractor.class_prototype(class_id("car"))
    taxi = extractor.class_prototype(class_id("taxi"))
    suit = extractor.class_prototype(class_id("suit"))
    assert np.linalg.norm(car - taxi) < np.linalg.norm(car - suit)


def test_noise_multiplier_spreads_features(small_table):
    sharp = FeatureExtractor(model_salt=1, noise_multiplier=0.1)
    blurry = FeatureExtractor(model_salt=1, noise_multiplier=3.0)
    fs = sharp.extract(small_table)
    fb = blurry.extract(small_table)
    # same track consecutive distance grows with noise
    tid = small_table.track_id
    mask = tid[1:] == tid[:-1]
    ds = np.linalg.norm(fs[1:] - fs[:-1], axis=1)[mask]
    db = np.linalg.norm(fb[1:] - fb[:-1], axis=1)[mask]
    assert np.median(db) > np.median(ds)


def test_negative_noise_rejected():
    with pytest.raises(ValueError):
        FeatureExtractor(model_salt=1, noise_multiplier=-1)
