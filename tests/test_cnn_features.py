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


def test_every_model_shares_one_class_geometry(small_table):
    """A prototype is a function of the class and the calibration, never
    of the model: every model reads one table per calibration, and no
    table outgrows NUM_CLASSES rows."""
    from dataclasses import replace

    from repro.cnn import features
    from repro.cnn.calibration import FEATURES
    from repro.cnn.specialize import specialize
    from repro.video.classes import NUM_CLASSES

    spec = specialize(cheap_cnn(1), small_table.class_histogram(), 5,
                      small_table.stream)
    extractors = [m.feature_extractor() for m in (cheap_cnn(1), cheap_cnn(2), spec)]
    for cid in (0, 3, 517, NUM_CLASSES - 1):
        first, *rest = [e.class_prototype(cid) for e in extractors]
        for proto in rest:
            np.testing.assert_array_equal(proto, first)

    # a fresh calibration gets its own table; growing it one class at a
    # time stops at NUM_CLASSES rows and matches a one-batch build
    other = replace(FEATURES, unique_weight=0.3)
    grown = FeatureExtractor(model_salt=1, calibration=other)
    one_by_one = np.stack([grown.class_prototype(c) for c in range(NUM_CLASSES)])
    assert features._PROTOTYPES[other].shape == (NUM_CLASSES, other.dim)
    del features._PROTOTYPES[other]
    batch = features._class_prototypes(other, np.arange(NUM_CLASSES))
    np.testing.assert_array_equal(one_by_one, batch)
    assert not np.array_equal(one_by_one[3], extractors[0].class_prototype(3))
    assert all(len(table) <= NUM_CLASSES for table in features._PROTOTYPES.values())
    del features._PROTOTYPES[other]


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


def test_one_normal_draw_per_block(small_table, monkeypatch):
    """Noise, hard-episode directions and the missing tracks' two
    appearance bases share one ``hash_normal_matrix`` call per block
    (each call pays ~40 us of fixed cost), and stacking them moves no
    output bit."""
    import repro.cnn.features as features_module

    table = small_table.slice(0, min(len(small_table), 2500))
    expected = cheap_cnn(1).feature_extractor().extract(table)
    draws = []
    real_draw = features_module.hash_normal_matrix

    def counting_draw(seeds, dim, salt=0):
        draws.append(len(seeds))
        return real_draw(seeds, dim, salt)

    monkeypatch.setattr(features_module, "hash_normal_matrix", counting_draw)
    extractor = cheap_cnn(1).feature_extractor()  # cold track cache
    blocks = -(-len(table) // FeatureExtractor.BLOCK_ROWS)
    assert blocks > 1
    for warm in (False, True):
        draws.clear()
        np.testing.assert_array_equal(extractor.extract(table), expected)
        assert len(draws) == blocks, warm
        # every row's noise, plus appearance bases only while cold
        assert sum(draws) >= len(table)


def _hard_rows(extractor, table):
    """Rows whose embedding is a hard episode's junk direction."""
    from repro.cnn import features
    from repro.cnn.hashing import combine, hash_uniform

    bucket = (table.obs_in_track // features._HARD_EPISODE_FRAMES).astype(np.uint64)
    seeds = combine(table.appearance_seed.astype(np.uint64), bucket,
                    np.uint64(features._HARD_MASK_SALT))
    fraction = extractor.calibration.hard_example_fraction
    return np.flatnonzero(hash_uniform(seeds) < fraction)


@pytest.mark.parametrize("which", ["generic", "specialized"])
def test_row_ranges_concatenate_bit_for_bit(which, table_factory, spec_model):
    """Blocks are assembled in sub-blocks of rows, and every step is
    elementwise per row: one call over a table equals, bit for bit, the
    concatenation of calls over row ranges that start and end on either
    side of every block and sub-block boundary."""
    from repro.cnn.features import _ASSEMBLY_ROWS

    model = cheap_cnn(1) if which == "generic" else spec_model
    shared = model.feature_extractor()

    def fresh():  # the model's extractor, with a cold track cache
        return FeatureExtractor(shared.model_salt, shared.noise_multiplier,
                                shared.calibration)

    table = table_factory("auburn_c", 260.0, 30.0)
    sizes = [1, 255, 256, 257, 1023, 1024, 1025, 2500]
    cuts = np.cumsum(sizes)
    assert cuts[-1] < len(table)
    # hard-episode rows sit on both sides of a sub-block boundary
    hard = _hard_rows(shared, table)
    assert np.any((hard >= _ASSEMBLY_ROWS - 8) & (hard < _ASSEMBLY_ROWS))
    assert np.any((hard >= _ASSEMBLY_ROWS) & (hard < _ASSEMBLY_ROWS + 8))

    whole = fresh().extract(table)
    ranged = fresh()
    parts = [ranged.extract(table.slice(start, stop))
             for start, stop in zip([0, *cuts], [*cuts, len(table)])]
    assert [len(p) for p in parts[:-1]] == sizes
    np.testing.assert_array_equal(np.concatenate(parts), whole)


def test_block_working_set(small_table):
    """A warm 1 024-row extraction stays within ~3 MB of live arrays
    (the output included): the per-block transient is what sets the
    ingest paths' peak RSS."""
    import tracemalloc

    block = small_table.slice(0, FeatureExtractor.BLOCK_ROWS)
    assert len(block) == FeatureExtractor.BLOCK_ROWS
    extractor = cheap_cnn(1).feature_extractor()
    extractor.extract(block)  # warm: track cache and prototypes
    tracemalloc.start()
    try:
        extractor.extract(block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.4e6, peak


def test_track_cache_pins_no_normal_draw(small_table):
    """The block's normals are normalized in place and split into
    views; a cached appearance row must not be one, or the cache would
    pin the block's whole stacked draw (~1 MB) per block."""
    block = small_table.slice(0, FeatureExtractor.BLOCK_ROWS)
    extractor = cheap_cnn(1).feature_extractor()  # cold track cache
    extractor.extract(block)
    missing = len(np.unique(block.appearance_seed))
    assert len(extractor._track_cache) == missing
    bound = missing * extractor.dim * 8  # the block's missing-track array
    for app0, app1, *_ in extractor._track_cache.values():
        for row in (app0, app1):
            assert row.base is None or row.base.nbytes <= bound
