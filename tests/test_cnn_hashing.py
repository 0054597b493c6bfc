"""Unit tests for deterministic counter-based hashing."""

import math

import numpy as np
import pytest

from repro.cnn import features, hashing
from repro.cnn.hashing import (
    _EXP_M2,
    _GOLDEN,
    _ndtri,
    combine,
    hash_normal_matrix,
    hash_uniform,
    mix64,
    stable_salt,
)


def test_mix64_deterministic():
    x = np.arange(100, dtype=np.uint64)
    np.testing.assert_array_equal(mix64(x), mix64(x))


def test_mix64_bijective_on_sample():
    x = np.arange(10000, dtype=np.uint64)
    assert len(np.unique(mix64(x))) == 10000


def test_combine_requires_input():
    with pytest.raises(ValueError):
        combine()


def test_combine_order_matters():
    a = combine(np.uint64(1), np.uint64(2))
    b = combine(np.uint64(2), np.uint64(1))
    assert a != b


def test_uniform_range():
    u = hash_uniform(np.arange(100000, dtype=np.uint64))
    assert (u >= 0).all() and (u < 1).all()


def test_uniform_mean_and_spread():
    u = hash_uniform(np.arange(100000, dtype=np.uint64))
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.std() - np.sqrt(1 / 12.0)) < 0.01


def test_normal_moments():
    z = hash_normal_matrix(np.arange(10000, dtype=np.uint64), 10).ravel()
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_normal_matrix_shape_and_determinism():
    seeds = np.arange(50, dtype=np.uint64)
    m1 = hash_normal_matrix(seeds, 16)
    m2 = hash_normal_matrix(seeds, 16)
    assert m1.shape == (50, 16)
    np.testing.assert_array_equal(m1, m2)


def test_normal_matrix_rows_independent_of_others():
    """Row i depends only on seeds[i]."""
    seeds = np.arange(10, dtype=np.uint64)
    full = hash_normal_matrix(seeds, 8)
    single = hash_normal_matrix(seeds[3:4], 8)
    np.testing.assert_array_equal(full[3], single[0])


def test_normal_matrix_salt_changes_values():
    seeds = np.arange(10, dtype=np.uint64)
    a = hash_normal_matrix(seeds, 8, salt=0)
    b = hash_normal_matrix(seeds, 8, salt=1)
    assert not np.allclose(a, b)


def test_stable_salt_is_stable():
    assert stable_salt("model:resnet18") == stable_salt("model:resnet18")
    assert stable_salt("a") != stable_salt("b")


# -- the numpy ndtri port ---------------------------------------------------

#: A tail value may differ from the libm-based C routine only where numpy's
#: log differs from libm's in the last bit (its AVX-512 log does for ~2e-4
#: of tail draws).  That 1-ulp step in log(y) or log(x) is carried through
#: the tail formula's ~35 roundings: over 10 M hash-grid draws it moved the
#: result by at most 5 ulp.
_TAIL_ULPS = 8

#: (u, ndtri(u)) as float.hex, computed with scipy.special.ndtri 1.17.1
#: (Cephes): the branch edges and the clip bounds.
_EDGES = [
    ("0x1.0000000000000p-1", "0x0.0p+0"),  # 0.5
    ("0x1.152aaa3bf81cbp-3", "-0x1.19fd30bc4de02p+0"),  # e^-2 - 1 ulp
    ("0x1.152aaa3bf81ccp-3", "-0x1.19fd30bc4de02p+0"),  # e^-2
    ("0x1.152aaa3bf81cdp-3", "-0x1.19fd30bc4de03p+0"),  # e^-2 + 1 ulp
    ("0x1.bab5557101f8cp-1", "0x1.19fd30bc4de01p+0"),  # 1 - e^-2 - 1 ulp
    ("0x1.bab5557101f8dp-1", "0x1.19fd30bc4de03p+0"),  # 1 - e^-2
    ("0x1.bab5557101f8ep-1", "0x1.19fd30bc4de05p+0"),  # 1 - e^-2 + 1 ulp
    ("0x1.19799812dea11p-40", "-0x1.c234fba57a329p+2"),  # clip low
    ("0x1.fffffffffdcd1p-1", "0x1.c2350895b2ea4p+2"),  # clip high
]

#: hash_normal_matrix(np.arange(6), 10).ravel() as float.hex, computed
#: with scipy.special.ndtri 1.17.1; 19 of the 60 draws take a tail.
_GRID_GOLDEN = [
    "-0x1.613ffd0040e2ep-3", "-0x1.ef9dc7ca26f9ap+0", "0x1.e4d7bc9125c4ap+0",
    "-0x1.3f0688b089d70p+0", "-0x1.ca0b87dca6ea0p-2", "-0x1.e0c355b0c22d5p-1",
    "0x1.7ce6faaa56a97p-1", "-0x1.60511f776f16ap-1", "0x1.aa34f21a7f11fp+0",
    "-0x1.0ccccfc4c78bbp-2", "0x1.5b5f52c282c3bp+0", "0x1.e54f2fe7a3b4ap+0",
    "-0x1.7cdd6e39acb81p-3", "-0x1.1f0ef9c198887p-3", "0x1.dddb9c02d6a85p-1",
    "0x1.296dff491080dp+0", "-0x1.570a41957b05bp-1", "-0x1.22135711b6664p-1",
    "-0x1.202c98d65e14ap+1", "-0x1.f0ed3572281fap-3", "0x1.57f84f51383dap-1",
    "0x1.cc6fe6b4eea9dp-1", "-0x1.2baf9f8198852p+0", "-0x1.f725072916abcp-2",
    "-0x1.93ec39d04dedcp-2", "0x1.6162358cf6297p+0", "-0x1.2f9141a776866p+0",
    "-0x1.58d5eb9afe476p-1", "0x1.3613a2fd67c86p-1", "-0x1.e91d3470b59c6p-1",
    "0x1.529288194fbbdp-1", "-0x1.8c426251e0738p-1", "-0x1.49d00fec1fb27p-3",
    "-0x1.918c9d7ed1590p-1", "0x1.6e68e2eaa0331p-1", "0x1.93bd2fb884439p+0",
    "0x1.0185eb8bce6d6p+0", "-0x1.6f15491431556p-6", "0x1.a4072c907e9b8p-1",
    "-0x1.17b3de3bfcf20p+1", "0x1.9b33fd172d8f2p-1", "0x1.138c6a1ad0910p+0",
    "-0x1.5b4aa6eaedeebp+1", "0x1.56f72aa47428ep+0", "0x1.c0bd72eb21e8dp-3",
    "-0x1.364d39c3c7cfcp+1", "-0x1.07e10985c7c66p-3", "-0x1.d1317b4df8abfp-1",
    "-0x1.42beeefb9934ap+1", "0x1.a41ec20911927p-1", "0x1.28758ae6c4a56p-3",
    "-0x1.75bc8649d6ef0p-1", "0x1.067d2112c39cbp+0", "-0x1.0ac7700ec0ae3p+0",
    "0x1.64bd89117d40ep-2", "-0x1.c39b9fb9e7672p-5", "0x1.3840efa786697p+0",
    "-0x1.7bbb703bfb1b2p-3", "0x1.2b18917905f23p+0", "-0x1.fdcaf17c0feb4p-4",
]


def _grid_uniforms(seeds, dim, salt=0):
    """The clipped uniforms hash_normal_matrix feeds to _ndtri."""
    s = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1)
    cols = (np.arange(dim, dtype=np.uint64) + np.uint64(salt + 1)).reshape(1, -1)
    u = (mix64(s ^ (cols * _GOLDEN)) >> np.uint64(11)).astype(np.float64)
    return np.clip(u * (1.0 / (1 << 53)), 1e-12, 1.0 - 1e-12)


def _is_tail(u):
    return (u <= _EXP_M2) | (u > 1.0 - _EXP_M2)


def _ulps(a, b):
    """Distance in ulps between same-signed float64 arrays."""
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


def _logs_agree_with_libm(u):
    """Whether numpy's log equals libm's at both logs the tail takes for u."""
    y = 1.0 - u if u > 1.0 - _EXP_M2 else u
    x = math.sqrt(-2.0 * math.log(y))
    return np.log(y) == math.log(y) and np.log(x) == math.log(x)


def _assert_matches_cephes(u, got, want):
    """Every value exact, except a tail value on which numpy's log parts
    from libm's: that one within _TAIL_ULPS."""
    ulps = _ulps(got, want)
    assert ulps.max(initial=0) <= _TAIL_ULPS, ulps.max()
    for v in u[ulps != 0]:
        assert _is_tail(v) and not _logs_agree_with_libm(v), v.hex()


def test_ndtri_matches_cephes_at_the_branch_edges_and_clip_bounds():
    u = np.array([float.fromhex(a) for a, _ in _EDGES])
    want = np.array([float.fromhex(b) for _, b in _EDGES])
    assert list(_is_tail(u)) == [False, True, True, False,
                                 False, False, True, True, True]
    _assert_matches_cephes(u, _ndtri(u.copy()), want)


def test_hash_normal_matrix_matches_cephes_golden_draws():
    got = hash_normal_matrix(np.arange(6, dtype=np.uint64), 10).ravel()
    want = np.array([float.fromhex(h) for h in _GRID_GOLDEN])
    u = _grid_uniforms(np.arange(6), 10).ravel()
    assert _is_tail(u).sum() == 19
    _assert_matches_cephes(u, got, want)


def test_ndtri_domain_never_reaches_the_p2_branch():
    """Cephes switches to P2/Q2 at x = sqrt(-2 log y) >= 8; the clip keeps
    every tail below 7.44, and the clip bounds are the extreme draws."""
    for y in (1e-12, 1.0 - (1.0 - 1e-12)):
        assert math.sqrt(-2.0 * math.log(y)) < 7.44
    z = hash_normal_matrix(np.arange(4096, dtype=np.uint64), 64)
    bounds = _ndtri(np.array([1e-12, 1.0 - 1e-12]))
    assert bounds[0] <= z.min() and z.max() <= bounds[1]


def test_ndtri_is_elementwise_across_chunks():
    """A chunk boundary cuts the block anywhere: each value depends only
    on its own uniform."""
    u = _grid_uniforms(np.arange(600), 128)
    assert u.size > 2 * hashing._NDTRI_CHUNK
    whole = _ndtri(u.copy())
    one_by_one = np.array([_ndtri(np.array([v]))[0] for v in u.ravel()[::97]])
    np.testing.assert_array_equal(whole.ravel()[::97], one_by_one)


def test_ndtri_matches_scipy_on_a_million_hash_grid_draws():
    special = pytest.importorskip("scipy.special")
    u = _grid_uniforms(np.arange(8192), 128, salt=3).ravel()
    got = _ndtri(u.copy())
    want = special.ndtri(u)
    _assert_matches_cephes(u, got, want)


def test_extract_equals_a_scipy_backed_extraction_bit_for_bit(monkeypatch):
    """Tail draws that moved by a few ulp never reach a float32 feature:
    every zoo and specialized model's output is unchanged on two profiles."""
    special = pytest.importorskip("scipy.special")
    from repro.cnn.specialize import specialization_ladder
    from repro.cnn.zoo import alexnet, cheap_cnn, resnet18, resnet152, vgg16
    from repro.video.synthesis import generate_observations

    generic = [resnet152(), resnet18(), cheap_cnn(1), cheap_cnn(2),
               cheap_cnn(3), alexnet(), vgg16()]

    def extract(model, table):
        monkeypatch.setattr(features, "_PROTOTYPES", {})
        ex = model.feature_extractor()
        fresh = features.FeatureExtractor(ex.model_salt, ex.noise_multiplier,
                                          ex.calibration)
        return fresh.extract(table)

    for stream in ("auburn_c", "cnn"):
        table = generate_observations(stream, 150.0, 10.0)
        classes, counts = np.unique(table.class_id, return_counts=True)
        histogram = dict(zip(classes.tolist(), counts.tolist()))
        models = generic + specialization_ladder(generic[2:6], histogram, stream)
        assert len({m.name for m in models}) == len(models) > len(generic)
        ported = [extract(m, table) for m in models]
        with monkeypatch.context() as patch:
            patch.setattr(hashing, "_ndtri", special.ndtri)
            reference = [extract(model, table) for model in models]
        for model, got, want in zip(models, ported, reference):
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, want, err_msg=model.name)
