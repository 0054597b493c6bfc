"""Unit tests for deterministic counter-based hashing."""

import numpy as np
import pytest

from repro.cnn.hashing import (
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
