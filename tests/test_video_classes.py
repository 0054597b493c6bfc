"""Unit tests for the class taxonomy."""

import pytest

from repro.video import classes


def test_exactly_1000_classes():
    assert len(classes.CLASS_NAMES) == classes.NUM_CLASSES == 1000


def test_names_unique():
    assert len(set(classes.CLASS_NAMES)) == 1000


def test_class_name_round_trip():
    for name in ("car", "pedestrian", "suit", "microphone"):
        assert classes.class_name(classes.class_id(name)) == name


def test_class_name_out_of_range():
    with pytest.raises(ValueError):
        classes.class_name(1000)
    with pytest.raises(ValueError):
        classes.class_name(-1)


def test_class_id_unknown_name():
    with pytest.raises(KeyError):
        classes.class_id("warp-drive")


def test_domain_pools_exist():
    for domain in classes.DOMAINS:
        pool = classes.domain_pool(domain)
        assert len(pool) >= 10
        assert all(0 <= c < 1000 for c in pool)


def test_domain_pool_unknown():
    with pytest.raises(ValueError):
        classes.domain_pool("underwater")


def test_domain_pools_overlap():
    """Car and pedestrian appear in more than one domain (Section 2.2.2)."""
    traffic = set(classes.domain_pool("traffic"))
    surveillance = set(classes.domain_pool("surveillance"))
    assert traffic & surveillance


def test_confusable_pool_contains_self():
    for cid in (0, 50, 500, 999):
        assert cid in classes.confusable_pool(cid)


def test_confusable_pool_head_classes_share_pool():
    car = classes.class_id("car")
    taxi = classes.class_id("taxi")
    assert taxi in classes.confusable_pool(car)
    assert car in classes.confusable_pool(taxi)


def test_confusable_pool_tail_blocks():
    pool = classes.confusable_pool(950)
    assert all(940 <= c < 960 for c in pool)


def test_confusable_pool_key_stable():
    for cid in (3, 400, 999):
        key = classes.confusable_pool_key(cid)
        assert key == min(classes.confusable_pool(cid))


def test_confusable_pool_out_of_range():
    with pytest.raises(ValueError):
        classes.confusable_pool(1000)
