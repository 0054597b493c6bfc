"""Unit tests for the ClassifierModel abstraction."""

import numpy as np
import pytest

from repro.cnn.costs import ArchSpec
from repro.cnn.model import ClassifierModel
from repro.cnn.noise import true_class_ranks


@pytest.fixture(scope="module")
def model():
    arch = ArchSpec(family="resnet", conv_layers=18, gflops_override=1.6)
    return ClassifierModel(name="test-model", arch=arch, dispersion=24.0)


def test_ground_truth_flag(gt_model, cheap_model):
    assert gt_model.is_ground_truth
    assert not cheap_model.is_ground_truth


def test_gt_always_rank_one(gt_model, small_table):
    assert (gt_model.ranks(small_table) == 1).all()


def top1(model, table):
    """The head of each observation's materialized ranked list."""
    lists = model.topk_lists(
        table.observation_seeds(), table.class_id, table.difficulty, 1
    )
    return np.asarray([ranked[0] for ranked in lists])


def test_gt_top1_is_truth(gt_model, small_table):
    np.testing.assert_array_equal(top1(gt_model, small_table), small_table.class_id)


def test_cheap_top1_sometimes_wrong(model, small_table):
    mask = np.zeros(len(small_table), dtype=bool)
    mask[:200] = True
    sub = small_table.select(mask)
    predicted = top1(model, sub)
    truth = sub.class_id
    assert (predicted != truth).any()
    # wrong answers are exactly the rows whose true class slipped, and
    # are still valid class ids
    np.testing.assert_array_equal(predicted != truth, model.ranks(sub) > 1)
    assert (predicted >= 0).all() and (predicted < 1000).all()


def test_cost_seconds(model):
    one = model.cost_seconds(1)
    assert model.cost_seconds(100) == pytest.approx(100 * one)
    with pytest.raises(ValueError):
        model.cost_seconds(-1)


def test_cheaper_than(gt_model, cheap_model):
    assert cheap_model.cheaper_than(gt_model) == pytest.approx(7.0, rel=0.01)


def test_topk_membership_includes_true_class_at_high_k(model, small_table):
    sub = small_table.time_range(0, 10)
    cls = int(sub.class_id[0])
    member = model.topk_membership(sub, cls, 900)
    of_class = sub.class_id == cls
    assert member[of_class].mean() > 0.95


def test_topk_membership_monotone_in_k(model, small_table):
    sub = small_table.time_range(0, 10)
    cls = int(sub.class_id[0])
    m_small = model.topk_membership(sub, cls, 5)
    m_large = model.topk_membership(sub, cls, 100)
    # k=5 members are a subset of k=100 members on the true-class path;
    # overall count must grow
    assert m_large.sum() >= m_small.sum()


def test_topk_membership_invalid_k(model, small_table):
    with pytest.raises(ValueError):
        model.topk_membership(small_table, 0, 0)


def test_topk_list_contains_true_class_at_its_rank(model):
    seeds = np.arange(200, dtype=np.uint64)
    ranks = true_class_ranks(
        model.salt, seeds, np.ones(200), model.dispersion, model.num_classes
    )
    for seed, rank in zip(seeds, ranks.tolist()):
        ranked = model.topk_list(int(seed), true_class=8, difficulty=1.0, k=50)
        if rank <= 50:
            assert ranked[rank - 1] == 8
        else:
            assert 8 not in ranked
    assert ((ranks > 1) & (ranks <= 50)).any()


def test_topk_list_distinct(model):
    ranked = model.topk_list(12345, true_class=8, difficulty=1.0, k=100)
    assert len(ranked) == len(set(ranked))


def test_topk_list_invalid_k(model):
    with pytest.raises(ValueError):
        model.topk_list(1, 1, 1.0, 0)


def test_dispersion_validation():
    arch = ArchSpec(family="resnet", conv_layers=18)
    with pytest.raises(ValueError):
        ClassifierModel(name="x", arch=arch, dispersion=-1)


def test_features_dim(model, tiny_table):
    feats = model.features(tiny_table)
    assert feats.shape == (len(tiny_table), model.feature_dim)


def test_repr(model):
    assert "test-model" in repr(model)
