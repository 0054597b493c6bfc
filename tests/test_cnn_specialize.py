"""Unit tests for per-stream CNN specialization (Section 4.3)."""

import numpy as np
import pytest

from repro.cnn.specialize import (
    OTHER_CLASS,
    SpecializedClassifier,
    head_classes_from_histogram,
    specialization_ladder,
    specialize,
)
from repro.cnn.zoo import cheap_cnn, resnet152


def test_head_classes_from_histogram():
    hist = {3: 100, 7: 50, 9: 200, 11: 1}
    assert head_classes_from_histogram(hist, 2) == [9, 3]
    assert head_classes_from_histogram(hist, 10) == [9, 3, 7, 11]
    with pytest.raises(ValueError):
        head_classes_from_histogram(hist, 0)


def test_specialize_requires_histogram():
    with pytest.raises(ValueError):
        specialize(cheap_cnn(1), {}, 5, "s")


def test_specialized_much_cheaper_than_gt(spec_model, gt_model):
    """Specialized models are 7x-71x+ cheaper than GT (Section 4.3)."""
    factor = spec_model.cheaper_than(gt_model)
    assert 40 <= factor <= 150


def test_specialized_cost_floor():
    """There is a floor on how cheap a useful model can get."""
    tiny = specialize(cheap_cnn(3), {1: 10, 2: 5}, 2, "s", cost_divisor=50.0)
    assert tiny.cheaper_than(resnet152()) <= 150


def test_small_k_suffices(spec_model, small_table):
    """Specialized models reach high recall at K=2-4 vs 60-200 generic
    (Section 4.3)."""
    assert (spec_model.ranks(small_table) <= 4).mean() > 0.95
    assert (cheap_cnn(1).ranks(small_table) <= 4).mean() < 0.5


def test_space_tokens(spec_model):
    tokens = spec_model.space_tokens()
    assert tokens[-1] == OTHER_CLASS
    assert len(tokens) == spec_model.ls + 1


def test_map_to_space(spec_model, small_table):
    mapped = spec_model.map_to_space(small_table.class_id)
    in_head = np.isin(small_table.class_id, spec_model.head_classes)
    assert (mapped[in_head] == small_table.class_id[in_head]).all()
    assert (mapped[~in_head] == OTHER_CLASS).all()


def test_query_token(spec_model):
    head = int(spec_model.head_classes[0])
    assert spec_model.query_token(head) == head
    assert spec_model.query_token(999) == OTHER_CLASS


def test_ranks_within_space(spec_model, small_table):
    ranks = spec_model.ranks(small_table)
    assert ranks.min() >= 1
    assert ranks.max() <= spec_model.space_size


def test_membership_head_class(spec_model, small_table):
    head = int(spec_model.head_classes[0])
    member = spec_model.topk_membership(small_table, head, 4)
    of_class = small_table.class_id == head
    if of_class.any():
        assert member[of_class].mean() > 0.9


def test_membership_other_routes_tail(spec_model, small_table):
    member = spec_model.topk_membership(small_table, OTHER_CLASS, 4)
    tail = ~np.isin(small_table.class_id, spec_model.head_classes)
    if tail.any():
        assert member[tail].mean() > 0.9


def test_membership_rejects_unknown_class(spec_model, small_table):
    unknown = 999
    assert unknown not in spec_model.head_set
    with pytest.raises(ValueError):
        spec_model.topk_membership(small_table, unknown, 4)


def test_topk_list_tokens_only(spec_model):
    ranked = spec_model.topk_list(777, int(spec_model.head_classes[0]), 1.0, 4)
    assert set(ranked) <= set(spec_model.space_tokens())
    assert len(ranked) == len(set(ranked))


def test_predicted_top1_in_space(spec_model, tiny_table):
    lists = spec_model.topk_lists(
        tiny_table.observation_seeds(), tiny_table.class_id, tiny_table.difficulty, 1
    )
    predicted = np.asarray([ranked[0] for ranked in lists])
    assert set(np.unique(predicted)) <= set(spec_model.space_tokens())
    right = spec_model.ranks(tiny_table) == 1
    mapped = spec_model.map_to_space(tiny_table.class_id)
    np.testing.assert_array_equal(predicted[right], mapped[right])


def test_duplicate_head_rejected():
    from repro.cnn.costs import ArchSpec

    with pytest.raises(ValueError):
        SpecializedClassifier(
            name="x",
            arch=ArchSpec(family="specialized", conv_layers=5, gflops_override=0.1),
            dispersion=0.5,
            head_classes=[1, 1],
            source_name="src",
        )


def test_empty_head_rejected():
    from repro.cnn.costs import ArchSpec

    with pytest.raises(ValueError):
        SpecializedClassifier(
            name="x",
            arch=ArchSpec(family="specialized", conv_layers=5, gflops_override=0.1),
            dispersion=0.5,
            head_classes=[],
            source_name="src",
        )


def test_ladder_clamps_ls():
    hist = {1: 10, 2: 8, 3: 5}
    ladder = specialization_ladder([cheap_cnn(1)], hist, "s", ls_values=(5, 10))
    # both ls values clamp to 3 -> deduplicated to one per divisor
    names = {m.name for m in ladder}
    assert all(m.ls == 3 for m in ladder)
    assert len(names) == len(ladder)


def test_ladder_empty_histogram():
    assert specialization_ladder([cheap_cnn(1)], {}, "s") == []


def test_per_stream_models_independent(small_table):
    hist = small_table.class_histogram()
    a = specialize(cheap_cnn(1), hist, 5, "stream_a")
    b = specialize(cheap_cnn(1), hist, 5, "stream_b")
    assert a.salt != b.salt
    ra, rb = a.ranks(small_table), b.ranks(small_table)
    assert not np.array_equal(ra, rb)


def test_invalid_divisor(small_table):
    with pytest.raises(ValueError):
        specialize(cheap_cnn(1), small_table.class_histogram(), 5, "s", cost_divisor=0)
