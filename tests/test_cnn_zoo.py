"""Unit tests for the model zoo."""

import pytest

from repro.cnn.zoo import (
    CHEAP_CNN_FAMILY,
    alexnet,
    cheap_cnn,
    generic_candidates,
    resnet152,
    vgg16,
)


class TestZoo:
    def test_gt_is_resnet152(self):
        gt = resnet152()
        assert gt.is_ground_truth
        assert gt.gflops == pytest.approx(11.4)

    def test_cheap_cnn_cost_factors_match_figure5(self):
        """CheapCNN1/2/3 are 7x/28x/58x cheaper than GT (Figure 5)."""
        gt = resnet152()
        for i, factor in zip(CHEAP_CNN_FAMILY, (7.0, 28.0, 58.0)):
            assert cheap_cnn(i).cheaper_than(gt) == pytest.approx(factor, rel=0.01)

    def test_cheaper_models_have_higher_dispersion(self):
        d = [cheap_cnn(i).dispersion for i in CHEAP_CNN_FAMILY]
        assert d[0] < d[1] < d[2]

    def test_cheap_cnn_bad_index(self):
        with pytest.raises(ValueError):
            cheap_cnn(0)
        with pytest.raises(ValueError):
            cheap_cnn(4)

    def test_generic_candidates_all_cheaper_than_gt(self):
        gt = resnet152()
        for model in generic_candidates():
            assert model.gflops < gt.gflops
            assert model.dispersion > 0

    def test_alexnet_and_vgg_costs(self):
        assert alexnet().gflops == pytest.approx(0.72)
        assert vgg16().gflops == pytest.approx(15.5)
        assert vgg16().dispersion < alexnet().dispersion  # pricier = sharper

