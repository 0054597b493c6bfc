"""Unit tests for the architecture cost model."""

import pytest

from repro.cnn.costs import (
    K80,
    TITAN_X,
    ArchSpec,
    GPUSpec,
    inference_seconds,
)


def test_resnet152_anchor():
    """The paper's anchor: ResNet152 runs 77 images/s on a K80 (2.1)."""
    arch = ArchSpec(family="resnet", conv_layers=152, gflops_override=11.4)
    assert K80.images_per_second(arch) == pytest.approx(77.0)


def test_inference_seconds_scale_with_batch():
    arch = ArchSpec(family="resnet", conv_layers=18)
    assert inference_seconds(arch, K80, batch=10) == pytest.approx(
        10 * inference_seconds(arch, K80, batch=1)
    )


def test_negative_batch_rejected():
    arch = ArchSpec(family="resnet", conv_layers=18)
    with pytest.raises(ValueError):
        inference_seconds(arch, K80, batch=-1)


def test_titan_x_faster_than_k80():
    arch = ArchSpec(family="resnet", conv_layers=152, gflops_override=11.4)
    assert TITAN_X.images_per_second(arch) > K80.images_per_second(arch)


def test_fewer_layers_cheaper():
    deep = ArchSpec(family="resnet", conv_layers=152)
    shallow = ArchSpec(family="resnet", conv_layers=52)
    assert shallow.gflops < deep.gflops


def test_smaller_input_cheaper():
    full = ArchSpec(family="resnet", conv_layers=18, input_px=224)
    half = ArchSpec(family="resnet", conv_layers=18, input_px=112)
    assert half.gflops < full.gflops
    # sub-quadratic scaling: halving resolution doesn't halve cost twice
    assert half.gflops > full.gflops / 4.0


def test_unknown_family():
    with pytest.raises(ValueError):
        ArchSpec(family="transformer", conv_layers=10)


def test_invalid_dimensions():
    with pytest.raises(ValueError):
        ArchSpec(family="resnet", conv_layers=0)
    with pytest.raises(ValueError):
        ArchSpec(family="resnet", conv_layers=10, input_px=4)


def test_override_wins():
    arch = ArchSpec(family="resnet", conv_layers=18, gflops_override=3.0)
    assert arch.gflops == 3.0


def test_vgg_more_expensive_than_resnet18():
    """Published model costs: VGG16 ~15.5 GFLOPs >> ResNet18 ~1.8."""
    vgg = ArchSpec(family="vgg", conv_layers=16)
    r18 = ArchSpec(family="resnet", conv_layers=18)
    assert vgg.gflops > 5 * r18.gflops
