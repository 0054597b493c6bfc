"""Architecture-derived inference cost model.

The paper's two performance metrics are pure GPU time (Section 6.1),
so reproducing them requires a credible mapping

    architecture (layers, input resolution) -> FLOPs -> GPU-seconds.

We model a family's FLOPs as ``coefficient * conv_layers *
(input_px / 224) ** resolution_exponent`` and calibrate the
coefficients against published model costs (ResNet152 ~11.4 GFLOPs,
ResNet18 ~1.8, AlexNet ~0.7, VGG16 ~15.5).  GPU throughput is
calibrated to the paper's anchor: ResNet152 classifies 77 images/second
on an NVIDIA K80 (Section 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


#: FLOPs-per-conv-layer coefficients (GFLOPs at 224 px input).
_FAMILY_COEFF: Dict[str, float] = {
    "resnet": 0.075,
    "alexnet": 0.0875,
    "vgg": 0.97,
    "specialized": 0.075,
}

#: Sub-quadratic resolution scaling: early layers dominate compressed
#: models, and their cost shrinks slower than the pixel count.
RESOLUTION_EXPONENT = 1.7

REFERENCE_INPUT_PX = 224


@dataclass(frozen=True)
class ArchSpec:
    """A classifier architecture: family, depth, and input resolution."""

    family: str
    conv_layers: int
    input_px: int = REFERENCE_INPUT_PX
    gflops_override: Optional[float] = None

    def __post_init__(self):
        if self.family not in _FAMILY_COEFF:
            raise ValueError(
                "unknown family %r; known: %s" % (self.family, sorted(_FAMILY_COEFF))
            )
        if self.conv_layers < 1:
            raise ValueError("conv_layers must be >= 1")
        if self.input_px < 8:
            raise ValueError("input_px must be >= 8")

    @property
    def gflops(self) -> float:
        """Estimated GFLOPs per inference."""
        if self.gflops_override is not None:
            return self.gflops_override
        scale = (self.input_px / REFERENCE_INPUT_PX) ** RESOLUTION_EXPONENT
        return _FAMILY_COEFF[self.family] * self.conv_layers * scale


@dataclass(frozen=True)
class GPUSpec:
    """A GPU's effective classification throughput.

    ``effective_gflops`` is calibrated, not peak: it is chosen so the
    anchor model achieves its published images/second.
    """

    name: str
    effective_gflops: float

    def images_per_second(self, arch: ArchSpec) -> float:
        return self.effective_gflops / arch.gflops


#: ResNet152 (11.4 GFLOPs) at 77 images/s => ~878 effective GFLOPs.
K80 = GPUSpec(name="NVIDIA K80", effective_gflops=11.4 * 77.0)

#: The paper's experiment platform GPU (Section 6.1); roughly 2.2x K80.
TITAN_X = GPUSpec(name="NVIDIA GTX Titan X", effective_gflops=11.4 * 170.0)

DEFAULT_GPU = K80


def inference_seconds(arch: ArchSpec, gpu: GPUSpec = DEFAULT_GPU, batch: int = 1) -> float:
    """GPU-seconds to classify ``batch`` images with ``arch`` on ``gpu``."""
    if batch < 0:
        raise ValueError("batch must be non-negative")
    return batch * arch.gflops / gpu.effective_gflops
