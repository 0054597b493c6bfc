"""Simulated CNN substrate.

The paper's pipeline uses real CNNs (ResNet152 as the ground-truth
model; compressed and specialized ResNet/AlexNet/VGG variants at ingest)
running on GPUs.  Neither GPUs nor trained models are available offline,
so this package substitutes *simulated classifiers* that expose exactly
the three things Focus consumes from a CNN:

1. a ranked list of classes per object (modelled by a seeded
   rank-dispersion noise process, calibrated to the recall-vs-K curves
   of Figure 5),
2. a feature vector from the penultimate layer (modelled as a class
   prototype plus a persistent per-track appearance component plus
   drift, reproducing the >99% nearest-neighbour same-class property of
   Section 2.2.3), and
3. a per-inference GPU-time cost (an architecture-derived FLOPs model
   calibrated so ResNet152 classifies 77 images/second on one GPU,
   Section 2.1).

Because Focus never inspects CNN internals, a substrate that reproduces
these three interfaces exercises every Focus mechanism and trade-off.
"""

from repro.cnn.costs import ArchSpec, GPUSpec, K80, TITAN_X, inference_seconds
from repro.cnn.model import ClassifierModel
from repro.cnn.zoo import (
    GROUND_TRUTH,
    resnet152,
    resnet18,
    cheap_cnn,
    CHEAP_CNN_FAMILY,
    generic_candidates,
)
from repro.cnn.specialize import SpecializedClassifier, specialize, OTHER_CLASS
from repro.cnn.features import FeatureExtractor

__all__ = [
    "ArchSpec",
    "GPUSpec",
    "K80",
    "TITAN_X",
    "inference_seconds",
    "ClassifierModel",
    "GROUND_TRUTH",
    "resnet152",
    "resnet18",
    "cheap_cnn",
    "CHEAP_CNN_FAMILY",
    "generic_candidates",
    "SpecializedClassifier",
    "specialize",
    "OTHER_CLASS",
    "FeatureExtractor",
]
