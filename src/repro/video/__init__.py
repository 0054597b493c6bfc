"""Synthetic video substrate.

The paper evaluates Focus on 150+ hours of real video from 13 live
streams (Table 1).  Offline, we substitute a seeded synthetic scene
generator that reproduces the *statistical structure* those videos are
shown to have in Section 2.2 of the paper:

* a limited, power-law-distributed set of object classes per stream
  (3-10% of classes cover >= 95% of objects; 22-69% of the 1000
  classes ever appear; mean Jaccard index between streams ~= 0.46),
* one-third to one-half of frames with no moving objects,
* objects that persist across consecutive frames with near-identical
  appearance (the basis of Focus's clustering).

Every Focus mechanism downstream consumes objects, labels, feature
vectors and GPU-time costs -- never raw pixels -- so a generator that
matches these statistics exercises the same code paths and trade-offs
as the paper's real videos.  Object detection (IT1) is therefore
modelled, not executed: the observation table *is* the detector's
output (see ``docs/ARCHITECTURE.md``).
"""

from repro.video.classes import (
    NUM_CLASSES,
    class_name,
    class_id,
    domain_pool,
    DOMAINS,
)
from repro.video.profiles import StreamProfile, STREAMS, get_profile, stream_names
from repro.video.tracks import Track, TrackGenerator
from repro.video.synthesis import ObservationTable, SceneGenerator, generate_observations
from repro.video.sampling import resample_fps

__all__ = [
    "NUM_CLASSES",
    "class_name",
    "class_id",
    "domain_pool",
    "DOMAINS",
    "StreamProfile",
    "STREAMS",
    "get_profile",
    "stream_names",
    "Track",
    "TrackGenerator",
    "ObservationTable",
    "SceneGenerator",
    "generate_observations",
    "resample_fps",
]
