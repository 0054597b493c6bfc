"""repro: a reproduction of "Focus: Querying Large Video Datasets with
Low Latency and Low Cost" (Hsieh et al., OSDI 2018).

Focus splits video-query work between ingest time and query time: a
cheap per-stream specialized CNN indexes objects under their top-K
classes at ingest, similar objects are clustered so the expensive
ground-truth CNN verifies only cluster centroids at query time, and a
tuner trades ingest cost against query latency while meeting
user-specified precision/recall targets.

Quick start::

    from repro import FocusSystem

    system = FocusSystem()
    system.ingest_stream("auburn_c", duration_s=300)
    answer = system.query("auburn_c", "car")
    print(answer.frames, answer.precision, answer.recall)

See README.md for the tour and docs/ARCHITECTURE.md for the
module-by-module mapping to the paper's sections and figures.
"""

from repro.core.config import AccuracyTarget, FocusConfig, Policy, TunerSettings
from repro.core.streaming import ChunkReport, StreamIngestor
from repro.core.system import FocusSystem, QueryAnswer, StreamHandle
from repro.core.costmodel import CostCategory, GPULedger
from repro.baselines import IngestAllBaseline, QueryAllBaseline
from repro.fabric import (
    FabricRouter,
    FabricSupervisor,
    MigrationReport,
    PlacementTable,
    ShardClient,
    ShardNode,
    migrate_stream,
)
from repro.serve import MultiStreamAnswer, QueryRequest, QueryService, VerificationCache
from repro.storage.docstore import DocumentStore
from repro.storage.faults import FaultInjected, FaultyStore
from repro.storage.journal import IngestJournal, JournalCorruption, StaleEpochError
from repro.video import STREAMS, generate_observations, get_profile
from repro.cnn import GROUND_TRUTH, cheap_cnn, resnet152, specialize

__version__ = "1.2.0"

__all__ = [
    "FabricRouter",
    "FabricSupervisor",
    "MigrationReport",
    "PlacementTable",
    "ShardClient",
    "ShardNode",
    "migrate_stream",
    "AccuracyTarget",
    "FocusConfig",
    "Policy",
    "TunerSettings",
    "FocusSystem",
    "QueryAnswer",
    "StreamHandle",
    "ChunkReport",
    "StreamIngestor",
    "CostCategory",
    "GPULedger",
    "IngestAllBaseline",
    "QueryAllBaseline",
    "MultiStreamAnswer",
    "QueryRequest",
    "QueryService",
    "VerificationCache",
    "DocumentStore",
    "FaultInjected",
    "FaultyStore",
    "IngestJournal",
    "JournalCorruption",
    "StaleEpochError",
    "STREAMS",
    "generate_observations",
    "get_profile",
    "GROUND_TRUTH",
    "cheap_cnn",
    "resnet152",
    "specialize",
    "__version__",
]
