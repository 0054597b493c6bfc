"""Sharded serving fabric: placement, scatter-gather routing, migration.

Turns N independent :class:`~repro.core.system.FocusSystem` shards into
one logical service (the ROADMAP's horizontal-scaling layer):

* :mod:`repro.fabric.placement` -- deterministic rendezvous-hash
  placement of streams onto shards, kept as an explicit *versioned*
  table persisted in a document store (minimal movement on shard
  add/remove, migrations recorded as pins).
* :mod:`repro.fabric.shard` -- :class:`ShardNode`: one FocusSystem plus
  its own durable store (WAL journals, checkpoints, indexes) and GPU
  cluster; and ``ShardLeg``, the one contract the router and migration
  are written against.
* :mod:`repro.fabric.router` -- :class:`FabricRouter`: the full
  ``QueryService`` surface over the fleet, scatter-gathering per-shard
  plans and merging answers bit-identically to a single node.
* :mod:`repro.fabric.migration` -- live stream migration built on the
  WAL/epoch machinery: checkpoint -> copy -> recover -> fence, answers
  identical before and after, zombies fenced by ``StaleEpochError``.
* :mod:`repro.fabric.worker` / :mod:`repro.fabric.client` /
  :mod:`repro.fabric.supervisor` over :mod:`repro.fabric.protocol` /
  :mod:`repro.fabric.codec` -- the *parallel* mode: each shard in its
  own worker process behind a serialized command protocol whose ops
  are declared once, in ``protocol.OPS`` (:class:`FabricSupervisor`
  spawns and restarts the fleet, :class:`ShardClient` implements
  ``ShardLeg`` over queues), with answers still bit-identical to a
  single node.
* :mod:`repro.fabric.shm` -- the zero-copy data plane under the
  parallel mode: bulk payloads ride pooled ``multiprocessing``
  shared-memory segments referenced by descriptors; small messages
  (and every message on a host without shared memory) inline.

See ``docs/SHARDING.md`` for the placement table format, routing flow,
migration protocol, and the worker process model.
"""

from repro.fabric.migration import MigrationError, MigrationReport, migrate_stream
from repro.fabric.placement import (
    PlacementConflictError,
    PlacementError,
    PlacementTable,
    rendezvous_shard,
)
from repro.fabric.protocol import (
    DEFAULT_DEADLINES,
    FAULT_COUNTER_KEYS,
    PROTOCOL_VERSION,
    WIRE_COUNTER_KEYS,
    DeadlineExceeded,
    ProtocolError,
    RemoteShardError,
    ShardFailed,
    StreamHandleInfo,
    WorkerCrashed,
)
from repro.fabric.shm import DEFAULT_SHM_THRESHOLD, shm_available
from repro.fabric.router import FabricRouter
from repro.fabric.shard import ShardNode
from repro.fabric.client import ShardClient
from repro.fabric.supervisor import FabricSupervisor, FabricWatchdog

__all__ = [
    "DEFAULT_DEADLINES",
    "DEFAULT_SHM_THRESHOLD",
    "DeadlineExceeded",
    "FAULT_COUNTER_KEYS",
    "FabricRouter",
    "FabricSupervisor",
    "FabricWatchdog",
    "MigrationError",
    "MigrationReport",
    "PROTOCOL_VERSION",
    "PlacementConflictError",
    "PlacementError",
    "PlacementTable",
    "ProtocolError",
    "RemoteShardError",
    "ShardClient",
    "ShardFailed",
    "ShardNode",
    "StreamHandleInfo",
    "WIRE_COUNTER_KEYS",
    "WorkerCrashed",
    "migrate_stream",
    "rendezvous_shard",
    "shm_available",
]
