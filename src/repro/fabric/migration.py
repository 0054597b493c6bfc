"""Live stream migration between shards (checkpoint -> copy -> recover -> fence).

Moving a live, mid-ingest stream from one shard to another reuses the
PR-4 durability machinery end to end -- no new serialization format,
no state the WAL does not already cover.  :func:`migrate_stream`
orchestrates any pair of :class:`~repro.fabric.shard.ShardLeg` legs
(in-process, worker process, or one of each); each step is a leg
method, written once on :class:`~repro.fabric.shard.ShardNode`:

1. ``target.import_precheck`` refuses before any source-side work.
2. ``source.migrate_out`` commits an atomic epoch-tagged checkpoint
   into the source shard's store (optional but default: it bounds the
   journal suffix the target must replay; the WAL alone already
   carries everything).  The source keeps serving.
3. **Copy.**  The stream's committed collections plus the journal
   suffix are cloned out of ``source.store`` into a staging store
   (:func:`~repro.storage.journal.copy_stream_state`).
4. ``target.import_stream`` installs the staging store and recovers
   the session from it.  The PR-4 recovery contract makes the resumed
   session bit-identical to one that never moved, in both index modes
   -- so query answers (frames *and* segment metrics) are unchanged by
   the move, and ingest resumes on the target with the next
   ``append``.  A failure here wipes the copy and leaves the source
   serving.
5. ``source.finish_migration`` fences the source lineage and releases
   its session.  Only now is the move irreversible; a crash between 4
   and 5 leaves both copies durable but the source authoritative (its
   fence has not moved).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.events import emit as _emit_event
from repro.storage.docstore import DocumentStore
from repro.storage.journal import copy_stream_state

if TYPE_CHECKING:  # pragma: no cover - type-only import, no cycle at runtime
    from repro.fabric.shard import ShardLeg


class MigrationError(RuntimeError):
    """A stream cannot be migrated as requested."""


@dataclass(frozen=True)
class MigrationReport:
    """What one completed migration did."""

    stream: str
    source_shard: str
    target_shard: str
    #: the committed epoch the target recovered from (0: journal-only)
    epoch: int
    #: the epoch the source store is fenced at (committed + 1)
    fence_epoch: int
    #: journal chunk records the target replayed past the checkpoint
    replayed_chunks: int
    rows: int
    watermark_s: float


def migrate_stream(
    source: "ShardLeg",
    target: "ShardLeg",
    stream: str,
    checkpoint: bool = True,
) -> MigrationReport:
    """Move one live durable stream from ``source`` to ``target``.

    With ``checkpoint=False`` the move ships the last committed
    checkpoint plus the whole journal suffix instead of committing a
    fresh one -- slower target recovery, same bit-identical result.

    On return the stream is live on the target (appendable, queryable)
    and gone from the source's serving set; the source store keeps only
    a fence tombstone.
    """
    if source.shard_id == target.shard_id:
        raise MigrationError(
            "stream %r already lives on shard %r" % (stream, target.shard_id)
        )
    _emit_event(
        "migration.start", shard=source.shard_id, stream=stream, target=target.shard_id
    )
    target.import_precheck(stream)
    epoch, replayed_chunks, config = source.migrate_out(stream, checkpoint=checkpoint)
    _emit_event(
        "migration.exported",
        shard=source.shard_id,
        stream=stream,
        epoch=epoch,
        replayed_chunks=replayed_chunks,
    )
    # a worker leg's store is its supervisor-side mirror, which holds
    # the checkpoint as soon as migrate_out is acknowledged
    staging = DocumentStore()
    copy_stream_state(source.store, staging, stream)
    imported = target.import_stream(stream, staging, config)
    _emit_event(
        "migration.imported", shard=target.shard_id, stream=stream, rows=imported.rows
    )
    fence_epoch = source.finish_migration(stream, target.shard_id)
    _emit_event(
        "migration.finished",
        shard=target.shard_id,
        stream=stream,
        fence_epoch=fence_epoch,
    )
    return MigrationReport(
        stream=stream,
        source_shard=source.shard_id,
        target_shard=target.shard_id,
        epoch=epoch,
        fence_epoch=fence_epoch,
        replayed_chunks=replayed_chunks,
        rows=imported.rows,
        watermark_s=imported.watermark_s,
    )
