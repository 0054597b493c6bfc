"""Embedded document store, WAL journal, and fault injection.

The paper's ingest workers persist the top-K index in MongoDB for
efficient retrieval at query time (Section 5).  Offline, we substitute
a small embedded document store with the same operational surface:
named collections, document insertion and keyed upserts,
equality/``$lte`` queries, scalar hash indexes, JSON persistence to
disk (the contract is stated in ``docstore.py``) -- plus the durability
layer live ingest needs: an append-only checksummed ingest journal,
atomic epoch-tagged checkpoints (staged collections swapped on
commit), and a deterministic fault-injection wrapper for chaos drills.
"""

from repro.storage.docstore import Collection, DocumentStore, DocStoreError
from repro.storage.faults import FaultInjected, FaultyStore
from repro.storage.journal import (
    CheckpointWriter,
    IngestJournal,
    JournalCorruption,
    JournalError,
    StaleEpochError,
    committed_checkpoint,
    copy_stream_state,
    fence_stream,
    fenced_streams,
    journaled_streams,
    load_ingest_state,
    reset_stream,
)

__all__ = [
    "copy_stream_state",
    "fence_stream",
    "fenced_streams",
    "Collection",
    "DocumentStore",
    "DocStoreError",
    "FaultInjected",
    "FaultyStore",
    "CheckpointWriter",
    "IngestJournal",
    "JournalCorruption",
    "JournalError",
    "StaleEpochError",
    "committed_checkpoint",
    "journaled_streams",
    "load_ingest_state",
    "reset_stream",
]
