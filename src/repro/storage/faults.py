"""Deterministic fault injection for document-store writes.

:class:`FaultyStore` wraps a :class:`~repro.storage.docstore.DocumentStore`
and injects storage failures at exact, reproducible points:

* **crash after N writes** -- every mutating operation (document
  insert/upsert/update/delete, collection drop, staged commit)
  increments a write counter; once the budget is exhausted, further writes raise
  :class:`FaultInjected` *before* touching the store.  Because
  ``insert_many`` decomposes into per-document inserts, a budget that
  runs out mid-batch produces a genuinely *torn* multi-document write.
* **duplicated appends** -- inserts into matching collections (by
  default the ingest journal) are applied twice, simulating an
  at-least-once producer whose acknowledgment was lost and retried.
  Journal readers must deduplicate; see
  :meth:`repro.storage.journal.IngestJournal.records`.

The wrapper is a product feature, not test scaffolding: point a chaos
drill at a live store, give it a write budget, and verify the service
recovers -- the new recovery test suite is simply the first consumer.

The atomicity model matches real storage: a single document insert or
keyed upsert and a staged-commit swap are indivisible (a crash lands
before or after, never inside), everything larger can tear.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.storage.docstore import Collection, DocumentStore
from repro.storage.journal import JOURNAL_PREFIX


class FaultInjected(RuntimeError):
    """The injected storage fault: the simulated machine crashed here."""

    def __init__(self, op: str, target: str, write_index: int):
        super().__init__(
            "injected fault at write #%d (%s on %r)" % (write_index, op, target)
        )
        self.op = op
        self.target = target
        self.write_index = write_index


class FaultyCollection:
    """Collection proxy that meters (and can refuse) every write."""

    def __init__(self, store: "FaultyStore", inner: Collection):
        self._store = store
        self._inner = inner

    # -- writes (metered) ---------------------------------------------------
    def insert_one(self, doc: Dict[str, Any]) -> int:
        self._store._spend("insert_one", self._inner.name)
        doc_id = self._inner.insert_one(doc)
        if self._store._duplicates(self._inner.name):
            # the retry lands as its own document (fresh _id), exactly
            # like a re-sent append after a lost acknowledgment
            self._store._spend("insert_one[dup]", self._inner.name)
            self._inner.insert_one({k: v for k, v in doc.items() if k != "_id"})
        return doc_id

    def insert_many(self, docs: Iterable[Dict[str, Any]]) -> List[int]:
        # per-document inserts: an exhausted budget tears the batch
        return [self.insert_one(d) for d in docs]

    def upsert(self, match: Dict[str, Any], doc: Dict[str, Any]) -> int:
        # one write however many documents matched: the keyed document
        # lands whole or not at all
        self._store._spend("upsert", self._inner.name)
        return self._inner.upsert(match, doc)

    def update_one(self, doc_id: int, fields: Dict[str, Any]) -> None:
        self._store._spend("update_one", self._inner.name)
        self._inner.update_one(doc_id, fields)

    def delete(self, doc_id: int) -> None:
        self._store._spend("delete", self._inner.name)
        self._inner.delete(doc_id)

    def delete_many(self, query: Optional[Dict[str, Any]] = None) -> int:
        doomed = [doc["_id"] for doc in self._inner.find(query)]
        for doc_id in doomed:
            self.delete(doc_id)
        return len(doomed)

    # -- reads / maintenance (free) -----------------------------------------
    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name: str):
        # reads (find, find_one, get, ...) and index maintenance
        # pass through unmetered; only mutations above can fault
        return getattr(self._inner, name)


class FaultyStore:
    """A :class:`DocumentStore` wrapper that injects write faults.

    Args:
        inner: the real store every surviving write lands in.
        fail_after_writes: crash budget -- the N+1-th write raises
            :class:`FaultInjected`.  ``None`` disables crashing (useful
            for profiling a workload's write trace first).
        duplicate_collections: name prefixes whose ``insert_one`` is
            applied twice (at-least-once delivery).  Defaults to no
            duplication; pass ``(JOURNAL_PREFIX,)`` to duplicate
            journal appends.

    The write counter and per-write operation log are exposed so a
    crash-point sweep can first profile a clean run, then re-run with
    ``fail_after_writes`` pinned to each observed write index.
    """

    def __init__(
        self,
        inner: DocumentStore,
        fail_after_writes: Optional[int] = None,
        duplicate_collections: Iterable[str] = (),
    ):
        self.inner = inner
        self.fail_after_writes = fail_after_writes
        self.duplicate_prefixes = tuple(duplicate_collections)
        self.writes_applied = 0
        self.faults_injected = 0
        #: (op, collection-or-store target) per applied write, in order
        self.write_log: List[tuple] = []

    # -- fault engine --------------------------------------------------------
    def _spend(self, op: str, target: str) -> None:
        if (
            self.fail_after_writes is not None
            and self.writes_applied >= self.fail_after_writes
        ):
            self.faults_injected += 1
            raise FaultInjected(op, target, self.writes_applied)
        self.writes_applied += 1
        self.write_log.append((op, target))

    def _duplicates(self, name: str) -> bool:
        return any(name.startswith(p) for p in self.duplicate_prefixes)

    @classmethod
    def duplicating_journal(cls, inner: DocumentStore) -> "FaultyStore":
        """A store whose journal appends land twice (lost-ack retries)."""
        return cls(inner, duplicate_collections=(JOURNAL_PREFIX,))

    # -- DocumentStore surface ----------------------------------------------
    def collection(self, name: str) -> FaultyCollection:
        return FaultyCollection(self, self.inner.collection(name))

    def drop(self, name: str) -> None:
        self._spend("drop", name)
        self.inner.drop(name)

    def collection_names(self) -> List[str]:
        return self.inner.collection_names()

    # -- staged commits ------------------------------------------------------
    def stage(self, name: str) -> FaultyCollection:
        # staging happens off to the side; creating the clone is not a
        # durable write, but every mutation of the clone is metered
        return FaultyCollection(self, self.inner.stage(name))

    def drop_staged(self, name: str) -> None:
        self.inner.drop_staged(name)

    def staged_names(self) -> List[str]:
        return self.inner.staged_names()

    def commit_staged(self, names: Optional[Iterable[str]] = None) -> List[str]:
        # one indivisible write: the fault (if due) fires before the
        # swap, so a crash never lands between two collection swaps
        self._spend("commit_staged", ",".join(sorted(names)) if names else "*")
        return self.inner.commit_staged(names)

    def discard_staged(self, names: Optional[Iterable[str]] = None) -> List[str]:
        return self.inner.discard_staged(names)

    # -- persistence ---------------------------------------------------------
    def save(self, path: str) -> None:
        self.inner.save(path)
