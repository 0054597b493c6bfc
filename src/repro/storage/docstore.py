"""The embedded document store (MongoDB stand-in) and its contract.

Every durable byte of the system -- WAL, checkpoints, the supervisor's
mirror -- lives in named collections of JSON-serializable dict
documents.  The store is exactly the interface the program calls,
stated as two ``typing.Protocol``s a second backend would implement:

* :class:`StoredCollection` -- auto-``_id`` inserts, one keyed write
  (:meth:`Collection.upsert`), copy-on-write updates, range/wipe
  deletes, and three query shapes: *scan* (``find()``), *equality*
  (``{"stream": s}``) and ``{"seq": {"$lte": n}}``.  Any other
  operator raises :class:`DocStoreError`.  ``create_index`` ensures a
  hash index over one scalar field; equality queries use it.
* :class:`CheckpointStore` -- ``collection`` / ``drop`` /
  ``collection_names`` and the staged commit (``stage`` /
  ``commit_staged`` / ``discard_staged``) that ingest, checkpoint,
  recovery and index export call;
  :class:`DocumentStore` and ``FaultyStore`` both satisfy it.

The mirror/migration members (``copy_collection_to``,
``replace_collection``, ``to_json_obj`` / ``from_json_obj``, the
doc-level delta calls) and ``save`` / ``load`` are
:class:`DocumentStore`-only: they move whole collections between
in-memory stores and are not part of what a backend must provide.
"""

from __future__ import annotations

import itertools
import json
import os
from typing import Any, Dict, Iterable, List, Optional, Protocol, Tuple


class DocStoreError(Exception):
    """Raised for invalid document-store operations."""


#: process-unique tokens naming delta-snapshot baselines (see
#: :meth:`Collection.delta_snapshot`); only ever compared within one
#: process
_DELTA_TOKENS = itertools.count(1)


class StoredCollection(Protocol):
    """What ingest, checkpoint and recovery call on a collection."""

    def __len__(self) -> int: ...
    def find(self, query=None) -> List[Dict[str, Any]]: ...
    def find_one(self, query=None) -> Optional[Dict[str, Any]]: ...
    def insert_one(self, doc) -> int: ...
    def upsert(self, match, doc) -> int: ...
    def update_one(self, doc_id, fields) -> None: ...
    def delete_many(self, query=None) -> int: ...
    def create_index(self, field) -> None: ...


class CheckpointStore(Protocol):
    """The store contract of live ingest, atomic checkpoints, recovery
    and index export.  ``tests/test_storage_contract`` holds every
    implementation to these names and parameter names."""

    def collection(self, name) -> StoredCollection: ...
    def drop(self, name) -> None: ...
    def collection_names(self) -> List[str]: ...
    def stage(self, name) -> StoredCollection: ...
    def commit_staged(self, names=None) -> List[str]: ...
    def discard_staged(self, names=None) -> List[str]: ...


def _check_query(query: Dict[str, Any]) -> None:
    for condition in query.values():
        if isinstance(condition, dict) and list(condition) != ["$lte"]:
            raise DocStoreError(
                "unsupported query condition %r (equality and "
                "{'$lte': n} only)" % (condition,)
            )


def _matches(doc: Dict[str, Any], query: Dict[str, Any]) -> bool:
    for field, condition in query.items():
        value = doc.get(field)
        if isinstance(condition, dict):
            if value is None or not value <= condition["$lte"]:
                return False
        elif value != condition:
            return False
    return True


class Collection:
    """A named collection of documents with optional hash indexes."""

    def __init__(self, name: str):
        self.name = name
        self._docs: Dict[int, Dict[str, Any]] = {}
        self._next_id = 0
        self._indexes: Dict[str, Dict[Any, set]] = {}
        #: write counters, exposed so callers (e.g. incremental index
        #: checkpoints) can verify how many documents were touched
        self.inserts = 0
        self.updates = 0
        self.deletes = 0
        #: doc ids touched since the last delta snapshot -- the one
        #: change tracker (membership in ``_docs`` at snapshot time
        #: tells upsert from remove)
        self._dirty: set = set()
        #: names the baseline the dirty set is relative to; None until
        #: the first snapshot (ships whole)
        self._delta_token: Optional[int] = None

    def __len__(self) -> int:
        return len(self._docs)

    # -- writes -----------------------------------------------------------
    def _install(self, doc_id: int, stored: Dict[str, Any]) -> None:
        """Put ``stored`` in slot ``doc_id`` (new, or replacing in
        place), indexes in step.

        Stored document dicts are never mutated, only swapped, so
        clones sharing them (staged checkpoints) never see a write.
        Index keys are hashed first: an unhashable value faults before
        any stored state moves.
        """
        stored["_id"] = doc_id
        if self._indexes:
            for field in self._indexes:
                if field in stored:
                    hash(stored[field])
            old = self._docs.get(doc_id)
            for field, index in self._indexes.items():
                if old is not None and field in old:
                    self._index_remove(index, old[field], doc_id)
                if field in stored:
                    index.setdefault(stored[field], set()).add(doc_id)
        self._docs[doc_id] = stored
        self._dirty.add(doc_id)

    @staticmethod
    def _index_remove(index: Dict[Any, set], key: Any, doc_id: int) -> None:
        bucket = index.get(key)
        if bucket is not None:
            bucket.discard(doc_id)
            if not bucket:
                del index[key]

    def insert_one(self, doc: Dict[str, Any]) -> int:
        if not isinstance(doc, dict):
            raise DocStoreError("documents must be dicts")
        doc_id = self._next_id
        self._install(doc_id, dict(doc))
        self._next_id += 1
        self.inserts += 1
        return doc_id

    def insert_many(self, docs: Iterable[Dict[str, Any]]) -> List[int]:
        return [self.insert_one(d) for d in docs]

    def upsert(self, match: Dict[str, Any], doc: Dict[str, Any]) -> int:
        """The keyed write: make ``doc`` *the* document equal on
        ``match``; returns its ``_id``.

        The first match is replaced wholesale in place (same ``_id``,
        same scan position), any further matches are removed, and with
        no match the document is inserted.  One logical write: the
        document lands whole or not at all.
        """
        if not isinstance(doc, dict):
            raise DocStoreError("documents must be dicts")
        found = self.find(match)
        if not found:
            return self.insert_one(doc)
        doc_id = found[0]["_id"]
        self._install(doc_id, dict(doc))
        self.updates += 1
        for surplus in found[1:]:
            self.delete(surplus["_id"])
        return doc_id

    def update_one(self, doc_id: int, fields: Dict[str, Any]) -> None:
        """Merge ``fields`` into a document (copy-on-write, see
        :meth:`_install`)."""
        doc = self._docs.get(doc_id)
        if doc is None:
            raise DocStoreError("no document with _id=%r" % doc_id)
        if "_id" in fields and fields["_id"] != doc_id:
            raise DocStoreError("_id is immutable")
        self._install(doc_id, {**doc, **fields})
        self.updates += 1

    def delete(self, doc_id: int) -> None:
        doc = self._docs.pop(doc_id, None)
        if doc is None:
            raise DocStoreError("no document with _id=%r" % doc_id)
        for field, index in self._indexes.items():
            if field in doc:
                self._index_remove(index, doc[field], doc_id)
        self.deletes += 1
        self._dirty.add(doc_id)

    def delete_many(self, query: Optional[Dict[str, Any]] = None) -> int:
        """Delete every document matching ``query``; returns the count.

        An empty/None query clears the collection (ids are not reused).
        """
        doomed = [doc["_id"] for doc in self.find(query)]
        for doc_id in doomed:
            self.delete(doc_id)
        return len(doomed)

    # -- indexes ------------------------------------------------------------
    def create_index(self, field: str) -> None:
        """Ensure a hash index over one field (a no-op when it exists).

        Values must be hashable scalars; writes keep the index in step.
        """
        if field in self._indexes:
            return
        index: Dict[Any, set] = {}
        for doc_id, doc in self._docs.items():
            if field in doc:
                index.setdefault(doc[field], set()).add(doc_id)
        self._indexes[field] = index

    def has_index(self, field: str) -> bool:
        return field in self._indexes

    # -- reads -------------------------------------------------------------
    def get(self, doc_id: int) -> Dict[str, Any]:
        try:
            return self._docs[doc_id]
        except KeyError:
            raise DocStoreError("no document with _id=%r" % doc_id)

    def find(self, query: Optional[Dict[str, Any]] = None) -> List[Dict[str, Any]]:
        """Documents matching ``query`` in insertion order: a scan
        (empty query), equality per field, or ``{"$lte": n}``."""
        query = query or {}
        _check_query(query)
        docs: Iterable[Dict[str, Any]] = self._docs.values()
        for field, condition in query.items():
            index = self._indexes.get(field)
            if index is not None and not isinstance(condition, dict):
                # the first indexed equality narrows the scan
                docs = [self._docs[i] for i in sorted(index.get(condition, ()))]
                break
        return [d for d in docs if _matches(d, query)]

    def find_one(self, query: Optional[Dict[str, Any]] = None) -> Optional[Dict[str, Any]]:
        results = self.find(query)
        return results[0] if results else None

    # -- cloning -------------------------------------------------------------
    def clone(self) -> "Collection":
        """A structural copy sharing (immutable) document dicts.

        The basis of staged checkpoints: the clone starts with the same
        documents and indexes, but writes applied to either side never
        leak to the other.  Cost is O(docs + index entries) pointer
        copies -- no document content is duplicated.
        """
        twin = Collection(self.name)
        twin._docs = dict(self._docs)
        twin._next_id = self._next_id
        twin._indexes = {
            field: {key: set(bucket) for key, bucket in index.items()}
            for field, index in self._indexes.items()
        }
        twin.inserts = self.inserts
        twin.updates = self.updates
        twin.deletes = self.deletes
        # a clone continues the original's delta lineage: a staged
        # checkpoint committed over the live name still qualifies for a
        # doc-level delta against the same shipped baseline
        twin._dirty = set(self._dirty)
        twin._delta_token = self._delta_token
        return twin

    # -- doc-level deltas (DocumentStore-only: the fabric's mirror) ----------
    def unchanged_since(self, basis_token: Optional[int]) -> bool:
        """True when nothing was written since the snapshot that issued
        ``basis_token`` -- same baseline lineage, empty dirty set."""
        return (
            basis_token is not None
            and basis_token == self._delta_token
            and not self._dirty
        )

    def mark_delta_clean(self) -> int:
        """Start a fresh delta baseline (dirty set cleared); returns the
        new baseline token.  Fabric workers call this at startup for
        every collection the supervisor's seed snapshot already holds."""
        self._dirty.clear()
        self._delta_token = next(_DELTA_TOKENS)
        return self._delta_token

    def delta_snapshot(
        self, basis_token: Optional[int] = None
    ) -> Tuple[Dict[str, Any], int]:
        """One shippable change set since ``basis_token``, plus the new
        baseline token.

        When ``basis_token`` names this collection's current baseline
        (the caller's mirror was built from exactly it -- clones carry
        the token across staged commits), the envelope is *doc-level*:
        only dirty documents travel, as upserts (still present) and
        removes (gone).  Any mismatch -- a fresh collection, a
        ``from_json_obj`` rebuild -- falls back to shipping the
        collection whole.  Either way the dirty set resets and a
        new baseline begins.
        """
        if basis_token is not None and basis_token == self._delta_token:
            upsert_ids = sorted(i for i in self._dirty if i in self._docs)
            envelope: Dict[str, Any] = {
                "kind": "cdelta",
                "name": self.name,
                "next_id": self._next_id,
                "indexes": list(self._indexes),
                "upserts": [self._docs[i] for i in upsert_ids],
                "removes": sorted(i for i in self._dirty if i not in self._docs),
            }
        else:
            envelope = {"kind": "cfull", "name": self.name, "coll": self.to_json_obj()}
        return envelope, self.mark_delta_clean()

    def apply_delta(self, envelope: Dict[str, Any]) -> int:
        """Apply a ``"cdelta"`` envelope (mirror side); returns the
        number of documents touched.

        Upserts land in ascending id order and updates replace in
        place, so the mirror's document order matches the producer's
        insertion order exactly -- a restart snapshot built from the
        mirror replays scans in the same order the worker would.
        """
        if envelope.get("kind") != "cdelta" or envelope.get("name") != self.name:
            raise DocStoreError(
                "not a %r delta envelope: %r" % (self.name, envelope.get("kind"))
            )
        for field in envelope.get("indexes", []):
            self.create_index(field)
        for doc_id in envelope["removes"]:
            if doc_id in self._docs:
                self.delete(doc_id)
        for doc in envelope["upserts"]:
            if doc["_id"] in self._docs:
                self.updates += 1
            else:
                self.inserts += 1
            self._install(doc["_id"], dict(doc))
        self._next_id = int(envelope["next_id"])
        return len(envelope["upserts"]) + len(envelope["removes"])

    # -- persistence --------------------------------------------------------
    def to_json_obj(self) -> Dict[str, Any]:
        """The collection as one JSON-serializable object; callers must
        treat the (shared) document dicts as frozen."""
        return {
            "name": self.name,
            "next_id": self._next_id,
            "docs": list(self._docs.values()),
            "indexes": list(self._indexes),
        }

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "Collection":
        coll = cls(obj["name"])
        coll._next_id = obj["next_id"]
        for doc in obj["docs"]:
            coll._docs[doc["_id"]] = dict(doc)
        for field in obj.get("indexes", []):
            coll.create_index(field)
        return coll


class DocumentStore:
    """A set of named collections, persistable as one JSON file.

    Beyond plain collections, the store offers a *staged commit*
    primitive for atomic multi-collection checkpoints: :meth:`stage`
    clones a collection into a private staging area, writers mutate the
    clones freely, and :meth:`commit_staged` swaps every staged clone
    over its live name in one indivisible step.  A crash anywhere
    before the commit leaves the live collections untouched; staging
    leftovers are garbage, discarded by :meth:`discard_staged`.
    """

    def __init__(self):
        self._collections: Dict[str, Collection] = {}
        self._staged: Dict[str, Collection] = {}

    def collection(self, name: str) -> Collection:
        """Get or create a collection."""
        if name not in self._collections:
            self._collections[name] = Collection(name)
        return self._collections[name]

    def drop(self, name: str) -> None:
        self._collections.pop(name, None)

    def collection_names(self) -> List[str]:
        return sorted(self._collections)

    # -- mirror / migration (DocumentStore-only) -----------------------------
    def copy_collection_to(self, name: str, target: "DocumentStore") -> bool:
        """Install a clone of collection ``name`` into ``target``.

        The target's previous collection under that name (if any) is
        replaced wholesale; document ids, hash indexes, and the id
        cursor all carry over, so readers of the copy see exactly the
        documents the source held at copy time.  Later writes on either
        side never leak to the other (:meth:`Collection.clone`).
        Returns False when the source has no such collection (the
        target is left untouched).

        This is the store-to-store primitive under live stream
        migration (``repro.fabric``): a stream's journal, ingest state,
        and index collections are copied between shard stores with it.
        """
        source = self._collections.get(name)
        if source is None:
            return False
        target._collections[name] = source.clone()
        return True

    def replace_collection(self, name: str, collection: Collection) -> None:
        """Install ``collection`` wholesale under ``name``.

        The previous collection (if any) is discarded.  This is the
        apply-side of the fabric's store mirroring: a worker process
        ships whole changed collections back to its supervisor, which
        installs them here so the parent's mirror tracks the worker's
        durable state.
        """
        self._collections[name] = collection

    # -- staged commits ------------------------------------------------------
    def stage(self, name: str) -> Collection:
        """A staged clone of collection ``name`` (created on first call).

        Repeated calls return the same staged collection, so a writer
        can accumulate changes across several operations before one
        atomic :meth:`commit_staged`.
        """
        if name not in self._staged:
            if name in self._collections:
                self._staged[name] = self._collections[name].clone()
            else:
                self._staged[name] = Collection(name)
        return self._staged[name]

    def staged_names(self) -> List[str]:
        return sorted(self._staged)

    def commit_staged(self, names: Optional[Iterable[str]] = None) -> List[str]:
        """Atomically swap staged collections over their live names.

        The swap is indivisible: either every named staged collection
        replaces its live counterpart, or (if a name was never staged)
        nothing happens and ``DocStoreError`` is raised.  Fault
        injection (:class:`~repro.storage.faults.FaultyStore`) counts a
        commit as a single write -- a simulated crash lands either
        before the swap (staging discarded, live state intact) or after
        it (checkpoint fully visible), never in between, mirroring an
        atomic rename on a real filesystem.
        """
        wanted = self.staged_names() if names is None else list(names)
        missing = [n for n in wanted if n not in self._staged]
        if missing:
            raise DocStoreError(
                "cannot commit unstaged collection(s): %s" % ", ".join(sorted(missing))
            )
        for name in wanted:
            self._collections[name] = self._staged.pop(name)
        return wanted

    def discard_staged(self, names: Optional[Iterable[str]] = None) -> List[str]:
        """Drop staged clones without committing (crash-recovery cleanup)."""
        wanted = self.staged_names() if names is None else list(names)
        dropped = [n for n in wanted if self._staged.pop(n, None) is not None]
        return dropped

    # -- persistence (DocumentStore-only) ------------------------------------
    def to_json_obj(self) -> Dict[str, Any]:
        """The store's whole committed state as one JSON-serializable
        object (staged clones excluded -- staging is private to an
        in-flight checkpoint and never part of a snapshot)."""
        return {
            "collections": [c.to_json_obj() for c in self._collections.values()]
        }

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "DocumentStore":
        store = cls()
        for cobj in obj.get("collections", []):
            store._collections[cobj["name"]] = Collection.from_json_obj(cobj)
        return store

    def __reduce__(self):
        # pickles as its JSON form: a copy starts a fresh delta lineage
        return (type(self).from_json_obj, (self.to_json_obj(),))

    def save(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.to_json_obj(), f)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "DocumentStore":
        with open(path) as f:
            payload = json.load(f)
        return cls.from_json_obj(payload)
