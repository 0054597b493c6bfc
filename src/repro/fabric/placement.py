"""Deterministic, versioned stream->shard placement.

A sharded Focus deployment must answer "which shard owns this camera?"
identically from every router, across restarts, with no coordination.
Placement here is therefore an *explicit, versioned mapping* persisted
as documents -- in the spirit of VBI's indirection between names and
physical placement -- rather than an accident of which process happened
to ingest the stream:

* **Rendezvous (highest-random-weight) hashing** assigns each stream to
  the shard with the highest deterministic score for that (shard,
  stream) pair.  Adding or removing a shard moves only the streams
  whose winning shard changed -- on add, exactly the streams the new
  shard wins; on remove, exactly the removed shard's streams -- the
  minimal-movement property the tests assert.
* **The placement table is data, not a hash convention.**  Live
  migration (``repro.fabric.migration``) moves a stream *against* the
  hash, recorded as a pinned assignment; every change bumps the
  version; the whole table persists as one document per version in a
  document store, so routers can reload the authoritative mapping and a
  stale writer is rejected instead of silently rolling placement back.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.storage.docstore import DocumentStore

#: the collection one placement document per version lands in
PLACEMENT_COLLECTION = "fabric-placement"

#: how many trailing versions :meth:`PlacementTable.save` retains; older
#: documents are compacted away so the audit window -- and the CAS scan
#: -- stay O(1) per save instead of growing with every stream ever placed
HISTORY_KEEP = 32


class PlacementError(ValueError):
    """Raised for invalid placement-table operations."""


class PlacementConflictError(PlacementError):
    """A placement save lost the version race.

    The store already holds this version (or a newer one): another
    router updated placement since this table was loaded.  Reload and
    reapply instead of overwriting the newer mapping.
    """


def rendezvous_score(shard_id: str, stream: str) -> int:
    """The deterministic weight of ``shard_id`` for ``stream``.

    SHA-1 over the pair, so scores agree across processes and Python
    runs (the built-in ``hash`` is salted per process and would scatter
    streams differently on every router).
    """
    digest = hashlib.sha1(
        ("%s|%s" % (shard_id, stream)).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def rendezvous_shard(stream: str, shards: Sequence[str]) -> str:
    """The shard that wins ``stream`` under rendezvous hashing."""
    if not shards:
        raise PlacementError("cannot place stream %r: no shards" % stream)
    # ties broken by shard id so the winner is total-ordered either way
    return max(shards, key=lambda sid: (rendezvous_score(sid, stream), sid))


@dataclass(frozen=True)
class PlacementTable:
    """One immutable version of the stream->shard mapping.

    ``assignments`` is authoritative for every placed stream; streams
    in ``pinned`` were placed explicitly (migration) and keep their
    shard across shard-set changes as long as it exists, while the rest
    follow rendezvous hashing.  Every mutation returns a *new* table
    with ``version + 1``.
    """

    version: int
    shards: Tuple[str, ...]
    assignments: Dict[str, str]
    pinned: FrozenSet[str]

    def __post_init__(self):
        if len(set(self.shards)) != len(self.shards):
            raise PlacementError("duplicate shard ids: %s" % (self.shards,))
        for stream, shard in self.assignments.items():
            if shard not in self.shards:
                raise PlacementError(
                    "stream %r assigned to unknown shard %r" % (stream, shard)
                )
        stray = self.pinned - set(self.assignments)
        if stray:
            raise PlacementError(
                "pinned streams without an assignment: %s" % sorted(stray)
            )

    # -- construction --------------------------------------------------------
    @classmethod
    def build(
        cls, shards: Sequence[str], streams: Iterable[str] = ()
    ) -> "PlacementTable":
        """Version-1 table placing ``streams`` by rendezvous hashing."""
        shards = tuple(shards)
        assignments = {
            stream: rendezvous_shard(stream, shards) for stream in streams
        }
        return cls(
            version=1,
            shards=shards,
            assignments=assignments,
            pinned=frozenset(),
        )

    # -- reads ---------------------------------------------------------------
    def streams(self) -> List[str]:
        return sorted(self.assignments)

    def shard_of(self, stream: str) -> str:
        try:
            return self.assignments[stream]
        except KeyError:
            raise KeyError("stream %r is not placed on any shard" % stream)

    def streams_on(self, shard_id: str) -> List[str]:
        return sorted(
            s for s, shard in self.assignments.items() if shard == shard_id
        )

    # -- versioned mutations -------------------------------------------------
    def _next(self, assignments: Dict[str, str], pinned: FrozenSet[str],
              shards: Optional[Tuple[str, ...]] = None) -> "PlacementTable":
        return PlacementTable(
            version=self.version + 1,
            shards=self.shards if shards is None else shards,
            assignments=assignments,
            pinned=pinned,
        )

    def with_streams(self, *streams: str) -> "PlacementTable":
        """Place new streams by rendezvous; already-placed ones keep
        their shard.  No-op calls return ``self`` unchanged (no version
        burn)."""
        fresh = [s for s in streams if s not in self.assignments]
        if not fresh:
            return self
        assignments = dict(self.assignments)
        for stream in fresh:
            assignments[stream] = rendezvous_shard(stream, self.shards)
        return self._next(assignments, self.pinned)

    def assign(
        self, stream: str, shard_id: str, pin: bool = True
    ) -> "PlacementTable":
        """Explicitly place a stream on ``shard_id``.

        ``pin=True`` (the default, and what :meth:`pin` delegates to)
        additionally exempts the stream from rendezvous: it stays on
        that shard across shard-set changes until the shard is removed.
        ``pin=False`` records the assignment without the exemption --
        used when an explicit move happens to land on the stream's
        rendezvous winner, which must stay rebalance-eligible.
        """
        if shard_id not in self.shards:
            raise PlacementError("cannot assign to unknown shard %r" % shard_id)
        assignments = dict(self.assignments)
        assignments[stream] = shard_id
        pinned = self.pinned | {stream} if pin else self.pinned - {stream}
        return self._next(assignments, pinned)

    def pin(self, stream: str, shard_id: str) -> "PlacementTable":
        """Explicitly move a stream to ``shard_id`` (migration record).

        The stream stops following rendezvous hashing: it stays on the
        pinned shard across shard-set changes until that shard is
        removed (then it falls back to rendezvous).
        """
        return self.assign(stream, shard_id, pin=True)

    def adopt_shards(self, shards: Sequence[str]) -> "PlacementTable":
        """Adopt a changed shard set *without* moving any placed stream.

        Every stream whose shard survives keeps it (its data lives
        there; only :func:`~repro.fabric.migration.migrate_stream`
        moves data, for either kind of shard) -- but *new* streams
        rendezvous over the adopted set, so an added shard starts
        receiving placements immediately.
        Streams orphaned by a removed shard are re-placed by rendezvous
        and lose their pin.  Contrast :meth:`with_shards`, which also
        re-places existing unpinned streams (a rebalance that must be
        paired with data migration).  No-op adoptions return ``self``.
        """
        shards = tuple(shards)
        if not shards:
            raise PlacementError("a placement needs at least one shard")
        if shards == self.shards:
            return self
        assignments: Dict[str, str] = {}
        pinned = set()
        for stream, shard in self.assignments.items():
            if shard in shards:
                assignments[stream] = shard
                if stream in self.pinned:
                    pinned.add(stream)
            else:
                assignments[stream] = rendezvous_shard(stream, shards)
        return self._next(assignments, frozenset(pinned), shards=shards)

    def with_shards(self, shards: Sequence[str]) -> "PlacementTable":
        """Re-place every stream over a changed shard set.

        Unpinned streams follow rendezvous hashing over the new set --
        minimal movement by construction.  Pinned streams keep their
        shard while it survives; a pinned stream whose shard was
        removed rejoins rendezvous (and loses its pin).
        """
        shards = tuple(shards)
        if not shards:
            raise PlacementError("a placement needs at least one shard")
        assignments: Dict[str, str] = {}
        pinned = set()
        for stream, shard in self.assignments.items():
            if stream in self.pinned and shard in shards:
                assignments[stream] = shard
                pinned.add(stream)
            else:
                assignments[stream] = rendezvous_shard(stream, shards)
        return self._next(assignments, frozenset(pinned), shards=shards)

    def moved_streams(self, other: "PlacementTable") -> Dict[str, Tuple[str, str]]:
        """Streams whose shard differs between two tables:
        ``{stream: (shard_here, shard_there)}`` (shared streams only)."""
        return {
            s: (self.assignments[s], other.assignments[s])
            for s in self.assignments
            if s in other.assignments and other.assignments[s] != self.assignments[s]
        }

    # -- persistence ---------------------------------------------------------
    def to_doc(self) -> Dict:
        return {
            "kind": "placement",
            "version": int(self.version),
            "shards": list(self.shards),
            "assignments": dict(self.assignments),
            "pinned": sorted(self.pinned),
        }

    @classmethod
    def from_doc(cls, doc: Dict) -> "PlacementTable":
        return cls(
            version=int(doc["version"]),
            shards=tuple(doc["shards"]),
            assignments=dict(doc["assignments"]),
            pinned=frozenset(doc["pinned"]),
        )

    def save(self, store: DocumentStore) -> None:
        """Append this version to the store's placement history.

        Version-CAS: if the store already holds this version or newer,
        another router won the race -- :class:`PlacementConflictError`
        is raised and nothing is written (mirror of the checkpoint
        epoch CAS; a stale table must never overwrite a newer one).

        History is compacted to the trailing :data:`HISTORY_KEEP`
        versions: each document carries the full assignments snapshot,
        so an unbounded history would make placement writes O(streams x
        versions) in both storage and CAS-scan cost.
        """
        coll = store.collection(PLACEMENT_COLLECTION)
        versions = [doc["version"] for doc in coll.find({"kind": "placement"})]
        if versions and max(versions) >= self.version:
            raise PlacementConflictError(
                "placement version %d is not newer than the store's %d; "
                "reload the table and reapply the change"
                % (self.version, max(versions))
            )
        coll.insert_one(self.to_doc())
        coll.delete_many(
            {"kind": "placement", "version": {"$lte": self.version - HISTORY_KEEP}}
        )

    @classmethod
    def load(cls, store: DocumentStore) -> Optional["PlacementTable"]:
        """The highest-version placement in ``store``, or None."""
        docs = store.collection(PLACEMENT_COLLECTION).find({"kind": "placement"})
        if not docs:
            return None
        return cls.from_doc(max(docs, key=lambda d: d["version"]))

    @classmethod
    def history(cls, store: DocumentStore) -> List["PlacementTable"]:
        """The retained versions, oldest first (the trailing
        :data:`HISTORY_KEEP`-deep placement audit log)."""
        docs = store.collection(PLACEMENT_COLLECTION).find({"kind": "placement"})
        return [cls.from_doc(d) for d in sorted(docs, key=lambda d: d["version"])]
