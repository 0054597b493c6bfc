"""Deterministic stream->shard placement.

A sharded Focus deployment must answer "which shard owns this camera?"
identically from every router, across restarts, with no coordination:

* **Rendezvous (highest-random-weight) hashing** places a *new* stream
  on the shard with the highest deterministic score for that (shard,
  stream) pair.  Adding or removing a shard changes the winner only for
  the streams the added shard wins or the removed shard held -- the
  minimal-movement property the tests assert.
* **The placement table is derived, not stored.**  Once a stream has
  data, it lives where its data lives: the router rebuilds the table
  from its shards (the streams each one serves at construction, the
  streams each one resumes on recovery, the target of each migration)
  instead of persisting a second copy beside them -- in the spirit of
  VBI's indirection between names and physical placement.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple


class PlacementError(ValueError):
    """Raised for invalid placement-table operations."""


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
    """An immutable stream->shard mapping over a fixed shard set.

    ``assignments`` is authoritative for every placed stream; every
    change returns a *new* table.
    """

    shards: Tuple[str, ...]
    assignments: Dict[str, str]

    def __post_init__(self):
        if len(set(self.shards)) != len(self.shards):
            raise PlacementError("duplicate shard ids: %s" % (self.shards,))
        for stream, shard in self.assignments.items():
            if shard not in self.shards:
                raise PlacementError(
                    "stream %r assigned to unknown shard %r" % (stream, shard)
                )

    @classmethod
    def build(
        cls, shards: Sequence[str], streams: Iterable[str] = ()
    ) -> "PlacementTable":
        """A table placing ``streams`` by rendezvous hashing."""
        shards = tuple(shards)
        return cls(
            shards=shards,
            assignments={s: rendezvous_shard(s, shards) for s in streams},
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

    # -- changes -------------------------------------------------------------
    def with_streams(self, *streams: str) -> "PlacementTable":
        """Place new streams by rendezvous; already-placed ones keep
        their shard.  A no-op returns ``self``."""
        fresh = [s for s in streams if s not in self.assignments]
        if not fresh:
            return self
        assignments = dict(self.assignments)
        for stream in fresh:
            assignments[stream] = rendezvous_shard(stream, self.shards)
        return PlacementTable(self.shards, assignments)

    def assign(self, stream: str, shard_id: str) -> "PlacementTable":
        """Place ``stream`` on ``shard_id``: where its data lives."""
        if shard_id not in self.shards:
            raise PlacementError("cannot assign to unknown shard %r" % shard_id)
        return PlacementTable(self.shards, {**self.assignments, stream: shard_id})
