"""The top-K ingest index (Figure 4, IT3-IT4).

Layout per the paper (Section 3):

    object class -> <cluster ID>
    cluster ID   -> [centroid object, <objects> in cluster,
                     <frame IDs> of objects]

Each cluster is indexed under the top-K classes of its centroid (seed)
observation, *with rank positions*, so a query can dynamically restrict
itself to a smaller Kx <= K at query time (Section 5).  The index can be
persisted to the embedded document store, standing in for the paper's
MongoDB deployment.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Set, Tuple, runtime_checkable

import numpy as np

from repro.cnn.model import ClassifierModel
from repro.core.clustering import ClusterSummary, grouped_min_max
from repro.storage.docstore import DocumentStore, IndexSink
from repro.video.synthesis import ObservationTable


@dataclass(frozen=True)
class ClusterEntry:
    """One cluster's record in the index."""

    cluster_id: int
    centroid_row: int
    centroid_class: int       # true class of the centroid (what GT-CNN returns)
    top_k: Tuple[int, ...]    # ranked class tokens of the centroid
    size: int
    first_time_s: float
    last_time_s: float


@runtime_checkable
class IndexReader(Protocol):
    """The read interface every top-K index variant serves.

    Query-side code (``QueryEngine``, the serve planner/scheduler) only
    needs these members; both :class:`TopKIndex` and
    :class:`LazyTopKIndex` satisfy the protocol, as does any future
    variant, so ``IngestResult.index`` and friends are typed against
    this instead of a bare ``object``.
    """

    stream: str
    model_name: str
    k: int

    @property
    def num_clusters(self) -> int: ...

    def cluster(self, cluster_id: int) -> ClusterEntry: ...

    def members(self, cluster_id: int) -> np.ndarray: ...

    def frames(self, cluster_id: int) -> np.ndarray: ...

    def lookup(
        self,
        class_token: int,
        kx: Optional[int] = None,
        time_range: Optional[Tuple[float, float]] = None,
    ) -> List[int]: ...

    def to_docstore(self, store: IndexSink, incremental: bool = False) -> None: ...


def _cluster_doc(
    entry: ClusterEntry, member_rows: np.ndarray, frame_ids: np.ndarray
) -> Dict:
    """The document one cluster persists as (shared by full rewrites and
    incremental checkpoint deltas)."""
    return {
        "cluster_id": entry.cluster_id,
        "centroid_row": entry.centroid_row,
        "centroid_class": entry.centroid_class,
        "top_k": list(entry.top_k),
        "size": entry.size,
        "first_time_s": entry.first_time_s,
        "last_time_s": entry.last_time_s,
        # ndarray.tolist() converts to Python ints in C, instead of a
        # per-element Python round-trip -- checkpoints serialize every
        # member row of every dirty cluster
        "members": np.asarray(member_rows).tolist(),
        "frames": np.asarray(frame_ids).tolist(),
    }


def _entry_from_doc(doc: Dict) -> ClusterEntry:
    return ClusterEntry(
        cluster_id=doc["cluster_id"],
        centroid_row=doc["centroid_row"],
        centroid_class=doc["centroid_class"],
        top_k=tuple(doc["top_k"]),
        size=doc["size"],
        first_time_s=doc["first_time_s"],
        last_time_s=doc["last_time_s"],
    )


class _ClusterCheckpoints:
    """The checkpoint bookkeeping both index variants share: which
    clusters are unpersisted, which lineage the persisted snapshot
    belongs to, and the keyed writes that move one into the other."""

    stream: str
    model_name: str
    k: int

    def _start_lineage(self, dirty: Iterable[int] = ()) -> None:
        #: clusters added or extended since the last docstore write
        self._dirty: Set[int] = set(dirty)
        #: lineage token persisted with the meta doc; incremental
        #: checkpoints refuse to merge onto another lineage's snapshot
        self._epoch = uuid.uuid4().hex

    @property
    def dirty_clusters(self) -> Set[int]:
        """Cluster ids mutated since the last docstore write (read-only)."""
        return set(self._dirty)

    def adopt_lineage(self, epoch: str, clean: bool = True) -> None:
        """Adopt a persisted snapshot's lineage token (crash recovery).

        A recovered index rebuilt over a committed checkpoint must
        checkpoint *onto* that snapshot rather than replace it
        wholesale; adopting the stored epoch makes later incremental
        deltas merge cleanly.  ``clean=True`` additionally marks the
        current state as already persisted (it *is* the committed
        snapshot) so only post-recovery mutations are dirty.
        """
        self._epoch = epoch
        if clean:
            self._dirty.clear()

    def mark_dirty(self, cluster_ids: Iterable[int]) -> None:
        """Re-flag clusters as unpersisted.

        Incremental writes clear the dirty set as they stage documents;
        a durable checkpoint whose atomic commit then *fails* must put
        the flags back, or the next checkpoint would skip those
        clusters and commit stale documents.
        """
        self._dirty.update(int(c) for c in cluster_ids)

    def _write_meta(self, store: IndexSink) -> None:
        store.collection("index-meta").upsert(
            {"stream": self.stream},
            {
                "stream": self.stream,
                "model": self.model_name,
                "k": self.k,
                "epoch": self._epoch,
            },
        )

    def _write_delta(self, store: IndexSink, doc_of) -> None:
        """Write only the dirty clusters of the index (checkpoint):
        upsert ``doc_of(cid)`` for each; unchanged cluster documents
        are untouched.

        A delta is only sound on top of this index's own earlier
        checkpoints.  The meta document records the index's ``epoch``
        (a per-lineage token, carried across save/load), so a snapshot
        written by any other session -- even one with the same model/K
        and a compatible shape but a different clustering -- is
        detected and replaced wholesale (``to_docstore(store)``).  The
        same fallback covers a store that is missing clusters the delta
        would not write (e.g. a fresh store after the dirty cursor was
        already cleared by a checkpoint elsewhere), which would
        otherwise end up partial.
        """
        meta_doc = store.collection("index-meta").find_one({"stream": self.stream})
        clusters = store.collection("clusters:%s" % self.stream)
        stale = (
            (meta_doc is None and len(clusters) > 0)
            or (
                meta_doc is not None
                and (
                    meta_doc["model"] != self.model_name
                    or meta_doc["k"] != self.k
                    or meta_doc.get("epoch") != self._epoch
                )
            )
            or len(clusters) > self.num_clusters
        )
        if not stale:
            # the delta writes S_store ∪ dirty; that covers all clusters
            # only if every non-dirty id is already stored
            clusters.create_index("cluster_id")
            stored_dirty = sum(
                1 for cid in self._dirty if clusters.find_one({"cluster_id": cid})
            )
            stale = (
                len(clusters) - stored_dirty + len(self._dirty) < self.num_clusters
            )
        if stale:
            self.to_docstore(store)
            return
        if meta_doc is None:
            self._write_meta(store)
        for cid in sorted(self._dirty):
            clusters.upsert({"cluster_id": cid}, doc_of(cid))
        self._dirty.clear()


class TopKIndex(_ClusterCheckpoints):
    """Class-token -> clusters mapping with per-entry rank positions."""

    def __init__(self, stream: str, model_name: str, k: int):
        self.stream = stream
        self.model_name = model_name
        self.k = k
        self._clusters: Dict[int, ClusterEntry] = {}
        self._by_class: Dict[int, List[Tuple[int, int]]] = {}  # token -> [(cluster, pos)]
        self._members: Dict[int, np.ndarray] = {}
        self._frames: Dict[int, np.ndarray] = {}
        self._start_lineage()

    # -- construction -------------------------------------------------------
    @classmethod
    def build(
        cls,
        table: ObservationTable,
        model: ClassifierModel,
        k: int,
        clusters: ClusterSummary,
    ) -> "TopKIndex":
        """Materialize the index from a clustering pass.

        For each cluster, the ingest CNN's ranked top-K classes of the
        centroid observation are written out, and the cluster is linked
        from each of those class tokens.
        """
        index = cls(stream=table.stream, model_name=model.name, k=k)
        members = clusters.members_by_cluster()
        seeds = clusters.seed_rows
        obs_seeds = table.observation_seeds()
        # one batched rank/slot draw for every centroid: the per-cluster
        # scalar path used to dominate materialized-index construction
        top_ks = model.topk_lists(
            obs_seeds[seeds], table.class_id[seeds], table.difficulty[seeds], k
        )
        first, last = grouped_min_max(
            clusters.assignments, clusters.num_clusters, table.time_s
        )
        for cid in range(clusters.num_clusters):
            row = int(seeds[cid])
            member_rows = members[cid]
            entry = ClusterEntry(
                cluster_id=cid,
                centroid_row=row,
                centroid_class=int(table.class_id[row]),
                top_k=tuple(top_ks[cid]),
                size=int(len(member_rows)),
                first_time_s=float(first[cid]),
                last_time_s=float(last[cid]),
            )
            index.add_cluster(entry, member_rows, table.frame_idx[member_rows])
        return index

    def add_cluster(
        self, entry: ClusterEntry, member_rows: np.ndarray, frame_ids: np.ndarray
    ) -> None:
        if entry.cluster_id in self._clusters:
            raise ValueError(
                "cluster %d already indexed; use extend_cluster to append "
                "members to a live cluster" % entry.cluster_id
            )
        self._clusters[entry.cluster_id] = entry
        self._members[entry.cluster_id] = np.asarray(member_rows, dtype=np.int64)
        self._frames[entry.cluster_id] = np.asarray(frame_ids, dtype=np.int64)
        for pos, token in enumerate(entry.top_k, start=1):
            self._by_class.setdefault(int(token), []).append((entry.cluster_id, pos))
        self._dirty.add(entry.cluster_id)

    def extend_cluster(
        self,
        cluster_id: int,
        member_rows: np.ndarray,
        frame_ids: np.ndarray,
        time_s: Optional[np.ndarray] = None,
    ) -> ClusterEntry:
        """Append members to an already-indexed cluster (live ingest).

        The centroid -- and therefore the cluster's top-K entry tokens
        and any cached GT verdict for it -- is unchanged by growth; only
        the member/frame lists and the size/time summary move.  Returns
        the updated entry.
        """
        if cluster_id not in self._clusters:
            raise KeyError("cluster %d is not indexed" % cluster_id)
        member_rows = np.asarray(member_rows, dtype=np.int64)
        frame_ids = np.asarray(frame_ids, dtype=np.int64)
        if len(member_rows) != len(frame_ids):
            raise ValueError("member_rows and frame_ids must align")
        if not len(member_rows):
            return self._clusters[cluster_id]
        self._members[cluster_id] = np.concatenate(
            [self._members[cluster_id], member_rows]
        )
        self._frames[cluster_id] = np.concatenate(
            [self._frames[cluster_id], frame_ids]
        )
        entry = self._clusters[cluster_id]
        first, last = entry.first_time_s, entry.last_time_s
        if time_s is not None and len(time_s):
            first = min(first, float(np.min(time_s)))
            last = max(last, float(np.max(time_s)))
        entry = replace(
            entry,
            size=entry.size + len(member_rows),
            first_time_s=first,
            last_time_s=last,
        )
        self._clusters[cluster_id] = entry
        self._dirty.add(cluster_id)
        return entry

    # -- reads ------------------------------------------------------------
    @property
    def num_clusters(self) -> int:
        return len(self._clusters)

    @property
    def num_entries(self) -> int:
        return sum(len(v) for v in self._by_class.values())

    def classes(self) -> List[int]:
        return sorted(self._by_class)

    def cluster(self, cluster_id: int) -> ClusterEntry:
        return self._clusters[cluster_id]

    def members(self, cluster_id: int) -> np.ndarray:
        return self._members[cluster_id]

    def frames(self, cluster_id: int) -> np.ndarray:
        return self._frames[cluster_id]

    def lookup(
        self,
        class_token: int,
        kx: Optional[int] = None,
        time_range: Optional[Tuple[float, float]] = None,
    ) -> List[int]:
        """Cluster ids whose centroid top-K contains ``class_token``.

        Args:
            class_token: class id (or the OTHER sentinel for
                specialized models).
            kx: dynamic query-time K; only entries whose token sits at
                rank <= kx are returned (Section 5).  Defaults to the
                index's K.
            time_range: optionally restrict to clusters overlapping
                [start, end) seconds.
        """
        if kx is not None:
            if kx < 1:
                raise ValueError("kx must be >= 1")
            if kx > self.k:
                raise ValueError("kx=%d exceeds the index width K=%d" % (kx, self.k))
        limit = self.k if kx is None else kx
        hits = self._by_class.get(int(class_token), [])
        out = []
        for cluster_id, pos in hits:
            if pos > limit:
                continue
            if time_range is not None:
                entry = self._clusters[cluster_id]
                start, end = time_range
                if entry.last_time_s < start or entry.first_time_s >= end:
                    continue
            out.append(cluster_id)
        return out

    def entries(self) -> Iterable[ClusterEntry]:
        return self._clusters.values()

    # -- persistence --------------------------------------------------------
    def to_docstore(self, store: IndexSink, incremental: bool = False) -> None:
        """Persist the index into a document store (MongoDB stand-in).

        ``incremental=False`` replaces the stream's previous snapshot
        wholesale (upsert semantics); ``incremental=True`` is the live
        checkpoint path: only clusters added or extended since the last
        write are upserted, so unchanged cluster documents are never
        rewritten and a long-lived stream checkpoints in O(delta).
        """
        if incremental:
            self._write_delta(store, self._doc_of)
            return
        store.drop("clusters:%s" % self.stream)
        clusters = store.collection("clusters:%s" % self.stream)
        self._write_meta(store)
        for cid in self._clusters:
            clusters.insert_one(self._doc_of(cid))
        clusters.create_index("cluster_id")
        self._dirty.clear()

    def _doc_of(self, cid: int) -> Dict:
        return _cluster_doc(self._clusters[cid], self._members[cid], self._frames[cid])

    @classmethod
    def from_docstore(cls, store: DocumentStore, stream: str) -> "TopKIndex":
        """Load a stream's persisted index -- whether it was written by a
        full rewrite or grown through incremental checkpoints; documents
        of both paths share one schema (:func:`_cluster_doc`)."""
        meta = store.collection("index-meta").find_one({"stream": stream})
        if meta is None:
            raise KeyError("no index for stream %r in store" % stream)
        index = cls(stream=stream, model_name=meta["model"], k=meta["k"])
        if meta.get("epoch"):
            # adopt the stored lineage so this handle's later incremental
            # checkpoints merge cleanly onto the snapshot it came from
            index._epoch = meta["epoch"]
        for doc in sorted(
            store.collection("clusters:%s" % stream).find(),
            key=lambda d: d["cluster_id"],
        ):
            index.add_cluster(
                _entry_from_doc(doc),
                np.asarray(doc["members"], dtype=np.int64),
                np.asarray(doc["frames"], dtype=np.int64),
            )
        index._dirty.clear()  # freshly loaded state is already persisted
        return index


class LazyTopKIndex(_ClusterCheckpoints):
    """Top-K index evaluated lazily per query token.

    Materializing explicit top-K lists costs O(clusters * K) at ingest;
    with K up to 200 and ablation configurations where every observation
    is its own cluster, that dominates runtime while queries only ever
    touch a handful of tokens.  This variant stores the centroid
    observations and answers ``lookup`` by running the ingest model's
    (deterministic) top-K membership over all centroids at once --
    bitwise-identical across repeated calls, cached per (token, kx).

    Exposes the same read interface as :class:`TopKIndex`.
    """

    def __init__(self, table, model, k: int, clusters: ClusterSummary):
        self.stream = table.stream
        self.model_name = model.name
        self.k = k
        self._model = model
        self._lookup_cache: Dict[Tuple[int, int], np.ndarray] = {}
        self._start_lineage(dirty=range(clusters.num_clusters))
        self._rebuild(table, clusters)

    def _rebuild(self, table, clusters: ClusterSummary) -> None:
        """(Re)derive every per-cluster array from a clustering snapshot.

        Runs once per live-ingest refresh, so everything per-cluster is
        vectorized (``grouped_min_max``) or deferred (member frame
        lists materialize lazily per queried cluster)."""
        self._clusters = clusters
        self._table = table
        seed_mask = np.zeros(len(table), dtype=bool)
        seed_mask[clusters.seed_rows] = True
        self._centroid_table = table.select(seed_mask)
        # select() keeps row order, so the i-th centroid-table row holds
        # the i-th smallest seed row; argsort maps each centroid-table
        # position back to its cluster id
        self._centroid_cluster_ids = np.argsort(clusters.seed_rows, kind="stable")
        # ... and its inverse maps a cluster id to its centroid-table row
        self._pos_of_cid = np.argsort(self._centroid_cluster_ids, kind="stable")
        self._members = clusters.members_by_cluster()
        self._frames_cache: Dict[int, np.ndarray] = {}
        self._centroid_class = table.class_id[clusters.seed_rows]
        self._first_time, self._last_time = grouped_min_max(
            clusters.assignments, clusters.num_clusters, table.time_s
        )
        # computed on demand, once per rebuild: entry materialization is
        # per cluster and must not recompute the O(clusters) seed array
        self._centroid_obs_seeds: Optional[np.ndarray] = None

    def _centroid_seeds(self) -> np.ndarray:
        if self._centroid_obs_seeds is None:
            self._centroid_obs_seeds = self._centroid_table.observation_seeds()
        return self._centroid_obs_seeds

    def refresh(
        self, table, clusters: ClusterSummary
    ) -> Tuple[List[int], List[int]]:
        """Absorb a grown table/clustering snapshot (live ingest).

        ``clusters`` must extend the snapshot this index currently
        holds: existing cluster ids keep their seed rows, new ids are
        appended.  The per-token lookup cache is invalidated only when
        *new centroids* appeared -- growing an existing cluster cannot
        change any token's centroid hit list, so pure-growth refreshes
        keep every cached lookup.

        Returns ``(new_cluster_ids, grown_cluster_ids)``.
        """
        old = self._clusters
        old_n = old.num_clusters
        if clusters.num_clusters < old_n or not np.array_equal(
            clusters.seed_rows[:old_n], old.seed_rows
        ):
            raise ValueError(
                "refresh() requires a snapshot extending the current one "
                "(same seed rows for existing clusters)"
            )
        new_ids = [int(c) for c in range(old_n, clusters.num_clusters)]
        grown_ids = [
            int(c) for c in np.nonzero(clusters.sizes[:old_n] != old.sizes)[0]
        ]
        self._rebuild(table, clusters)
        if new_ids:
            # a new centroid may belong to any token's top-K hit list
            self._lookup_cache.clear()
        self._dirty.update(new_ids)
        self._dirty.update(grown_ids)
        return new_ids, grown_ids

    @property
    def num_clusters(self) -> int:
        return self._clusters.num_clusters

    def cluster(self, cluster_id: int) -> ClusterEntry:
        members = self._members[cluster_id]
        return ClusterEntry(
            cluster_id=cluster_id,
            centroid_row=int(self._clusters.seed_rows[cluster_id]),
            centroid_class=int(self._centroid_class[cluster_id]),
            top_k=(),
            size=int(len(members)),
            first_time_s=float(self._first_time[cluster_id]),
            last_time_s=float(self._last_time[cluster_id]),
        )

    def members(self, cluster_id: int) -> np.ndarray:
        return self._members[cluster_id]

    def frames(self, cluster_id: int) -> np.ndarray:
        frames = self._frames_cache.get(cluster_id)
        if frames is None:
            frames = self._table.frame_idx[self._members[cluster_id]]
            self._frames_cache[cluster_id] = frames
        return frames

    def lookup(
        self,
        class_token: int,
        kx: Optional[int] = None,
        time_range: Optional[Tuple[float, float]] = None,
    ) -> List[int]:
        """Cluster ids whose centroid top-K contains ``class_token``."""
        if kx is not None:
            if kx < 1:
                raise ValueError("kx must be >= 1")
            if kx > self.k:
                raise ValueError("kx=%d exceeds the index width K=%d" % (kx, self.k))
        limit = self.k if kx is None else kx
        cache_key = (int(class_token), limit)
        hits = self._lookup_cache.get(cache_key)
        if hits is None:
            member = self._model.topk_membership(self._centroid_table, class_token, limit)
            hits = self._centroid_cluster_ids[member]
            self._lookup_cache[cache_key] = hits
        out = []
        for cid in hits:
            if time_range is not None:
                start, end = time_range
                if self._last_time[cid] < start or self._first_time[cid] >= end:
                    continue
            out.append(int(cid))
        return out

    def _materialize_entries(self, cluster_ids) -> List[ClusterEntry]:
        """Explicit entries (top-K lists included) for many clusters.

        The rank/slot draws for all requested centroids run as one
        vectorized batch -- materialization and checkpoints call this
        instead of a per-cluster scalar path."""
        cluster_ids = np.asarray(cluster_ids, dtype=np.int64)
        if not len(cluster_ids):
            return []
        obs_seeds = self._centroid_seeds()
        pos = self._pos_of_cid[cluster_ids]
        top_ks = self._model.topk_lists(
            obs_seeds[pos],
            self._centroid_table.class_id[pos],
            self._centroid_table.difficulty[pos],
            self.k,
        )
        return [
            ClusterEntry(
                cluster_id=int(cid),
                centroid_row=int(self._clusters.seed_rows[cid]),
                centroid_class=int(self._centroid_class[cid]),
                top_k=tuple(top_ks[i]),
                size=int(len(self._members[cid])),
                first_time_s=float(self._first_time[cid]),
                last_time_s=float(self._last_time[cid]),
            )
            for i, cid in enumerate(cluster_ids)
        ]

    def materialize(self) -> "TopKIndex":
        """Write out an explicit :class:`TopKIndex` (e.g. for persistence)."""
        explicit = TopKIndex(stream=self.stream, model_name=self.model_name, k=self.k)
        explicit._epoch = self._epoch  # same lineage: one index, two views
        entries = self._materialize_entries(np.arange(self.num_clusters))
        for cid, entry in enumerate(entries):
            explicit.add_cluster(entry, self._members[cid], self.frames(cid))
        return explicit

    def to_docstore(self, store: IndexSink, incremental: bool = False) -> None:
        """Persist by materializing entries (full snapshot or dirty delta).

        The incremental path mirrors :meth:`TopKIndex.to_docstore`:
        only clusters added or grown since the last write are upserted.
        """
        if not incremental:
            self.materialize().to_docstore(store)
            self._dirty.clear()
            return
        entries = {
            entry.cluster_id: entry
            for entry in self._materialize_entries(sorted(self._dirty))
        }
        self._write_delta(
            store,
            lambda cid: _cluster_doc(
                entries[cid], self._members[cid], self.frames(cid)
            ),
        )


def stored_streams(store: DocumentStore) -> List[str]:
    """Streams with a persisted index in ``store``."""
    return sorted({doc["stream"] for doc in store.collection("index-meta").find()})


def stored_index_epoch(store: DocumentStore, stream: str) -> Optional[str]:
    """The lineage token of a stream's persisted index, if any."""
    meta = store.collection("index-meta").find_one({"stream": stream})
    return meta.get("epoch") if meta else None
