"""The top-K ingest index (Figure 4, IT3-IT4).

Layout per the paper (Section 3):

    object class -> <cluster ID>
    cluster ID   -> [centroid object, <objects> in cluster,
                     <frame IDs> of objects]

Each cluster is indexed under the top-K classes of its centroid (seed)
observation, *with rank positions*, so a query can dynamically restrict
itself to a smaller Kx <= K at query time (Section 5).  The index is a
pure function of the rows, their cluster assignments and the clusterer's
seeds, so a durable checkpoint never stores it: recovery derives it.  It
can be exported to the embedded document store (``save_indexes``),
standing in for the paper's MongoDB deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.cnn.model import ClassifierModel
from repro.core.clustering import NO_ROWS, ClusterSummary, group_slices, grouped_min_max
from repro.storage.docstore import CheckpointStore, DocumentStore
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
    """The interface every top-K index variant serves.

    Query-side code (``QueryEngine``, the serve planner/scheduler) only
    needs the read members; live ingest adds the one update verb,
    ``refresh``.  Both :class:`TopKIndex` and :class:`LazyTopKIndex`
    satisfy the protocol, as does any future variant, so
    ``IngestResult.index`` and friends are typed against this instead
    of a bare ``object``.
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

    def to_docstore(self, store: CheckpointStore) -> None: ...

    def refresh(
        self, table: ObservationTable, clusters: ClusterSummary
    ) -> Tuple[List[int], List[int]]: ...


def _refresh_delta(
    old: ClusterSummary, new: ClusterSummary
) -> Tuple[List[int], List[int]]:
    """What both ``refresh``es return: ``(new_cluster_ids,
    grown_cluster_ids)`` from ``old`` to ``new``, which must extend it --
    no fewer rows or clusters, the same seed rows for existing ones."""
    n = old.num_clusters
    if (new.num_observations < old.num_observations or new.num_clusters < n
            or not np.array_equal(new.seed_rows[:n], old.seed_rows)):
        raise ValueError("refresh() requires a snapshot extending the current "
                         "one (same seed rows for existing clusters)")
    grown = np.flatnonzero(new.sizes[:n] != old.sizes).tolist()
    return list(range(n, new.num_clusters)), grown


def _cluster_doc(
    entry: ClusterEntry, member_rows: np.ndarray, frame_ids: np.ndarray
) -> Dict:
    """The document one cluster is exported as."""
    return {
        "cluster_id": entry.cluster_id,
        "centroid_row": entry.centroid_row,
        "centroid_class": entry.centroid_class,
        "top_k": list(entry.top_k),
        "size": entry.size,
        "first_time_s": entry.first_time_s,
        "last_time_s": entry.last_time_s,
        # ndarray.tolist() converts to Python ints in C, instead of a
        # per-element Python round-trip -- an export serializes every
        # member row of every cluster
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


class TopKIndex:
    """Class-token -> clusters mapping with per-entry rank positions."""

    def __init__(self, stream: str, model_name: str, k: int):
        self.stream = stream
        self.model_name = model_name
        self.k = k
        self._clusters: Dict[int, ClusterEntry] = {}
        self._by_class: Dict[int, List[Tuple[int, int]]] = {}  # token -> [(cluster, pos)]
        self._members: Dict[int, np.ndarray] = {}
        self._frames: Dict[int, np.ndarray] = {}
        #: the snapshot absorbed so far, and the model that draws new
        #: centroids' top-K (none on an index loaded from a store)
        self._snapshot = NO_ROWS
        self._model: Optional[ClassifierModel] = None

    # -- construction -------------------------------------------------------
    @classmethod
    def build(
        cls,
        table: ObservationTable,
        model: ClassifierModel,
        k: int,
        clusters: ClusterSummary,
    ) -> "TopKIndex":
        """Materialize the index from a clustering pass: an empty index,
        refreshed once (:meth:`refresh`)."""
        index = cls(stream=table.stream, model_name=model.name, k=k)
        index._model = model
        index.refresh(table, clusters)
        return index

    def refresh(
        self, table: ObservationTable, clusters: ClusterSummary
    ) -> Tuple[List[int], List[int]]:
        """Absorb the rows of ``table`` / ``clusters`` past the snapshot
        last absorbed (contract and return as :meth:`LazyTopKIndex.refresh`).

        Each new cluster is linked, in id order, from the ingest CNN's
        ranked top-K classes of its centroid, drawn in one batch.  A
        grown cluster keeps its centroid and tokens; its member and
        frame lists are re-concatenated whole and its size and time
        span widened.  Besides the new rows, the work spans every id
        between the lowest and highest one they touch, and one
        comparison of every cluster's size finds the grown ones."""
        old = self._snapshot
        new_ids, grown_ids = _refresh_delta(old, clusters)
        base, old_n = old.num_observations, old.num_clusters
        delta = clusters.assignments[base:]
        self._snapshot = clusters
        if not len(delta):
            return [], []
        lo = int(delta.min())
        local = delta - lo
        span = int(delta.max()) + 1 - lo
        first, last = grouped_min_max(local, span, table.time_s[base:])
        touched = grown_ids + new_ids
        if base:
            # owned arrays: a view would pin the whole chunk's ordering
            order, starts = group_slices(local, span)
            groups = {c: order[starts[c - lo] : starts[c - lo + 1]] + base for c in touched}
        else:
            groups = clusters.members_by_cluster()  # cached, shared
        seeds, top_ks = clusters.seed_rows[old_n:], []
        if len(seeds):
            # one batched rank/slot draw for every centroid the rows opened
            obs_seeds = table.slice(base, len(table)).observation_seeds()
            top_ks = self._model.topk_lists(
                obs_seeds[seeds - base], table.class_id[seeds],
                table.difficulty[seeds], self.k,
            )
        for cid in touched:
            i = cid - lo
            member_rows = groups[cid]
            frame_ids = table.frame_idx[member_rows]
            if cid < old_n:
                entry = self._clusters[cid]
                self._members[cid] = np.concatenate([self._members[cid], member_rows])
                self._frames[cid] = np.concatenate([self._frames[cid], frame_ids])
                self._clusters[cid] = replace(
                    entry,
                    size=entry.size + len(member_rows),
                    first_time_s=min(entry.first_time_s, float(first[i])),
                    last_time_s=max(entry.last_time_s, float(last[i])),
                )
            else:
                row = int(clusters.seed_rows[cid])
                entry = ClusterEntry(
                    cluster_id=cid,
                    centroid_row=row,
                    centroid_class=int(table.class_id[row]),
                    top_k=tuple(top_ks[cid - old_n]),
                    size=len(member_rows),
                    first_time_s=float(first[i]),
                    last_time_s=float(last[i]),
                )
                self.add_cluster(entry, member_rows, frame_ids)
        return new_ids, grown_ids

    def add_cluster(
        self, entry: ClusterEntry, member_rows: np.ndarray, frame_ids: np.ndarray
    ) -> None:
        if entry.cluster_id in self._clusters:
            raise ValueError(
                "cluster %d already indexed; refresh() appends members to "
                "a live cluster" % entry.cluster_id
            )
        self._clusters[entry.cluster_id] = entry
        self._members[entry.cluster_id] = np.asarray(member_rows, dtype=np.int64)
        self._frames[entry.cluster_id] = np.asarray(frame_ids, dtype=np.int64)
        for pos, token in enumerate(entry.top_k, start=1):
            self._by_class.setdefault(int(token), []).append((entry.cluster_id, pos))

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
    def to_docstore(self, store: CheckpointStore) -> None:
        """Export the index into a document store (MongoDB stand-in),
        replacing the stream's previous export wholesale."""
        store.drop("clusters:%s" % self.stream)
        clusters = store.collection("clusters:%s" % self.stream)
        store.collection("index-meta").upsert(
            {"stream": self.stream},
            {"stream": self.stream, "model": self.model_name, "k": self.k},
        )
        for cid in self._clusters:
            clusters.insert_one(
                _cluster_doc(self._clusters[cid], self._members[cid], self._frames[cid])
            )
        clusters.create_index("cluster_id")

    @classmethod
    def from_docstore(cls, store: DocumentStore, stream: str) -> "TopKIndex":
        """Load a stream's exported index (:meth:`to_docstore`)."""
        meta = store.collection("index-meta").find_one({"stream": stream})
        if meta is None:
            raise KeyError("no index for stream %r in store" % stream)
        index = cls(stream=stream, model_name=meta["model"], k=meta["k"])
        for doc in sorted(
            store.collection("clusters:%s" % stream).find(),
            key=lambda d: d["cluster_id"],
        ):
            index.add_cluster(
                _entry_from_doc(doc),
                np.asarray(doc["members"], dtype=np.int64),
                np.asarray(doc["frames"], dtype=np.int64),
            )
        return index


class LazyTopKIndex:
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
        self._members = clusters.members_by_cluster()
        self._frames_cache: Dict[int, np.ndarray] = {}
        self._centroid_class = table.class_id[clusters.seed_rows]
        self._first_time, self._last_time = grouped_min_max(
            clusters.assignments, clusters.num_clusters, table.time_s
        )

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
        new_ids, grown_ids = _refresh_delta(self._clusters, clusters)
        self._rebuild(table, clusters)
        if new_ids:
            # a new centroid may belong to any token's top-K hit list
            self._lookup_cache.clear()
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

    def materialize(self) -> "TopKIndex":
        """Write out an explicit :class:`TopKIndex` (e.g. for export)."""
        return TopKIndex.build(self._table, self._model, self.k, self._clusters)

    def to_docstore(self, store: CheckpointStore) -> None:
        """Export by materializing entries (:meth:`TopKIndex.to_docstore`)."""
        self.materialize().to_docstore(store)


def index_builder(index_mode: str) -> Callable[..., IndexReader]:
    """How an ``index_mode`` derives a stream's index:
    ``builder(table, model, k, clusters)``, refreshed as the stream
    grows.  ``"lazy"`` gives a :class:`LazyTopKIndex`,
    ``"materialized"`` a :meth:`TopKIndex.build`."""
    if index_mode == "lazy":
        return LazyTopKIndex
    if index_mode == "materialized":
        return TopKIndex.build
    raise ValueError("index_mode must be 'lazy' or 'materialized'")


def stored_streams(store: DocumentStore) -> List[str]:
    """Streams with an exported index in ``store``."""
    return sorted({doc["stream"] for doc in store.collection("index-meta").find()})
