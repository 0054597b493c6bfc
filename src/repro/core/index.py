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

from dataclasses import dataclass
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
    needs the read members -- GT verification only ``centroid_class``;
    live ingest adds the one update verb, ``refresh``.  Both :class:`TopKIndex` and :class:`LazyTopKIndex`
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

    def centroid_class(self, cluster_id: int) -> int: ...

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


class _ClusterStore:
    """What both index variants know about a cluster: the paper's
    ``cluster ID -> [centroid object, <objects>, <frame IDs>]`` map.

    Per cluster id it holds the seed (centroid) row, the centroid's true
    class, the first and last time and the member rows; all but the seed
    rows (the snapshot's own array) are Python lists, which the query
    path indexes directly.  Frame ids are derived from the
    table's ``frame_idx`` on first read and cached; growing a cluster
    drops its cached frames.  :meth:`_absorb` is the one update.  A
    variant adds how a class token finds its clusters.
    """

    def __init__(self, stream: str, model_name: str, k: int):
        self.stream = stream
        self.model_name = model_name
        self.k = k
        #: the snapshot absorbed so far and the table it indexes (none on
        #: an index loaded from a store, whose frames are loaded with it)
        self._snapshot = NO_ROWS
        self._table: Optional[ObservationTable] = None
        self._seed_rows = NO_ROWS.seed_rows
        self._seed_classes: List[int] = []
        self._first: List[float] = []  # time of the first member
        self._last: List[float] = []
        self._members: List[np.ndarray] = []
        self._frame_cache: Dict[int, np.ndarray] = {}

    def _absorb(
        self, table: ObservationTable, clusters: ClusterSummary
    ) -> Tuple[List[int], List[int]]:
        """Absorb the rows of ``table`` / ``clusters`` past the snapshot
        last absorbed; ``clusters`` must extend it -- no fewer rows or
        clusters, the same seed rows for existing ones.  Returns
        ``(new_cluster_ids, grown_cluster_ids)``.

        One sort groups the new rows, and both their time spans
        (``grouped_min_max``) and their member lists are cut from it: a
        first absorb takes the snapshot's cached grouping, a later one
        groups the new rows with one ``group_slices``.  Besides the new
        rows, the work spans every id between the lowest and highest one
        they touch, one comparison of every cluster's size finds the
        grown ones, and a grown cluster's member array is re-concatenated
        whole."""
        old = self._snapshot
        # n counts the clusters held, so an index loaded from a store
        # (which absorbed no snapshot) refuses every snapshot
        base, n = old.num_observations, self.num_clusters
        if (clusters.num_observations < base or clusters.num_clusters < n
                or not np.array_equal(clusters.seed_rows[:n], old.seed_rows)):
            raise ValueError("refresh() requires a snapshot extending the current "
                             "one (same seed rows for existing clusters)")
        self._snapshot, self._table = clusters, table
        delta = clusters.assignments[base:]
        if not len(delta):
            return [], []
        grown = np.flatnonzero(clusters.sizes[:n] != old.sizes).tolist()
        new = list(range(n, clusters.num_clusters))
        lo = int(delta.min())
        local = delta - lo
        span = int(delta.max()) + 1 - lo
        # at base 0 the new rows are every row, and local ids are the ids
        order, starts = group_slices(local, span) if base else clusters.grouping()
        first, last = grouped_min_max(order, starts, table.time_s[base:])
        if base:
            # owned arrays: a view would pin the whole chunk's ordering
            groups = [order[starts[c - lo] : starts[c - lo + 1]] + base for c in grown + new]
            for cid, rows in zip(grown, groups):
                self._first[cid] = min(self._first[cid], float(first[cid - lo]))
                self._last[cid] = max(self._last[cid], float(last[cid - lo]))
                self._members[cid] = np.concatenate([self._members[cid], rows])
                self._frame_cache.pop(cid, None)
            self._members += groups[len(grown):]
        else:
            self._members += clusters.members_by_cluster()  # cached, shared
        self._seed_rows = clusters.seed_rows
        self._seed_classes += table.class_id[clusters.seed_rows[n:]].tolist()
        # the new ids are the highest the rows touch: the spans' tail
        self._first += first[n - lo:].tolist()
        self._last += last[n - lo:].tolist()
        return new, grown

    # -- reads ------------------------------------------------------------
    @property
    def num_clusters(self) -> int:
        return len(self._seed_rows)

    def cluster(self, cluster_id: int) -> ClusterEntry:
        return ClusterEntry(
            cluster_id=cluster_id,
            centroid_row=int(self._seed_rows[cluster_id]),
            centroid_class=self._seed_classes[cluster_id],
            top_k=self._ranked(cluster_id),
            size=len(self._members[cluster_id]),
            first_time_s=self._first[cluster_id],
            last_time_s=self._last[cluster_id],
        )

    def _ranked(self, cluster_id: int) -> Tuple[int, ...]:
        """The centroid's ranked top-K tokens, where a variant keeps them."""
        return ()

    def centroid_class(self, cluster_id: int) -> int:
        return self._seed_classes[cluster_id]

    def members(self, cluster_id: int) -> np.ndarray:
        return self._members[cluster_id]

    def frames(self, cluster_id: int) -> np.ndarray:
        frames = self._frame_cache.get(cluster_id)
        if frames is None:
            frames = self._table.frame_idx[self._members[cluster_id]]
            self._frame_cache[cluster_id] = frames
        return frames

    def _limit(self, kx: int) -> int:
        """``kx``, a lookup's dynamic query-time K (Section 5), checked
        to lie in 1..K."""
        if kx < 1:
            raise ValueError("kx must be >= 1")
        if kx > self.k:
            raise ValueError("kx=%d exceeds the index width K=%d" % (kx, self.k))
        return kx

    def _overlapping(self, ids: List[int], time_range: Tuple[float, float]) -> List[int]:
        """``ids`` without the clusters that do not overlap
        ``time_range``'s [start, end) seconds."""
        start, end = time_range
        first, last = self._first, self._last
        return [c for c in ids if last[c] >= start and first[c] < end]


class TopKIndex(_ClusterStore):
    """Class-token -> clusters mapping with per-entry rank positions."""

    def __init__(self, stream: str, model_name: str, k: int):
        super().__init__(stream, model_name, k)
        self._by_class: Dict[int, List[Tuple[int, int]]] = {}  # token -> [(cluster, pos)]
        self._top_k: List[Tuple[int, ...]] = []
        #: the model that draws new centroids' top-K (none on an index
        #: loaded from a store)
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
        last absorbed (:meth:`_ClusterStore._absorb`, whose contract and
        return this shares), then link each new cluster, in id order,
        from the ingest CNN's ranked top-K classes of its centroid,
        drawn in one batch.  A grown cluster keeps its centroid and
        tokens."""
        base, n = self._snapshot.num_observations, self.num_clusters
        new_ids, grown_ids = self._absorb(table, clusters)
        if new_ids:
            seeds = clusters.seed_rows[n:]
            obs_seeds = table.slice(base, len(table)).observation_seeds()
            for top_k in self._model.topk_lists(
                obs_seeds[seeds - base], table.class_id[seeds],
                table.difficulty[seeds], self.k,
            ):
                self._link(tuple(top_k))
        return new_ids, grown_ids

    def _link(self, top_k: Tuple[int, ...]) -> None:
        """Index the next cluster id under its ranked top-K tokens."""
        cluster_id = len(self._top_k)
        self._top_k.append(top_k)
        for pos, token in enumerate(top_k, start=1):
            self._by_class.setdefault(int(token), []).append((cluster_id, pos))

    # -- reads ------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        return sum(len(v) for v in self._by_class.values())

    def classes(self) -> List[int]:
        return sorted(self._by_class)

    def _ranked(self, cluster_id: int) -> Tuple[int, ...]:
        return self._top_k[cluster_id]

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
        limit = self.k if kx is None else self._limit(kx)
        # a loop, not a comprehension: most tokens hit one or two clusters,
        # and a comprehension's frame would cost more than its work
        out = []
        for cluster_id, pos in self._by_class.get(int(class_token), ()):
            if pos <= limit:
                out.append(cluster_id)
        return out if time_range is None else self._overlapping(out, time_range)

    def entries(self) -> Iterable[ClusterEntry]:
        return [self.cluster(cid) for cid in range(self.num_clusters)]

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
        for cid in range(self.num_clusters):
            clusters.insert_one(
                _cluster_doc(self.cluster(cid), self._members[cid], self.frames(cid))
            )
        clusters.create_index("cluster_id")

    @classmethod
    def from_docstore(cls, store: DocumentStore, stream: str) -> "TopKIndex":
        """Load a stream's exported index (:meth:`to_docstore`), whose
        cluster ids must be exactly 0..n-1.  The loaded index answers
        reads only: it holds no snapshot to extend."""
        meta = store.collection("index-meta").find_one({"stream": stream})
        if meta is None:
            raise KeyError("no index for stream %r in store" % stream)
        docs = sorted(
            store.collection("clusters:%s" % stream).find(),
            key=lambda d: d["cluster_id"],
        )
        if [doc["cluster_id"] for doc in docs] != list(range(len(docs))):
            raise ValueError(
                "stream %r: exported cluster ids are not 0..n-1, each once" % stream
            )
        index = cls(stream=stream, model_name=meta["model"], k=meta["k"])
        seed_rows = []
        for cid, doc in enumerate(docs):
            seed_rows.append(doc["centroid_row"])
            index._seed_classes.append(doc["centroid_class"])
            index._first.append(doc["first_time_s"])
            index._last.append(doc["last_time_s"])
            index._members.append(np.asarray(doc["members"], dtype=np.int64))
            index._frame_cache[cid] = np.asarray(doc["frames"], dtype=np.int64)
            index._link(tuple(doc["top_k"]))
        index._seed_rows = np.asarray(seed_rows, dtype=np.int64)
        return index


class LazyTopKIndex(_ClusterStore):
    """Top-K index evaluated lazily per query token.

    Materializing explicit top-K lists costs O(clusters * K) at ingest;
    with K up to 200 and ablation configurations where every observation
    is its own cluster, that dominates runtime while queries only ever
    touch a handful of tokens.  This variant keeps the centroid
    observations and answers ``lookup`` by running the ingest model's
    (deterministic) top-K membership over all centroids at once --
    bitwise-identical across repeated calls, cached per (token, kx).

    Exposes the same read interface as :class:`TopKIndex`.
    """

    def __init__(self, table, model, k: int, clusters: ClusterSummary):
        super().__init__(table.stream, model.name, k)
        self._model = model
        self._lookup_cache: Dict[Tuple[int, int], np.ndarray] = {}
        self._centroid_table = table.select(NO_ROWS.seed_rows)  # no clusters yet
        self.refresh(table, clusters)

    def refresh(
        self, table, clusters: ClusterSummary
    ) -> Tuple[List[int], List[int]]:
        """Absorb a grown table/clustering snapshot (live ingest):
        :meth:`_ClusterStore._absorb`, whose contract and return this
        shares.

        The per-token lookup cache is invalidated only when *new
        centroids* appeared -- growing an existing cluster cannot change
        any token's centroid hit list, so pure-growth refreshes keep
        every cached lookup.
        """
        new_ids, grown_ids = self._absorb(table, clusters)
        if new_ids:
            # a new centroid may belong to any token's top-K hit list
            self._lookup_cache.clear()
            self._centroid_table = table.select(clusters.seed_rows)
        return new_ids, grown_ids

    def lookup(
        self,
        class_token: int,
        kx: Optional[int] = None,
        time_range: Optional[Tuple[float, float]] = None,
    ) -> List[int]:
        """Cluster ids whose centroid top-K contains ``class_token``."""
        limit = self.k if kx is None else self._limit(kx)
        cache_key = (int(class_token), limit)
        hits = self._lookup_cache.get(cache_key)
        if hits is None:
            member = self._model.topk_membership(self._centroid_table, class_token, limit)
            # the clusterer opens ids in row order, so the centroid
            # table's i-th row is cluster i's seed
            hits = np.flatnonzero(member)
            self._lookup_cache[cache_key] = hits
        out = hits.tolist()
        return out if time_range is None else self._overlapping(out, time_range)

    def materialize(self) -> "TopKIndex":
        """Write out an explicit :class:`TopKIndex` (e.g. for export)."""
        return TopKIndex.build(self._table, self._model, self.k, self._snapshot)

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
