"""Single-pass incremental clustering of object feature vectors.

Section 4.2 of the paper: objects are clustered online at ingest time.
A new object joins the closest existing cluster if that cluster's
centroid is within L2 distance T; otherwise it seeds a new cluster.
The number of *live* clusters is capped at M by retiring the smallest
ones (their contents are already safely recorded in the index), giving
O(M n) total complexity.

Implementation notes beyond the paper's sketch:

* Clusters keep the *sum* of their dense (CNN-processed) member
  features plus a dense count; the centroid is their mean.  Objects
  suppressed by pixel differencing never ran the CNN, so they join
  their track's current cluster by count only -- they carry no feature
  evidence and leave the centroid untouched (in exact arithmetic the
  old running-mean update did the same).  Suppressed objects follow
  their track's cluster even after it was retired from the live set:
  pixel-diff matching is independent of the clusterer's working set.
* A cluster's *seed observation* -- the first object that opened it --
  is the object the GT-CNN classifies at query time ("centroid object"
  in the paper's index layout); :func:`summarize` derives seeds and
  sizes from the per-row assignments, the one record of history.
* A per-track shortcut first tests the cluster this object's track was
  last assigned to.  Objects of one track are nearly identical frame to
  frame (Section 2.2.3), so the test hits almost always and the scan
  over all live clusters is skipped; semantics are unchanged in the
  common case because the previous cluster is also the nearest one.
  ``strict=True`` disables the shortcut and always scans.

There is one execution kernel: a row-at-a-time loop (``_add_rows``)
with the suppressed join, the shortcut test and the dense join inlined
on hoisted locals.  ``strict=True`` runs the same loop without the
shortcut -- the always-scan oracle the tests compare the fast path
against.  Before adding a second kernel, read "Why there
is no vectorized kernel" in ``docs/PERFORMANCE.md``: a speculative one
was selected on 0 of 438 benchmark chunks and ran at 0.75-0.96x this
loop on every shipped stream profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cnn.features import FeatureExtractor
from repro.cnn.model import ClassifierModel
from repro.storage.packing import pack_array, unpack_array
from repro.video.synthesis import ObservationTable


def group_slices(assignments: np.ndarray, num_clusters: int):
    """One argsort for all per-cluster row groupings.

    Returns ``(order, starts)`` such that cluster ``c``'s rows, in
    stream order, are ``order[starts[c]:starts[c + 1]]``.  Callers that
    need groupwise aggregates (sizes, first/last times) can reduce over
    ``starts`` without per-cluster Python loops.
    """
    order = np.argsort(assignments, kind="stable")
    if len(assignments):
        counts = np.bincount(assignments, minlength=num_clusters)
    else:
        counts = np.zeros(num_clusters, dtype=np.int64)
    starts = np.zeros(num_clusters + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return order, starts


def group_rows_by_cluster(
    assignments: np.ndarray, num_clusters: int
) -> List[np.ndarray]:
    """Row indexes grouped by cluster id (list index = cluster id).

    Ids without rows in ``assignments`` get an empty group of their
    own; rows within a group keep their original (stream) order.
    """
    order, starts = group_slices(assignments, num_clusters)
    return [order[starts[c]:starts[c + 1]] for c in range(num_clusters)]


def grouped_min_max(
    assignments: np.ndarray, num_clusters: int, values: np.ndarray
):
    """Per-cluster ``(min, max)`` of ``values`` in two reduceat passes.

    Replaces the per-cluster Python loops the index layers used for
    first/last timestamps -- an O(clusters) interpreter cost paid per
    lazy-index refresh.  Empty clusters get ``(0.0, 0.0)``.
    """
    order, starts = group_slices(assignments, num_clusters)
    first = np.zeros(num_clusters, dtype=np.float64)
    last = np.zeros(num_clusters, dtype=np.float64)
    if not len(order):
        return first, last
    sorted_vals = np.asarray(values)[order]
    seg = starts[:-1]
    nonempty = starts[1:] > seg
    if not nonempty.any():
        return first, last
    # reduceat over nonempty segment starts only: empty groups share
    # their neighbour's start index and would corrupt the segmentation
    ne_starts = seg[nonempty]
    first[nonempty] = np.minimum.reduceat(sorted_vals, ne_starts)
    last[nonempty] = np.maximum.reduceat(sorted_vals, ne_starts)
    return first, last


@dataclass(frozen=True)
class ClusterSummary:
    """Immutable result of a clustering pass.

    Attributes:
        assignments: cluster id per observation row.
        seed_rows: per cluster, the row index of its seed observation.
        sizes: per cluster, its member count.
    """

    assignments: np.ndarray
    seed_rows: np.ndarray
    sizes: np.ndarray

    @property
    def num_clusters(self) -> int:
        return len(self.seed_rows)

    @property
    def num_observations(self) -> int:
        return len(self.assignments)

    def members_by_cluster(self) -> List[np.ndarray]:
        """Row indexes per cluster id (index = cluster id).

        Cached after the first call: both index variants consume this
        grouping, and re-sorting the full assignment array per caller
        dominates index construction on large windows.  The returned
        arrays are shared -- treat them as read-only.
        """
        cached = self.__dict__.get("_members_cache")
        if cached is not None:
            return cached
        out = group_rows_by_cluster(self.assignments, self.num_clusters)
        # frozen dataclass: stash the cache outside the declared fields
        object.__setattr__(self, "_members_cache", out)
        return out


#: the summary of no rows: where a clusterer, and a materialized index, start
NO_ROWS = ClusterSummary(*(np.zeros(0, dtype=np.int64),) * 3)


def summarize(
    assignments: np.ndarray, num_clusters: int, previous: ClusterSummary = NO_ROWS
) -> ClusterSummary:
    """The summary of ``assignments`` (every row's cluster id so far,
    ``num_clusters`` in all), continuing from ``previous``, a prefix's
    summary, in O(new rows + clusters).  The rows past ``previous`` open
    the ids from its count on, each seeded by its first row, and a
    cluster's size is its number of rows; snapshots, their playback and
    recovery all derive seeds and sizes here."""
    base, old_n = previous.num_observations, previous.num_clusters
    new = assignments[base:]
    fresh = np.flatnonzero(new >= old_n)
    ids, first = np.unique(new[fresh], return_index=True)
    if not np.array_equal(ids, np.arange(old_n, num_clusters)):
        raise ValueError("a chunk's new cluster ids must be the next ones, each with a row")
    sizes = np.bincount(new, minlength=num_clusters).astype(np.int64)
    sizes[:old_n] += previous.sizes
    return ClusterSummary(
        assignments=assignments,
        seed_rows=np.concatenate([previous.seed_rows, base + fresh[first]]).astype(np.int64),
        sizes=sizes,
    )


def _grown(buf: np.ndarray, used: int, needed: int) -> np.ndarray:
    """``buf`` if it has room past ``needed`` int64 rows, else a copy of
    its first ``used`` with doubled capacity: appending a chunk copies
    only that chunk, and a full ``buf`` is never written to."""
    if needed < len(buf):
        return buf
    capacity = max(1024, len(buf))
    while capacity <= needed:
        capacity *= 2
    grown = np.empty(capacity, dtype=np.int64)
    grown[:used] = buf[:used]
    return grown


def feature_rows_needed(track_ids: np.ndarray, suppressed: np.ndarray,
                         known_tracks=()) -> np.ndarray:
    """Which rows' feature vectors :meth:`IncrementalClusterer.add` reads.

    Suppressed rows join their track's cluster without features; the
    only suppressed rows needing a vector are first occurrences of
    tracks not in ``known_tracks`` (a window truncated mid-track).
    Callers can skip feature extraction -- the dominant ingest CPU
    cost -- for every other suppressed row.  The mask depends on the
    tracks and the suppression alone, never on the threshold.
    """
    need = ~np.asarray(suppressed, dtype=bool)
    if need.all():
        return need
    uniq, first_idx, inverse = np.unique(
        track_ids, return_index=True, return_inverse=True
    )
    unknown = np.fromiter(
        (int(t) not in known_tracks for t in uniq), dtype=bool, count=len(uniq)
    )
    first_mask = np.zeros(len(need), dtype=bool)
    first_mask[first_idx] = True
    return need | (first_mask & unknown[inverse])


class IncrementalClusterer:
    """Online single-pass clusterer with a live-cluster cap."""

    #: read by bench/layers.py (core.clustering.batch_kernel_chunk_share)
    active_kernel = "scalar"

    def __init__(
        self,
        threshold: float,
        dim: int,
        max_live_clusters: int = 512,
        strict: bool = False,
    ):
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        if max_live_clusters < 1:
            raise ValueError("max_live_clusters must be >= 1")
        self.threshold = threshold
        self._t2 = float(threshold) * float(threshold)
        self.dim = dim
        self.max_live = max_live_clusters
        self.strict = strict

        capacity = max(64, max_live_clusters)
        self._sums = np.zeros((capacity, dim), dtype=np.float64)
        self._centroids = np.zeros((capacity, dim), dtype=np.float64)
        #: |centroid|^2 per slot, read by scans only: a join marks its
        #: slot in ``_stale`` and ``_refresh_norms`` catches up before a read
        self._cnorm2 = np.zeros(capacity, dtype=np.float64)
        self._stale: set = set()
        #: one view per slot, made when the slot is first used:
        #: ``rows[slot]`` is a list index where ``array[slot]`` builds a
        #: view per dense row
        self._sum_rows: List[np.ndarray] = []
        self._centroid_rows: List[np.ndarray] = []
        self._scan_buf = np.empty(capacity, dtype=np.float64)
        #: dim-sized scratch the row loop writes differences and squares
        #: into (out=), instead of allocating per dense row
        self._scratch = np.empty(dim, dtype=np.float64)
        # per-slot dense counts and cluster ids are Python ints: the row
        # loop reads them per hit, and a numpy scalar costs ~5x an int.
        # _counts stays an array so eviction is one argmin.
        self._dense = [0] * capacity
        self._counts = np.zeros(capacity, dtype=np.int64)
        self._live_ids = [-1] * capacity
        self._n_live = 0

        self._next_id = 0
        #: per-row cluster ids (:func:`_grown`), the one record of history
        self._assign_buf = np.zeros(0, dtype=np.int64)
        self._rows_seen = 0
        #: the last :meth:`snapshot`, which the next one continues from
        self._summary = NO_ROWS
        #: track -> cluster id of its last assignment.  Keyed by cluster
        #: id (not live slot), so entries survive retirement: suppressed
        #: objects keep following their track's cluster, and retiring a
        #: cluster is O(1) -- no scan over live tracks.
        self._track_cache: Dict[int, int] = {}
        self._slot_of_id: Dict[int, int] = {}
        self.full_scans = 0
        self.shortcut_hits = 0

    @property
    def num_clusters(self) -> int:
        return self._next_id

    # -- cluster-state primitives ------------------------------------------
    # The miss path of _add_rows.  The loop's inlined join, these and
    # from_state_dict compute sums, centroids and norms with the same
    # expressions in the same order: that is the basis of the
    # bit-identical-assignments guarantee.

    def _refresh_norms(self) -> None:
        """Recompute ``_cnorm2`` for the slots joined since the last call
        (few: the tracks in view between two scans)."""
        scratch = self._scratch
        for slot in self._stale:
            row = self._centroid_rows[slot]
            self._cnorm2[slot] = np.add.reduce(np.multiply(row, row, out=scratch))
        self._stale.clear()

    def _evict_smallest(self) -> None:
        """Retire the smallest live cluster (its id stays valid)."""
        # no slot may be stale when a row moves (none is today: the
        # scan that precedes every eviction has just refreshed them)
        self._refresh_norms()
        victim = int(self._counts[: self._n_live].argmin())
        victim_id = self._live_ids[victim]
        last = self._n_live - 1
        if victim != last:
            self._sums[victim] = self._sums[last]
            self._centroids[victim] = self._centroids[last]
            self._cnorm2[victim] = self._cnorm2[last]
            self._dense[victim] = self._dense[last]
            self._counts[victim] = self._counts[last]
            moved_id = self._live_ids[last]
            self._live_ids[victim] = moved_id
            self._slot_of_id[moved_id] = victim
        self._n_live = last
        del self._slot_of_id[victim_id]

    def _new_cluster(self, vector: np.ndarray, vv: float) -> int:
        """Open a cluster seeded by ``vector``; returns its id."""
        if self._n_live >= self.max_live:
            self._evict_smallest()
        slot = self._n_live
        if slot == len(self._sum_rows):
            self._sum_rows.append(self._sums[slot])
            self._centroid_rows.append(self._centroids[slot])
        self._sums[slot] = vector
        self._centroids[slot] = vector
        self._cnorm2[slot] = vv
        self._dense[slot] = 1
        self._counts[slot] = 1
        cid = self._next_id
        self._live_ids[slot] = cid
        self._slot_of_id[cid] = slot
        self._n_live += 1
        self._next_id += 1
        return cid

    def _scan(self, vector: np.ndarray, vv: float):
        """Distance-squared scan over all live centroids.

        ``d2[i] = |c_i|^2 - 2 c_i.v + |v|^2``, evaluated into a reused
        buffer: one BLAS matvec plus in-place arithmetic, no temporaries.
        """
        self._refresh_norms()
        n = self._n_live
        buf = self._scan_buf[:n]
        np.dot(self._centroids[:n], vector, out=buf)
        buf *= -2.0
        buf += self._cnorm2[:n]
        buf += vv
        best = int(buf.argmin())
        return best, float(buf[best])

    def feature_rows_needed(self, track_ids: np.ndarray,
                            suppressed: np.ndarray) -> np.ndarray:
        """:func:`feature_rows_needed` against the tracks seen so far."""
        return feature_rows_needed(track_ids, suppressed, self._track_cache)

    # -- ingest -------------------------------------------------------------
    def add(
        self,
        features: np.ndarray,
        track_ids: np.ndarray,
        *,
        suppressed: Optional[np.ndarray] = None,
        feature_valid: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Cluster a chunk of observations (in stream order).

        Args:
            features: [n, dim] feature rows.  Rows of suppressed
                observations are never read while their track has a
                cluster, so callers may leave them unset (see
                ``feature_valid``).
            track_ids: [n] track id per row (the shortcut key).
            suppressed: [n] bool; suppressed rows join their track's
                current cluster without a feature vector.
            feature_valid: [n] bool marking which ``features`` rows hold
                real data (:meth:`feature_rows_needed` says which must).
                ``None`` means all rows are valid.

        Returns:
            [n] cluster ids.

        Raises:
            ValueError: ``track_ids``, ``suppressed`` or ``feature_valid``
                is not [n] (raised before any row is applied), or the
                loop reached a row ``feature_valid`` marks unset.
        """
        features = np.asarray(features, dtype=np.float64)
        n = len(features)
        if len(track_ids) != n:
            raise ValueError("features and track_ids must align")
        if suppressed is not None:
            suppressed = np.asarray(suppressed, dtype=bool)
            if len(suppressed) != n:
                raise ValueError("features and suppressed must align")
        if feature_valid is not None:
            feature_valid = np.asarray(feature_valid, dtype=bool)
            if len(feature_valid) != n:
                raise ValueError("features and feature_valid must align")
        self._assign_buf = _grown(self._assign_buf, self._rows_seen, self._rows_seen + n)
        out = np.empty(n, dtype=np.int64)
        self._add_rows(features, track_ids, suppressed, feature_valid, out)
        self._assign_buf[self._rows_seen: self._rows_seen + n] = out
        self._rows_seen += n
        return out

    # -- the kernel ---------------------------------------------------------
    def _add_rows(self, features, track_ids, sup, valid, out) -> None:
        """The row loop.  A suppressed row follows its track by count
        only; a dense row tests its track's cluster (``strict`` skips
        the test), scans on a miss, then joins or opens a cluster.  A
        shortcut hit is five ufunc calls: subtract, multiply, add.reduce
        (the test), add, divide (the join)."""
        use_shortcut = not self.strict
        t2 = self._t2
        track_cache, slot_of_id = self._track_cache, self._slot_of_id
        centroids, sums, scratch = self._centroid_rows, self._sum_rows, self._scratch
        dense, counts, live_ids = self._dense, self._counts, self._live_ids
        stale = self._stale
        subtract, multiply, add, divide = np.subtract, np.multiply, np.add, np.divide
        reduce_sum = np.add.reduce
        # plain-list row flags: ndarray scalar access costs ~5x a list
        # index, and this loop runs per observation
        track_list = np.asarray(track_ids, dtype=np.int64).tolist()
        sup_list = sup.tolist() if sup is not None else None
        valid_list = valid.tolist() if valid is not None else None
        hits = 0
        for i in range(len(out)):
            track = track_list[i]
            cid = track_cache.get(track)
            if cid is not None and sup_list is not None and sup_list[i]:
                slot = slot_of_id.get(cid)
                if slot is not None:
                    counts[slot] += 1
                out[i] = cid
                continue
            if valid_list is not None and not valid_list[i]:
                raise ValueError(
                    "feature row %d is read but was not extracted "
                    "(see feature_rows_needed)" % i
                )
            vector = features[i]
            slot = None
            if use_shortcut and cid is not None:
                slot = slot_of_id.get(cid)
                if slot is not None:
                    subtract(centroids[slot], vector, scratch)
                    multiply(scratch, scratch, scratch)
                    if reduce_sum(scratch) <= t2:
                        hits += 1
                    else:
                        slot = None
            if slot is None:
                # |v|^2 is only needed by the scan and for a new cluster's
                # norm; the common shortcut-hit path never computes it
                vv = float(reduce_sum(multiply(vector, vector, scratch)))
                if self._n_live > 0:
                    self.full_scans += 1
                    best, best_d2 = self._scan(vector, vv)
                    if best_d2 <= t2:
                        slot = best
            if slot is None:
                cid = self._new_cluster(vector, vv)
            else:
                total = sums[slot]
                add(total, vector, total)
                d = dense[slot] + 1
                dense[slot] = d
                counts[slot] += 1
                # a Python float is the cheapest scalar np.divide takes
                divide(total, float(d), centroids[slot])
                stale.add(slot)
                cid = live_ids[slot]
            track_cache[track] = cid
            out[i] = cid
        self.shortcut_hits += hits

    # -- durable state -------------------------------------------------------
    def bounded_state(self) -> Dict:
        """The scalars and the four live-slot arrays (``sums``,
        ``dense``, ``counts``, ``live_ids``): O(live clusters), never
        O(clusters, tracks or rows).  What a checkpoint head and an
        append-round helper's reply hold; the history derives from the
        rows :meth:`from_state_dict` is handed beside it.

        Arrays are packed (``repro.storage.packing.pack_array``: raw
        bytes, bit-exact).  Centroids and their cached norms are *not*
        stored -- they are recomputed from (sum, dense count) with the
        identical floating-point expressions the join path uses, so a
        journal replay on top of a restored clusterer reproduces
        uninterrupted ingest bit for bit.
        """
        n = self._n_live
        return {
            "threshold": float(self.threshold),
            "dim": int(self.dim),
            "max_live": int(self.max_live),
            "strict": bool(self.strict),
            "n_live": int(n),
            "sums": pack_array(self._sums[:n], np.float64),
            "dense": pack_array(self._dense[:n], np.int64),
            "counts": pack_array(self._counts[:n], np.int64),
            "live_ids": pack_array(self._live_ids[:n], np.int64),
            "next_id": int(self._next_id),
            "rows_seen": int(self._rows_seen),
            "full_scans": int(self.full_scans),
            "shortcut_hits": int(self.shortcut_hits),
        }

    @classmethod
    def from_state_dict(
        cls, state: Dict, assignments: np.ndarray, track_ids: np.ndarray
    ) -> "IncrementalClusterer":
        """Rebuild a clusterer, bit-exact, from :meth:`bounded_state`
        output (other keys are not read) and the ``assignments`` and
        ``track_ids`` of every row seen, arrays or packed: seeds and sizes
        come from :func:`summarize`, a track's shortcut is its last id."""
        self = cls(
            threshold=state["threshold"],
            dim=state["dim"],
            max_live_clusters=state["max_live"],
            strict=state["strict"],
        )
        n = int(state["n_live"])
        dim = self.dim
        self._sums[:n] = unpack_array(state["sums"], np.float64).reshape(n, dim)
        dense = unpack_array(state["dense"], np.int64)
        self._dense[:n] = dense.tolist()
        self._counts[:n] = unpack_array(state["counts"], np.int64)
        self._live_ids[:n] = unpack_array(state["live_ids"], np.int64).tolist()
        self._n_live = n
        self._sum_rows = list(self._sums[:n])
        self._centroid_rows = list(self._centroids[:n])
        # recompute centroid = sum / dense and |centroid|^2 per slot with
        # the row loop's expressions -- same operands, same results, so
        # no rounding drift versus the live instance
        np.divide(self._sums[:n], dense[:, None], out=self._centroids[:n])
        self._stale.update(range(n))
        self._refresh_norms()
        self._next_id = int(state["next_id"])
        rows = int(state["rows_seen"])
        assignments = unpack_array(assignments, np.int64)
        track_ids = unpack_array(track_ids, np.int64)
        if not len(assignments) == len(track_ids) == rows:
            raise ValueError("assignments and track_ids must cover the %d rows seen" % rows)
        # never written: the next add() outgrows it and copies
        self._assign_buf, self._rows_seen = assignments, rows
        self._summary = summarize(assignments, self._next_id)
        tracks, last = np.unique(track_ids[::-1], return_index=True)
        self._track_cache = dict(zip(tracks.tolist(), assignments[::-1][last].tolist()))
        self._slot_of_id = {self._live_ids[i]: i for i in range(n)}
        self.full_scans = int(state["full_scans"])
        self.shortcut_hits = int(state["shortcut_hits"])
        return self

    def snapshot(self) -> ClusterSummary:
        """The clustering state so far, *without* closing the clusterer.

        Live ingest calls this after every chunk: the returned summary
        covers every row fed through :meth:`add` up to now, while the
        clusterer keeps its centroids, live-cluster slots, and per-track
        shortcuts so the next chunk continues exactly where this one
        stopped.
        """
        # a view of the buffer prefix: rows before _rows_seen are never
        # rewritten, and buffer growth reallocates rather than mutating,
        # so earlier snapshots stay frozen
        assignments = self._assign_buf[: self._rows_seen]
        self._summary = summarize(assignments, self._next_id, self._summary)
        return self._summary


class SnapshotPlayback:
    """:meth:`IncrementalClusterer.snapshot` after each chunk, rebuilt
    by :func:`summarize` from the chunks' assignments and cluster counts
    alone -- for a caller whose clustering ran elsewhere (a forked
    helper).  The summaries are bit-identical to the clusterer's and,
    like its, stay frozen as later chunks arrive.
    """

    def __init__(self, start: ClusterSummary):
        # never written: the first advance() outgrows it and copies
        self._assign_buf, self._summary = start.assignments, start

    @property
    def assignments(self) -> np.ndarray:
        """Every row's cluster id so far."""
        return self._summary.assignments

    def advance(self, assignments: np.ndarray, num_clusters: int) -> ClusterSummary:
        """The snapshot after one more chunk clustered to ``assignments``
        with ``num_clusters`` clusters in all."""
        base, n = self._summary.num_observations, len(assignments)
        self._assign_buf = _grown(self._assign_buf, base, base + n)
        self._assign_buf[base: base + n] = assignments
        self._summary = summarize(self._assign_buf[: base + n], num_clusters, self._summary)
        return self._summary


def _extract_needed(extractor, chunk: ObservationTable, need: np.ndarray,
                    dim: int):
    """``(features, feature_valid)`` for :meth:`IncrementalClusterer.add`
    with only the ``need`` rows extracted (``feature_valid`` is None
    when that is every row)."""
    feats = np.empty((len(chunk), dim), dtype=np.float64)
    if need.all():
        feats[:] = extractor.extract(chunk)
        return feats, None
    feats[need] = extractor.extract(chunk.select(need))
    return feats, need


def feature_chunks(
    table: ObservationTable,
    model: ClassifierModel,
    suppressed: Optional[np.ndarray] = None,
    chunk_rows: int = FeatureExtractor.BLOCK_ROWS,
):
    """``model``'s features for ``table``, as :func:`cluster_features` input.

    Yields ``(track_ids, suppressed, features, feature_valid)`` per
    ``chunk_rows`` rows: by default one extraction block, so a caller
    that consumes the chunks lazily holds one block of float64 features
    and one block of intermediates, whatever the table's length.
    Suppressed rows (pixel differencing) skip feature extraction
    entirely; only a suppressed row whose track first appears at that
    row (a table truncated mid-track) still gets a vector.  Nothing
    here depends on the clustering threshold, so one pass serves a
    whole T sweep.
    """
    extractor = model.feature_extractor()
    if suppressed is None:
        need = np.ones(len(table), dtype=bool)
    else:
        need = feature_rows_needed(table.track_id, suppressed)
    for start in range(0, len(table), chunk_rows):
        stop = min(start + chunk_rows, len(table))
        chunk = table.slice(start, stop)
        sup = None if suppressed is None else suppressed[start:stop]
        feats, valid = _extract_needed(
            extractor, chunk, need[start:stop], model.feature_dim
        )
        yield chunk.track_id, sup, feats, valid


def cluster_features(
    chunks,
    dim: int,
    threshold: float,
    max_live_clusters: int = 512,
    strict: bool = False,
) -> ClusterSummary:
    """Run a fresh clusterer at ``threshold`` over :func:`feature_chunks`
    output; the chunks are only read, so a list of them can be reused."""
    clusterer = IncrementalClusterer(threshold, dim, max_live_clusters, strict)
    for track_ids, sup, feats, valid in chunks:
        clusterer.add(feats, track_ids, suppressed=sup, feature_valid=valid)
    return clusterer.snapshot()


def cluster_table(
    table: ObservationTable,
    model: ClassifierModel,
    threshold: float,
    max_live_clusters: int = 512,
    suppressed: Optional[np.ndarray] = None,
    chunk_rows: int = FeatureExtractor.BLOCK_ROWS,
    strict: bool = False,
) -> ClusterSummary:
    """Cluster all observations of ``table`` with ``model``'s features:
    :func:`cluster_features` over :func:`feature_chunks`."""
    return cluster_features(
        feature_chunks(table, model, suppressed, chunk_rows),
        model.feature_dim, threshold, max_live_clusters, strict,
    )


def extract_and_cluster_chunk(
    clusterer: IncrementalClusterer,
    extractor,
    chunk: ObservationTable,
    suppressed: np.ndarray,
) -> np.ndarray:
    """Extract features only for the rows the clusterer will read, then
    cluster the chunk -- the live (streaming) ingest step, on a clusterer
    that already knows some tracks.  Skipping suppressed rows cuts
    feature synthesis -- the dominant ingest CPU cost -- by the
    suppression ratio."""
    need = clusterer.feature_rows_needed(chunk.track_id, suppressed)
    feats, feature_valid = _extract_needed(extractor, chunk, need, clusterer.dim)
    return clusterer.add(
        feats, chunk.track_id, suppressed=suppressed, feature_valid=feature_valid
    )
