"""A straight-line reference for ``IncrementalClusterer``'s row loop.

These are the row primitives the kernel was built from before its loop
was inlined (``_row_suppressed`` / ``_row_dense`` / ``_join_dense`` /
``_set_centroid``), kept one call per step and with every centroid norm
recomputed eagerly at its join.  Nothing here is tuned: numpy-scalar
counts, a method per step, fresh temporaries.  The floating-point
expressions and their operand order are the contract -- the kernel must
reproduce this state bit for bit (``tests/test_properties.py``).
"""

import numpy as np


class ReferenceClusterer:
    def __init__(self, threshold, dim, max_live_clusters=512, strict=False):
        self.t2 = float(threshold) * float(threshold)
        self.max_live = max_live_clusters
        self.strict = strict
        capacity = max(64, max_live_clusters)
        self.sums = np.zeros((capacity, dim))
        self.centroids = np.zeros((capacity, dim))
        self.cnorm2 = np.zeros(capacity)
        self.dense = np.zeros(capacity, dtype=np.int64)
        self.counts = np.zeros(capacity, dtype=np.int64)
        self.live_ids = np.full(capacity, -1, dtype=np.int64)
        self.n_live = 0
        self.seed_rows, self.sizes, self.assignments = [], [], []
        self.track_cache, self.slot_of_id = {}, {}
        self.full_scans = self.shortcut_hits = 0

    def _set_centroid(self, slot):
        self.centroids[slot] = self.sums[slot] / self.dense[slot]
        centroid = self.centroids[slot]
        self.cnorm2[slot] = np.add.reduce(centroid * centroid)

    def _evict_smallest(self):
        victim = int(np.argmin(self.counts[: self.n_live]))
        victim_id = int(self.live_ids[victim])
        last = self.n_live - 1
        if victim != last:
            for column in (self.sums, self.centroids, self.cnorm2, self.dense,
                           self.counts, self.live_ids):
                column[victim] = column[last]
            self.slot_of_id[int(self.live_ids[victim])] = victim
        self.n_live = last
        del self.slot_of_id[victim_id]

    def _new_cluster(self, vector, vv, row):
        if self.n_live >= self.max_live:
            self._evict_smallest()
        slot, cid = self.n_live, len(self.sizes)
        self.sums[slot] = vector
        self.centroids[slot] = vector
        self.cnorm2[slot] = vv
        self.dense[slot] = self.counts[slot] = 1
        self.live_ids[slot] = cid
        self.slot_of_id[cid] = slot
        self.n_live += 1
        self.seed_rows.append(row)
        self.sizes.append(1)
        return cid

    def _join_dense(self, slot, vector):
        self.sums[slot] = self.sums[slot] + vector
        self.dense[slot] += 1
        self.counts[slot] += 1
        self._set_centroid(slot)
        cid = int(self.live_ids[slot])
        self.sizes[cid] += 1
        return cid

    def _scan(self, vector, vv):
        n = self.n_live
        d2 = np.dot(self.centroids[:n], vector)
        d2 *= -2.0
        d2 += self.cnorm2[:n]
        d2 += vv
        best = int(np.argmin(d2))
        return best, float(d2[best])

    def _row_suppressed(self, track):
        cid = self.track_cache.get(track)
        if cid is None:
            return None
        slot = self.slot_of_id.get(cid)
        if slot is not None:
            self.counts[slot] += 1
        self.sizes[cid] += 1
        return cid

    def _row_dense(self, track, vector, row):
        slot = None
        if not self.strict:
            cached_slot = self.slot_of_id.get(self.track_cache.get(track))
            if cached_slot is not None:
                delta = self.centroids[cached_slot] - vector
                if np.add.reduce(delta * delta) <= self.t2:
                    slot = cached_slot
                    self.shortcut_hits += 1
        cid = None
        if slot is None:
            vv = float(np.add.reduce(vector * vector))
            if self.n_live > 0:
                self.full_scans += 1
                best, best_d2 = self._scan(vector, vv)
                if best_d2 <= self.t2:
                    slot = best
            if slot is None:
                cid = self._new_cluster(vector, vv, row)
        if cid is None:
            cid = self._join_dense(slot, vector)
        self.track_cache[track] = cid
        return cid

    def add(self, features, track_ids, suppressed):
        """Cluster a chunk; ``features`` holds a real vector in every row."""
        base = len(self.assignments)
        for i, track in enumerate(np.asarray(track_ids).tolist()):
            cid = self._row_suppressed(track) if suppressed[i] else None
            if cid is None:
                cid = self._row_dense(track, features[i], base + i)
            self.assignments.append(cid)
        return np.asarray(self.assignments[base:], dtype=np.int64)
