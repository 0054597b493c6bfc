"""Crash-point sweep: recovery is bit-identical to uninterrupted ingest.

The acceptance drill for the durable stream fabric: a 3-stream live
workload is killed -- via injected storage faults -- around every
journal record and around every checkpoint commit, then recovered from
the surviving store and driven to completion.  At every crash point,
for both index modes, the recovered sessions' final state (cluster
assignments, suppression, watermark, counters, index contents, query
answers) must equal a run that never crashed -- which in turn equals a
one-shot ingest of the same windows.

The producer protocol under test mirrors a real deployment: chunks are
delivered at-least-once; after a crash the producer asks the recovered
session for its row watermark and resumes from the first undelivered
chunk.  A chunk whose journal append survived is never re-ingested
(the journal is the source of truth), and a crash before the very
first journal record simply re-opens the stream.
"""

import numpy as np
import pytest

from repro.cnn.zoo import resnet152
from repro.core.ingest import IngestPipeline
from repro.core.query import QueryEngine
from repro.core.streaming import StreamIngestor
from repro.core.system import FocusSystem
from repro.storage.docstore import DocumentStore
from repro.storage.faults import FaultInjected, FaultyStore
from repro.storage.journal import (
    JOURNAL_PREFIX,
    STATE_PREFIX,
    IngestJournal,
    payload_digest,
)

N_CHUNKS = 4
#: checkpoint every stream after this chunk round (plus a final round)
CHECKPOINT_ROUNDS = (1, 3)
QUERY_CLASSES = 2


def split_chunks(table, n=N_CHUNKS):
    """Frame-aligned row-range chunks: rows are frame-ordered, so only
    frame-aligned splits preserve stream time order."""
    frames = table.frame_idx
    size = len(table)
    bounds = [0]
    for i in range(1, n):
        stop = size * i // n
        while 0 < stop < size and frames[stop] == frames[stop - 1]:
            stop += 1
        if stop > bounds[-1]:
            bounds.append(stop)
    bounds.append(size)
    while len(bounds) < n + 1:  # degenerate tiny tables: pad empty tails
        bounds.append(size)
    return [table.slice(a, b) for a, b in zip(bounds, bounds[1:])]


def run_schedule(store, tables, config, index_mode):
    """Drive the 3-stream ingest schedule against ``store``.

    Round-robin chunk pushes with two multi-stream checkpoint rounds;
    raises whatever the store raises (the injected crash).
    """
    streams = sorted(tables)
    ingestors = {
        s: StreamIngestor(
            config,
            s,
            fps=tables[s].fps,
            index_mode=index_mode,
            journal=IngestJournal(store, s),
        )
        for s in streams
    }
    chunks = {s: split_chunks(tables[s]) for s in streams}
    for i in range(N_CHUNKS):
        for s in streams:
            ingestors[s].push(chunks[s][i])
        if i in CHECKPOINT_ROUNDS:
            for s in streams:
                ingestors[s].checkpoint(store)
    return ingestors


def recover_and_finish(store, tables, config, index_mode):
    """Resume every stream from ``store`` and deliver the rest of the
    workload (the at-least-once producer protocol)."""
    ingestors = {}
    for s in sorted(tables):
        chunks = split_chunks(tables[s])
        try:
            ing = StreamIngestor.recover(store, s)
        except KeyError:
            # crash before even the "open" record: nothing durable yet
            ing = StreamIngestor(
                config,
                s,
                fps=tables[s].fps,
                index_mode=index_mode,
                journal=IngestJournal(store, s),
            )
        assert ing.index_mode == index_mode
        bounds = np.cumsum([0] + [len(c) for c in chunks])
        k = int(np.searchsorted(bounds, ing.num_rows))
        # a journal append is atomic: recovered rows always sit exactly
        # on a chunk boundary, never inside a torn chunk
        assert bounds[k] == ing.num_rows
        for chunk in chunks[k:]:
            ing.push(chunk)
        # the post-recovery checkpoint must commit (fresh epoch CAS)
        assert ing.checkpoint(store) >= 1
        ingestors[s] = ing
    return ingestors


def state_fingerprint(ingestor):
    """Everything 'bit-identical' means, gathered for comparison."""
    gt = resnet152()
    index = ingestor.index
    entries = {
        cid: (
            index.cluster(cid),
            index.members(cid).tolist(),
            index.frames(cid).tolist(),
        )
        for cid in range(index.num_clusters)
    }
    engine = QueryEngine(index, ingestor.table, ingestor.config.model, gt)
    classes = [int(c) for c in ingestor.table.dominant_classes()[:QUERY_CLASSES]]
    answers = {}
    for cls in classes:
        result = engine.query(cls)
        answers[cls] = (
            result.returned_frames.tolist(),
            result.returned_rows.tolist(),
            result.gt_inferences,
        )
    return {
        "assignments": ingestor.clusters.assignments.tolist(),
        "seed_rows": ingestor.clusters.seed_rows.tolist(),
        "sizes": ingestor.clusters.sizes.tolist(),
        "suppressed": ingestor.result.suppressed.tolist(),
        "watermark": ingestor.watermark_s,
        "rows": ingestor.num_rows,
        "cnn_inferences": ingestor.cnn_inferences,
        "chunks_pushed": ingestor.chunks_pushed,
        "entries": entries,
        "answers": answers,
    }


@pytest.fixture(scope="module", params=["materialized", "lazy"])
def mode_workload(request, seeded_workload):
    """Per index mode: the workload plus the uninterrupted reference."""
    tables, config = seeded_workload
    index_mode = request.param
    clean_store = DocumentStore()
    clean = run_schedule(clean_store, tables, config, index_mode)
    reference = {s: state_fingerprint(ing) for s, ing in clean.items()}
    # profile the write trace once: the sweep pins crash points to it
    profile_inner = DocumentStore()
    profile = FaultyStore(profile_inner)
    run_schedule(profile, tables, config, index_mode)
    return index_mode, tables, config, reference, profile.write_log


def crash_points(write_log):
    """Write indices to kill at: around every journal record and every
    checkpoint commit, plus each checkpoint region's first write."""
    points = set()
    previous_was_checkpoint = False
    for idx, (op, target) in enumerate(write_log):
        if target.startswith(JOURNAL_PREFIX) and op == "insert_one":
            points.add(idx)      # the record never lands
            points.add(idx + 1)  # the record is the last durable write
            previous_was_checkpoint = False
        else:
            if not previous_was_checkpoint:
                points.add(idx)  # first write of a checkpoint region
            previous_was_checkpoint = True
        if op == "commit_staged":
            points.add(idx)      # crash instead of the atomic swap
            points.add(idx + 1)  # crash right after it
    return sorted(p for p in points if p <= len(write_log))


class TestCrashPointSweep:
    def test_live_equals_oneshot(self, mode_workload):
        """The uninterrupted live reference itself equals a one-shot
        ingest of each stream's full window (sanity anchor: the sweep
        below compares against a correct reference)."""
        index_mode, tables, config, reference, _ = mode_workload
        for s, table in tables.items():
            oneshot = IngestPipeline(config, index_mode=index_mode).run(table)
            assert reference[s]["assignments"] == oneshot.clusters.assignments.tolist()
            assert reference[s]["suppressed"] == oneshot.suppressed.tolist()
            assert reference[s]["cnn_inferences"] == oneshot.cnn_inferences

    def test_recovery_at_every_crash_point(self, mode_workload):
        """Acceptance: kill ingest at every crash point, recover, finish,
        and get a final state bit-identical to the uninterrupted run."""
        index_mode, tables, config, reference, write_log = mode_workload
        points = crash_points(write_log)
        assert len(points) >= 2 * N_CHUNKS * len(tables)
        crashed = 0
        for budget in points:
            inner = DocumentStore()
            faulty = FaultyStore(inner, fail_after_writes=budget)
            try:
                ingestors = run_schedule(faulty, tables, config, index_mode)
            except FaultInjected:
                crashed += 1
                ingestors = recover_and_finish(inner, tables, config, index_mode)
            for s in tables:
                assert state_fingerprint(ingestors[s]) == reference[s], (
                    "stream %r diverged after crash at write #%d" % (s, budget)
                )
        # the sweep must actually crash (a budget beyond the trace ends
        # the run cleanly; at most one point can be past the end)
        assert crashed >= len(points) - 1


class TestSystemRecovery:
    """FocusSystem-level recovery: handles, engines, fan-out queries."""

    def test_recover_resumes_live_queryable_sessions(self, seeded_workload):
        self._crash_recover_compare(seeded_workload)

    def test_recover_checkpoint_with_legacy_clusterer_keys(self, seeded_workload):
        """A checkpoint written while the clusterer still had a batch
        kernel and an ``auto`` selector stores four extra keys in its
        clusterer payload; it recovers and answers bit-identically."""

        def as_written_by_parent(store, streams):
            for s in streams:
                states = store.collection(STATE_PREFIX + s)
                doc = states.find_one({"stream": s})
                payload = dict(doc["payload"])
                payload["clusterer"] = dict(
                    payload["clusterer"], kernel="auto", recent_scans=3,
                    recent_rows=4096, active_kernel="scalar",
                )
                states.update_one(doc["_id"], {
                    "payload": payload, "checksum": payload_digest(payload),
                })

        self._crash_recover_compare(seeded_workload, as_written_by_parent)

    @staticmethod
    def _crash_recover_compare(seeded_workload, rewrite_checkpoint=None):
        tables, config = seeded_workload
        streams = sorted(tables)
        chunks = {s: split_chunks(tables[s]) for s in streams}

        store = DocumentStore()
        crashed = FocusSystem()
        for s in streams:
            crashed.open_stream(
                s, fps=tables[s].fps, config=config, index_mode="lazy",
                wal_store=store,
            )
        for i in range(2):
            for s in streams:
                crashed.append(s, chunks[s][i])
        crashed.checkpoint(store)
        if rewrite_checkpoint is not None:
            rewrite_checkpoint(store, streams)
        for s in streams:
            crashed.append(s, chunks[s][2])
        del crashed  # the process dies; only `store` survives

        recovered = FocusSystem()
        assert recovered.recover(store) == streams
        for s in streams:
            handle = recovered.handle(s)
            assert handle.live and not handle.restored
            recovered.append(s, chunks[s][3])

        uninterrupted = FocusSystem()
        for s in streams:
            uninterrupted.open_stream(
                s, fps=tables[s].fps, config=config, index_mode="lazy"
            )
            for chunk in chunks[s]:
                uninterrupted.append(s, chunk)

        for s in streams:
            np.testing.assert_array_equal(
                recovered.handle(s).table.time_s,
                uninterrupted.handle(s).table.time_s,
            )
        a = recovered.query_all("car")
        b = uninterrupted.query_all("car")
        for s in streams:
            np.testing.assert_array_equal(a.slices[s].frames, b.slices[s].frames)

    def test_recover_unknown_stream_rejected(self, seeded_workload):
        tables, config = seeded_workload
        store = DocumentStore()
        with pytest.raises(KeyError, match="no durable stream state"):
            FocusSystem().recover(store, streams=["auburn_c"])

    def test_sibling_checkpoint_isolation(self, seeded_workload):
        """A crash while checkpointing one stream leaves every sibling's
        committed snapshot untouched (per-stream epochs)."""
        tables, config = seeded_workload
        streams = sorted(tables)
        chunks = {s: split_chunks(tables[s]) for s in streams}

        inner = DocumentStore()
        system = FocusSystem()
        for s in streams:
            system.open_stream(
                s, fps=tables[s].fps, config=config, index_mode="materialized",
                wal_store=inner,
            )
        for i in range(2):
            for s in streams:
                system.append(s, chunks[s][i])
        system.checkpoint(inner)  # every stream commits epoch 1
        from repro.storage.journal import committed_checkpoint

        first_round = {s: committed_checkpoint(inner, s) for s in streams}
        for s in streams:
            system.append(s, chunks[s][2])

        # crash while the *second* stream of the round is checkpointing.
        # Profile an identical twin system through the exact same
        # schedule (ingest is deterministic, so its second-round write
        # trace matches), then kill a few writes into that round.
        twin_store = DocumentStore()
        twin = FocusSystem()
        for s in streams:
            twin.open_stream(
                s, fps=tables[s].fps, config=config, index_mode="materialized",
                wal_store=twin_store,
            )
        for i in range(2):
            for s in streams:
                twin.append(s, chunks[s][i])
        twin.checkpoint(twin_store)
        for s in streams:
            twin.append(s, chunks[s][2])
        profile = FaultyStore(twin_store)
        twin.checkpoint(profile)
        commits = [
            i for i, (op, _) in enumerate(profile.write_log) if op == "commit_staged"
        ]
        budget = commits[0] + 2  # mid-second-stream's staged writes
        assert budget < commits[1]

        faulty = FaultyStore(inner, fail_after_writes=budget)
        with pytest.raises(FaultInjected):
            system.checkpoint(faulty)

        done, pending = streams[0], streams[1:]
        assert committed_checkpoint(inner, done)["epoch"] == 2
        for s in pending:
            assert committed_checkpoint(inner, s) == first_round[s]

        # recovery: the first stream resumes at round 2, the others at
        # round 1 + journal replay; all end bit-identical
        recovered = FocusSystem()
        recovered.recover(store=inner)
        for s in streams:
            np.testing.assert_array_equal(
                recovered.handle(s).ingestor.clusters.assignments,
                system.handle(s).ingestor.clusters.assignments,
            )
