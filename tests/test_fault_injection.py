"""FaultyStore property/fuzz tests: the durability protocol under fire.

Covers the failure modes the journal + atomic-checkpoint design claims
to survive: torn multi-document writes, duplicated (at-least-once)
journal appends, stale-epoch zombie checkpoints, and checksum guards
over truncated or tampered journals and state documents -- then the
same windows on a shard worker: real processes SIGKILLed mid-journal
and mid-transfer (armed by monkeypatch before the fork), and repeated
crashes on the loopback transport (``tests/fabric_loopback.py``).
"""

import json
import os

import numpy as np
import pytest

from fabric_loopback import armed, assert_no_leaked_segments, loopback_fabric, process_of
from repro.core.streaming import StreamIngestor
from repro.storage.docstore import DocumentStore
from repro.storage.faults import FaultInjected, FaultyStore
from repro.storage.journal import (
    CHECKPOINT_COLLECTION,
    CHUNK_COLUMNS,
    JOURNAL_PREFIX,
    STATE_PREFIX,
    IngestJournal,
    JournalCorruption,
    StaleEpochError,
    chunk_digest,
    chunk_to_payload,
    committed_checkpoint,
    load_ingest_state,
    reset_stream,
)
from repro.storage.packing import pack_array, unpack_array


@pytest.fixture()
def stream_setup(seeded_workload):
    """One small stream, chunked, with its tuning-free config."""
    tables, config = seeded_workload
    table = tables["auburn_c"]
    frames = table.frame_idx
    size = len(table)
    bounds = [0]
    for i in range(1, 4):
        stop = size * i // 4
        while 0 < stop < size and frames[stop] == frames[stop - 1]:
            stop += 1
        bounds.append(stop)
    bounds.append(size)
    chunks = [table.slice(a, b) for a, b in zip(bounds, bounds[1:])]
    return table, config, chunks


def open_journaled(store, table, config, index_mode="materialized"):
    return StreamIngestor(
        config,
        table.stream,
        fps=table.fps,
        index_mode=index_mode,
        journal=IngestJournal(store, table.stream),
    )


class TestFaultyStoreUnit:
    def test_budget_exhaustion_and_log(self):
        inner = DocumentStore()
        faulty = FaultyStore(inner, fail_after_writes=2)
        coll = faulty.collection("c")
        coll.insert_one({"a": 1})
        coll.insert_one({"a": 2})
        with pytest.raises(FaultInjected) as info:
            coll.insert_one({"a": 3})
        assert info.value.write_index == 2
        assert info.value.op == "insert_one"
        assert faulty.writes_applied == 2
        assert faulty.faults_injected == 1
        assert faulty.write_log == [("insert_one", "c"), ("insert_one", "c")]
        # the fault fired *before* the write: the store holds exactly two
        assert len(inner.collection("c")) == 2

    def test_torn_insert_many(self):
        """A multi-document write tears mid-batch: a prefix lands, the
        rest never does -- exactly what the journal checksums and the
        staged-checkpoint swap are built to survive."""
        inner = DocumentStore()
        faulty = FaultyStore(inner, fail_after_writes=3)
        with pytest.raises(FaultInjected):
            faulty.collection("c").insert_many({"i": i} for i in range(10))
        docs = inner.collection("c").find()
        assert [d["i"] for d in docs] == [0, 1, 2]

    def test_commit_staged_is_atomic(self):
        """The commit either never starts (fault before) or completes;
        it can never leave half the collections swapped."""
        inner = DocumentStore()
        faulty = FaultyStore(inner, fail_after_writes=1)
        faulty.stage("a").insert_one({"v": "staged"})
        inner.stage("b").insert_one({"v": "staged"})
        with pytest.raises(FaultInjected):
            faulty.commit_staged(["a", "b"])
        assert len(inner.collection("a")) == 0
        assert len(inner.collection("b")) == 0
        # with budget left, the same commit lands whole
        faulty2 = FaultyStore(inner)
        faulty2.commit_staged(["a", "b"])
        assert len(inner.collection("a")) == 1
        assert len(inner.collection("b")) == 1


class TestJournalIntegrity:
    def test_write_path_checksum_is_the_readers(self, stream_setup):
        """``append_chunk`` hashes each column while packing it; the
        stored checksum is the one readers recompute from the stored
        strings -- also after the JSON round trip and for a non-native
        dtype."""
        table, config, chunks = stream_setup
        store = DocumentStore()
        journal = IngestJournal(store, table.stream)
        narrow = chunks[1].select(np.ones(len(chunks[1]), dtype=bool))
        narrow.class_id = narrow.class_id.astype(np.int32)
        for chunk in (chunks[0], narrow):
            seq = journal.append_chunk(chunk, watermark_s=123.5)
            doc = store.collection(JOURNAL_PREFIX + table.stream).find({"seq": seq})[0]
            assert doc["payload"] == chunk_to_payload(chunk, 123.5)
            assert doc["checksum"] == chunk_digest(seq, doc["payload"])
            assert doc["checksum"] == chunk_digest(
                seq, json.loads(json.dumps(doc["payload"]))
            )
        assert [r.seq for r in journal.records()] == [0, 1]

    @pytest.mark.parametrize("tear", ["list", "packed-mid-item", "packed-fewer-rows"])
    def test_checksum_fires_on_truncated_record(self, stream_setup, tear):
        """A torn ``time_s`` column -- a list-form record (as older
        stores hold) cut in half, a packed one cut mid-item, or valid
        base64 of fewer rows -- is a typed ``JournalCorruption``."""
        table, config, chunks = stream_setup
        store = DocumentStore()
        ing = open_journaled(store, table, config)
        ing.push(chunks[0])
        coll = store.collection(JOURNAL_PREFIX + table.stream)
        victim = coll.find({"kind": "chunk"})[0]
        packed = victim["payload"]["columns"]
        torn = dict(packed)
        if tear == "list":
            torn = {k: unpack_array(v, dtype).tolist() for (k, v), (_, dtype)
                    in zip(packed.items(), CHUNK_COLUMNS)}
            coll.update_one(victim["_id"], {"payload": dict(victim["payload"], columns=torn)})
            assert len(IngestJournal(store, table.stream).records()) == 2
            torn["time_s"] = torn["time_s"][: len(torn["time_s"]) // 2]
        elif tear == "packed-mid-item":
            torn["time_s"] = packed["time_s"][:12]  # 9 bytes: one item and a byte
        else:
            values = unpack_array(packed["time_s"], np.float64)
            torn["time_s"] = pack_array(values[:-1], np.float64)
        coll.update_one(
            victim["_id"], {"payload": dict(victim["payload"], columns=torn)}
        )
        journal = IngestJournal(store, table.stream)
        with pytest.raises(JournalCorruption, match="seq=1 column 'time_s' is (torn|truncated)"):
            journal.records()
        with pytest.raises(JournalCorruption):
            StreamIngestor.recover(store, table.stream)

    def test_sequence_gap_detected(self, stream_setup):
        table, config, chunks = stream_setup
        store = DocumentStore()
        ing = open_journaled(store, table, config)
        for chunk in chunks[:3]:
            ing.push(chunk)
        coll = store.collection(JOURNAL_PREFIX + table.stream)
        missing = coll.find({"seq": 2})[0]
        coll.delete(missing["_id"])
        with pytest.raises(JournalCorruption, match="gap"):
            IngestJournal(store, table.stream).records()

    def test_conflicting_duplicate_seq_detected(self, stream_setup):
        table, config, chunks = stream_setup
        store = DocumentStore()
        ing = open_journaled(store, table, config)
        ing.push(chunks[0])
        coll = store.collection(JOURNAL_PREFIX + table.stream)
        record = coll.find({"seq": 1})[0]
        coll.insert_one(
            {"seq": 1, "kind": "chunk", "payload": record["payload"],
             "checksum": "not-the-same"}
        )
        with pytest.raises(JournalCorruption):
            IngestJournal(store, table.stream).records()

    def test_duplicated_appends_are_idempotent(self, stream_setup):
        """At-least-once delivery: every journal append lands twice, yet
        replay ingests each chunk exactly once."""
        table, config, chunks = stream_setup
        inner = DocumentStore()
        dup = FaultyStore.duplicating_journal(inner)
        ing = open_journaled(dup, table, config)
        for chunk in chunks:
            ing.push(chunk)
        journal_docs = inner.collection(JOURNAL_PREFIX + table.stream)
        records = IngestJournal(inner, table.stream).records()
        assert len(journal_docs) == 2 * len(records)

        recovered = StreamIngestor.recover(inner, table.stream)
        reference = StreamIngestor(
            config, table.stream, fps=table.fps, index_mode="materialized"
        )
        for chunk in chunks:
            reference.push(chunk)
        np.testing.assert_array_equal(
            recovered.clusters.assignments, reference.clusters.assignments
        )
        assert recovered.chunks_pushed == reference.chunks_pushed

    def test_seq_numbering_survives_compaction_and_double_crash(
        self, stream_setup
    ):
        """Regression: after checkpoint compaction empties the journal,
        a recovered session must continue the lineage's sequence
        numbering above the committed cursor -- restarting at 0 would
        make a *second* recovery silently filter its acknowledged
        chunks out (data loss, no error)."""
        table, config, chunks = stream_setup
        store = DocumentStore()
        ing = open_journaled(store, table, config)
        ing.push(chunks[0])
        ing.push(chunks[1])
        assert ing.checkpoint(store) == 1  # compacts: journal now empty
        assert IngestJournal(store, table.stream).last_seq() == -1

        survivor = StreamIngestor.recover(store, table.stream)  # crash 1
        survivor.push(chunks[2])  # acknowledged: must survive crash 2
        marker = committed_checkpoint(store, table.stream)
        assert IngestJournal(store, table.stream).last_seq() > marker["journal_seq"]

        twice = StreamIngestor.recover(store, table.stream)  # crash 2
        assert twice.num_rows == survivor.num_rows
        np.testing.assert_array_equal(
            twice.clusters.assignments, survivor.clusters.assignments
        )
        # and the recovered-without-pushing checkpoint cursor is sane
        assert twice.checkpoint(store) == 2

    def test_post_commit_compaction_fault_reports_landed_epoch(
        self, stream_setup
    ):
        """A fault during post-commit journal compaction must not be
        reported as a failed checkpoint: the epoch committed."""
        from repro.serve.service import QueryService
        from repro.core.system import FocusSystem

        table, config, chunks = stream_setup

        def build(store):
            system = FocusSystem()
            system.open_stream(
                table.stream, fps=table.fps, config=config,
                index_mode="materialized", wal_store=store,
            )
            system.append(table.stream, chunks[0])
            system.append(table.stream, chunks[1])
            return system

        # profile an identical twin to find the commit's write offset
        # within the checkpoint (ingest is deterministic)
        twin_faulty = FaultyStore(DocumentStore())
        twin = build(twin_faulty)
        before = twin_faulty.writes_applied
        twin.service.checkpoint_streams(
            twin_faulty, {table.stream: twin.handle(table.stream)}, strict=False
        )
        commit_offset = [
            i for i, (op, _) in enumerate(twin_faulty.write_log[before:])
            if op == "commit_staged"
        ][0]

        # real run: the journal lives on the faulty store, so compaction
        # deletes are metered; budget expires one write after the commit
        inner = DocumentStore()
        faulty = FaultyStore(inner)
        system = build(faulty)
        faulty.fail_after_writes = faulty.writes_applied + commit_offset + 2
        outcomes = system.service.checkpoint_streams(
            faulty,
            {table.stream: system.handle(table.stream)},
            strict=False,
        )
        (outcome,) = outcomes
        assert outcome.error is not None
        assert outcome.landed and outcome.committed
        assert outcome.epoch == 1
        assert committed_checkpoint(inner, table.stream)["epoch"] == 1
        # the journal kept its un-compacted suffix; recovery still works
        recovered = StreamIngestor.recover(inner, table.stream)
        assert recovered.num_rows == system.handle(table.stream).ingestor.num_rows

    def test_recover_is_idempotent(self, stream_setup):
        """Recovering twice from the same store (double replay) yields
        the same state -- replay never double-applies."""
        table, config, chunks = stream_setup
        store = DocumentStore()
        ing = open_journaled(store, table, config)
        ing.push(chunks[0])
        ing.push(chunks[1])
        ing.checkpoint(store)
        ing.push(chunks[2])
        first = StreamIngestor.recover(store, table.stream)
        second = StreamIngestor.recover(store, table.stream)
        np.testing.assert_array_equal(
            first.clusters.assignments, second.clusters.assignments
        )
        assert first.num_rows == second.num_rows == ing.num_rows
        assert first.watermark_s == second.watermark_s == ing.watermark_s


class TestCheckpointAtomicity:
    @pytest.mark.parametrize("index_mode", ["materialized", "lazy"])
    def test_torn_checkpoint_preserves_committed_snapshot(
        self, stream_setup, index_mode
    ):
        """A crash anywhere inside a checkpoint leaves the previous
        committed epoch fully intact -- partial writes are detectable
        (staged) and never visible."""
        table, config, chunks = stream_setup
        inner = DocumentStore()
        ing = open_journaled(inner, table, config, index_mode)
        ing.push(chunks[0])
        ing.push(chunks[1])
        assert ing.checkpoint(inner) == 1
        marker_before = committed_checkpoint(inner, table.stream)
        states = STATE_PREFIX + table.stream
        state_before = json.dumps(inner.collection(states).find(), sort_keys=True)
        ing.push(chunks[2])

        # sweep the whole second checkpoint: fault at every write inside
        profile = FaultyStore(inner)
        twin_store = DocumentStore()
        twin = open_journaled(twin_store, table, config, index_mode)
        twin.push(chunks[0]); twin.push(chunks[1])
        twin.checkpoint(twin_store)
        twin.push(chunks[2])
        twin_profile = FaultyStore(twin_store)
        twin.checkpoint(twin_profile)
        n_writes = twin_profile.writes_applied
        commit_at = [
            i for i, (op, _) in enumerate(twin_profile.write_log)
            if op == "commit_staged"
        ][0]

        for budget in range(n_writes):
            faulty = FaultyStore(inner, fail_after_writes=budget)
            with pytest.raises((FaultInjected, StaleEpochError)):
                ing.checkpoint(faulty)
            if budget <= commit_at:
                # commit never ran: the epoch 1 head and segments are
                # byte-for-byte intact
                assert committed_checkpoint(inner, table.stream) == marker_before
                now = json.dumps(inner.collection(states).find(), sort_keys=True)
                assert now == state_before
                state = load_ingest_state(inner, table.stream)
                assert state["epoch"] == 1
        del profile

        # the survivor's eventual clean checkpoint commits, and a
        # recovery from it derives the survivor's index
        final_epoch = ing.checkpoint(inner)
        assert final_epoch == committed_checkpoint(inner, table.stream)["epoch"]
        recovered = StreamIngestor.recover(inner, table.stream)
        assert recovered.num_rows == ing.num_rows
        np.testing.assert_array_equal(
            recovered.clusters.assignments, ing.clusters.assignments
        )
        for cid in range(ing.index.num_clusters):
            assert recovered.index.cluster(cid) == ing.index.cluster(cid)
            np.testing.assert_array_equal(
                recovered.index.members(cid), ing.index.members(cid)
            )
        assert recovered.checkpoint(inner) == final_epoch + 1

    def test_stale_epoch_rejected(self, stream_setup):
        """A zombie session from before the crash cannot clobber the
        recovered session's snapshot."""
        table, config, chunks = stream_setup
        store = DocumentStore()
        zombie = open_journaled(store, table, config)
        zombie.push(chunks[0])
        assert zombie.checkpoint(store) == 1

        successor = StreamIngestor.recover(store, table.stream)
        successor.push(chunks[1])
        assert successor.checkpoint(store) == 2

        zombie.push(chunks[1])
        marker = committed_checkpoint(store, table.stream)
        with pytest.raises(StaleEpochError):
            zombie.checkpoint(store)
        # the rejected commit left nothing behind: marker and staging
        assert committed_checkpoint(store, table.stream) == marker
        assert store.staged_names() == []

    def test_state_checksum_guard(self, stream_setup):
        table, config, chunks = stream_setup
        store = DocumentStore()
        ing = open_journaled(store, table, config)
        ing.push(chunks[0])
        ing.checkpoint(store)
        coll = store.collection(STATE_PREFIX + table.stream)
        doc = coll.find_one({"stream": table.stream})
        tampered = dict(doc["payload"], rows=doc["payload"]["rows"] + 1)
        coll.update_one(doc["_id"], {"payload": tampered})
        with pytest.raises(JournalCorruption, match="checksum"):
            load_ingest_state(store, table.stream)
        with pytest.raises(JournalCorruption):
            StreamIngestor.recover(store, table.stream)

    def test_marker_state_epoch_disagreement(self, stream_setup):
        table, config, chunks = stream_setup
        store = DocumentStore()
        ing = open_journaled(store, table, config)
        ing.push(chunks[0])
        ing.checkpoint(store)
        marker = store.collection(CHECKPOINT_COLLECTION).find_one(
            {"stream": table.stream}
        )
        store.collection(CHECKPOINT_COLLECTION).update_one(
            marker["_id"], {"epoch": marker["epoch"] + 5}
        )
        with pytest.raises(JournalCorruption, match="disagrees"):
            load_ingest_state(store, table.stream)

    def test_fresh_journal_refuses_existing_lineage(self, stream_setup):
        table, config, chunks = stream_setup
        store = DocumentStore()
        ing = open_journaled(store, table, config)
        ing.push(chunks[0])
        with pytest.raises(Exception, match="durable state"):
            open_journaled(store, table, config)
        # wiping the lineage makes the name reusable
        reset_stream(store, table.stream)
        fresh = open_journaled(store, table, config)
        fresh.push(chunks[0])

    def test_reset_stream_wipes_stream_meta(self, stream_setup):
        """Regression: a stale previous-lineage stream-meta document
        must not survive a reset -- it would pair self-consistently
        with the next lineage's index and point load_indexes at the
        wrong table."""
        table, config, chunks = stream_setup
        store = DocumentStore()
        store.collection("stream-meta").insert_one(
            {"stream": table.stream, "duration_s": 999.0, "fps": 1.0,
             "num_rows": 7, "checksum": 42, "head_classes": None}
        )
        ing = open_journaled(store, table, config)
        ing.push(chunks[0])
        reset_stream(store, table.stream)
        assert store.collection("stream-meta").find(
            {"stream": table.stream}
        ) == []

    def test_reset_stream_wipes_index_documents(self, stream_setup):
        """A store written by an older checkpoint, or holding a
        ``save_indexes`` export, keeps cluster documents beside the
        durable state; a reset takes them along with the lineage."""
        table, config, chunks = stream_setup
        store = DocumentStore()
        ing = open_journaled(store, table, config)
        ing.push(chunks[0])
        ing.checkpoint(store)
        ing.index.to_docstore(store)
        assert len(store.collection("clusters:%s" % table.stream)) > 0
        reset_stream(store, table.stream)
        assert "clusters:%s" % table.stream not in store.collection_names()
        assert store.collection("index-meta").find({"stream": table.stream}) == []
        assert load_ingest_state(store, table.stream) is None

    def test_durable_checkpoint_rejects_foreign_store(self, stream_setup):
        """Regression: committing a durable checkpoint into a store
        other than the journal's would compact WAL records whose
        covering checkpoint lives elsewhere -- acknowledged chunks
        would become unrecoverable.  The mismatch is rejected before
        anything is written; wrapping the journal's store in a fault
        injector is still allowed (same backing store)."""
        table, config, chunks = stream_setup
        inner = DocumentStore()
        ing = open_journaled(inner, table, config)
        ing.push(chunks[0])
        from repro.storage.journal import JournalError

        with pytest.raises(JournalError, match="journal's\nstore|journal's store"):
            ing.checkpoint(DocumentStore())
        # nothing committed, nothing compacted
        assert committed_checkpoint(inner, table.stream) is None
        assert IngestJournal(inner, table.stream).last_seq() == 1
        # a wrapper over the same backing store is fine
        assert ing.checkpoint(FaultyStore(inner)) == 1


class TestFuzzCrashBudgets:
    def test_random_crash_budgets_recover_bit_identical(self, stream_setup):
        """Seeded fuzz: crash at random write budgets (lazy index mode),
        recover, finish, and compare against the uninterrupted run."""
        table, config, chunks = stream_setup
        reference = StreamIngestor(
            config, table.stream, fps=table.fps, index_mode="lazy"
        )
        for chunk in chunks:
            reference.push(chunk)

        def schedule(store):
            ing = open_journaled(store, table, config, index_mode="lazy")
            for i, chunk in enumerate(chunks):
                ing.push(chunk)
                if i == 1:
                    ing.checkpoint(store)
            return ing

        profile = FaultyStore(DocumentStore())
        schedule(profile)
        total = profile.writes_applied
        bounds = np.cumsum([0] + [len(c) for c in chunks])
        rng = np.random.RandomState(7)
        budgets = sorted(set(rng.randint(1, total, size=8).tolist()))
        crashes = 0
        for budget in budgets:
            inner = DocumentStore()
            faulty = FaultyStore(inner, fail_after_writes=budget)
            try:
                ing = schedule(faulty)
            except FaultInjected:
                crashes += 1
                try:
                    ing = StreamIngestor.recover(inner, table.stream)
                except KeyError:
                    ing = open_journaled(inner, table, config, index_mode="lazy")
                k = int(np.searchsorted(bounds, ing.num_rows))
                assert bounds[k] == ing.num_rows
                for chunk in chunks[k:]:
                    ing.push(chunk)
            np.testing.assert_array_equal(
                ing.clusters.assignments, reference.clusters.assignments
            )
            assert ing.watermark_s == reference.watermark_s
        assert crashes == len(budgets)


# ---------------------------------------------------------------------------
# worker-process chaos drills (the fabric's parallel mode under fire)
# ---------------------------------------------------------------------------

class TestWorkerChaosDrills:
    """SIGKILL a shard *worker process* in the worst window -- after a
    chunk hit the WAL but before it was applied or acknowledged -- then
    let the supervisor restart it through ``ShardNode.recover``.  The
    revived shard must answer bit-identically to a shard that never
    crashed: unacknowledged work never happened durably (at-most-once),
    so the caller re-appends and ends up in the same state.
    """

    def _reference(self, table, config, chunks, index_mode):
        from repro.fabric import ShardNode

        node = ShardNode("ref")
        node.open_stream(
            table.stream,
            fps=table.fps,
            config=config,
            index_mode=index_mode,
            durable=True,
        )
        for chunk in chunks:
            node.append(table.stream, chunk)
        return node

    @pytest.mark.parametrize("index_mode", ["lazy", "materialized"])
    def test_sigkill_between_journal_append_and_checkpoint(
        self, stream_setup, index_mode, tmp_path, monkeypatch
    ):
        from repro.fabric import FabricSupervisor, WorkerCrashed

        table, config, chunks = stream_setup
        stream = table.stream
        reference = self._reference(table, config, chunks, index_mode)
        ref_answer = reference.query(stream, 1)
        sentinel = str(tmp_path / "crash")
        append_chunk = IngestJournal.append_chunk

        def append_then_die(journal, chunk, watermark_s=None):
            seq = append_chunk(journal, chunk, watermark_s)
            if armed(sentinel):
                os._exit(1)  # no reply, no delta: never happened durably
            return seq

        # armed before the fork: the worker inherits it, no op carries it
        monkeypatch.setattr(IngestJournal, "append_chunk", append_then_die)
        with FabricSupervisor(["chaos"]) as supervisor:
            client = supervisor.client("chaos")
            client.open_stream(
                stream,
                fps=table.fps,
                config=config,
                index_mode=index_mode,
                durable=True,
            )
            client.append(stream, chunks[0])
            client.append(stream, chunks[1])
            client.checkpoint(streams=[stream])
            # arm the drill: the next append dies right after the WAL
            # write, before apply/ack -- between journal and checkpoint
            open(sentinel, "w").close()
            with pytest.raises(WorkerCrashed):
                client.append(stream, chunks[2])
            assert not supervisor.alive("chaos")

            supervisor.restart("chaos", configs={stream: config})
            # at-most-once: the unacknowledged chunk never landed
            info = client.handle_info(stream)
            assert info.rows == len(chunks[0]) + len(chunks[1])
            # the caller retries the lost chunk and finishes the feed
            client.append(stream, chunks[2])
            client.append(stream, chunks[3])
            answer = client.query(stream, 1)

        np.testing.assert_array_equal(answer.frames, ref_answer.frames)
        np.testing.assert_array_equal(
            answer.result.returned_rows, ref_answer.result.returned_rows
        )

    def test_sigkill_while_idle_recovers_acked_state(self, stream_setup):
        from repro.fabric import FabricSupervisor

        table, config, chunks = stream_setup
        stream = table.stream
        reference = self._reference(table, config, chunks, "materialized")
        ref_answer = reference.query(stream, 1)

        with FabricSupervisor(["chaos"]) as supervisor:
            client = supervisor.client("chaos")
            client.open_stream(
                stream, fps=table.fps, config=config, durable=True
            )
            for chunk in chunks[:3]:
                client.append(stream, chunk)
            # no checkpoint: recovery replays the journal alone
            supervisor.kill("chaos")
            supervisor.restart("chaos", configs={stream: config})
            assert client.handle_info(stream).rows == sum(
                len(c) for c in chunks[:3]
            )
            client.append(stream, chunks[3])
            answer = client.query(stream, 1)

        np.testing.assert_array_equal(answer.frames, ref_answer.frames)
        np.testing.assert_array_equal(
            answer.result.returned_rows, ref_answer.result.returned_rows
        )

    def test_repeated_crashes_converge(self, stream_setup):
        """Crash after *every* chunk's journal append (loopback): N
        crash/restart cycles still end bit-identical to the
        never-crashed reference."""
        from repro.fabric import WorkerCrashed

        table, config, chunks = stream_setup
        stream = table.stream
        reference = self._reference(table, config, chunks, "materialized")
        ref_answer = reference.query(stream, 1)

        with loopback_fabric(["chaos"]) as supervisor:
            client = supervisor.client("chaos")
            client.open_stream(
                stream, fps=table.fps, config=config, durable=True
            )
            for chunk in chunks:
                process_of(supervisor, "chaos").crash_after_journal(stream)
                with pytest.raises(WorkerCrashed):
                    client.append(stream, chunk)
                supervisor.restart("chaos", configs={stream: config})
                client.append(stream, chunk)  # retry lands it
            answer = client.query(stream, 1)

        np.testing.assert_array_equal(answer.frames, ref_answer.frames)
        np.testing.assert_array_equal(
            answer.result.returned_rows, ref_answer.result.returned_rows
        )


class TestDataPlaneReclamation:
    """SIGKILL mid-transfer for the shared-memory wire: a worker that
    dies between sealing a reply's segment and enqueuing the reply, or
    is killed with sealed replies nobody gathered, leaves orphans the
    supervisor must reclaim by name, leaving no segment behind at
    shutdown."""

    def test_orphan_reply_segment_reclaimed_on_restart(
        self, stream_setup, tmp_path, monkeypatch
    ):
        from multiprocessing import shared_memory

        from repro.fabric import FabricSupervisor, WorkerCrashed
        from repro.fabric.worker import WorkerState, _reply_segment_name

        table, config, chunks = stream_setup
        stream = table.stream
        sentinel = str(tmp_path / "crash")
        serve_one = WorkerState.serve_one

        def serve_then_die(worker, request):
            reply, sink = serve_one(worker, request)
            if armed(sentinel):
                os._exit(1)  # the reply is sealed, never enqueued
            return reply, sink

        # armed before the fork: the worker inherits it, no op carries it
        monkeypatch.setattr(WorkerState, "serve_one", serve_then_die)
        with FabricSupervisor(
            ["chaos"], shm_threshold=1
        ) as supervisor:
            client = supervisor.client("chaos")
            client.open_stream(
                stream, fps=table.fps, config=config, durable=True
            )
            client.append(stream, chunks[0])
            open(sentinel, "w").close()
            worker = supervisor._worker("chaos")
            orphan = _reply_segment_name(worker.reply_prefix, worker.next_corr)
            with pytest.raises(WorkerCrashed):
                client.append(stream, chunks[1])
            assert not supervisor.alive("chaos")
            # the worker died after sealing the reply's segment, orphaned
            # (nobody will ever gather it) -- detecting the death
            # condemned the incarnation, which probed the unacknowledged
            # corr ids and unlinked it NOW, not at some later restart
            # (PR 8: failure-time reclamation)
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=orphan)
            supervisor.restart("chaos", configs={stream: config})
            # at-most-once: the orphaned append never landed; retry does
            client.append(stream, chunks[1])
            assert client.handle_info(stream).rows == len(chunks[0]) + len(
                chunks[1]
            )
        assert_no_leaked_segments(supervisor)

    def test_inflight_reply_segments_reclaimed_on_kill(self, stream_setup):
        """A pipelined round is sealed -- every reply in its segment --
        but not gathered when the worker is killed: the kill unlinks
        each reply's segment by name, and the round's appends, never
        acknowledged, land once on retry."""
        import time
        from multiprocessing import shared_memory

        from repro.fabric import FabricSupervisor
        from repro.fabric.worker import _reply_segment_name

        def sealed(name):
            try:
                shared_memory.SharedMemory(name=name).close()
            except (FileNotFoundError, ValueError):  # absent, or not sized yet
                return False
            return True

        table, config, chunks = stream_setup
        stream = table.stream
        with FabricSupervisor(["chaos"], shm_threshold=1) as supervisor:
            client = supervisor.client("chaos")
            client.open_stream(
                stream, fps=table.fps, config=config, durable=True
            )
            client.append(stream, chunks[0])
            worker = supervisor._worker("chaos")
            first = worker.next_corr
            for chunk in chunks[1:3]:
                client.append_submit(stream, chunk, defer_delta=True)
            client.append_submit(stream, chunks[3])
            names = [
                _reply_segment_name(worker.reply_prefix, corr_id)
                for corr_id in range(first, worker.next_corr)
            ]
            patience = time.monotonic() + 30.0
            while not all(sealed(name) for name in names):
                assert time.monotonic() < patience, "the round never sealed"
                time.sleep(0.01)
            supervisor.kill("chaos")
            for name in names:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=name)
            supervisor.restart("chaos", configs={stream: config})
            for chunk in chunks[1:]:
                client.append(stream, chunk)
            assert client.handle_info(stream).rows == sum(
                len(c) for c in chunks
            )
        assert_no_leaked_segments(supervisor)
