"""One suite for every kind -- and every pair -- of shard legs.

``repro.fabric.shard.ShardLeg`` is the contract the router and the
migration orchestrator are written against; ``ShardNode`` (in-process)
and ``ShardClient`` (worker process) implement it.  This suite holds
both to it: the two classes define every protocol member with the same
parameter names, ``migrate_stream`` behaves identically over all four
source/target kind pairs (same report, same events, answers
bit-identical to a stream that never moved, same guard refusals, same
failure contract), a router over a mixed fleet migrates in both
directions, and a non-finite ``watermark_s`` or chunk ``time_s`` is
refused before the WAL write through every front end, as are
negative ones (and again on replay).  The router's one scatter-gather
is held to the contract's other half: every submitted reply is
gathered, so an application error on one leg never wedges a sibling.
"""

import contextlib
import inspect

import numpy as np
import pytest

from fabric_loopback import assert_no_leaked_segments
from repro.core.system import FocusSystem
from repro.fabric import (
    FabricRouter,
    FabricSupervisor,
    MigrationError,
    ShardClient,
    ShardNode,
    migrate_stream,
)
from repro.fabric.protocol import WorkerCrashed
from repro.fabric.shard import ShardLeg
from repro.obs.events import EventLog, default_events, set_default_events
from repro.storage.docstore import DocumentStore
from repro.storage.faults import FaultInjected, FaultyStore
from repro.storage.journal import (
    CHECKPOINT_COLLECTION,
    JOURNAL_PREFIX,
    STATE_PREFIX,
    JournalCorruption,
    copy_stream_state,
)
from test_fabric import assert_same_slices, frame_aligned_chunks

STREAM = "auburn_c"
CLASSES = ("car", "pedestrian")
KINDS = ["node", "worker"]
PAIRS = [
    ("node", "node"),
    ("worker", "worker"),
    ("node", "worker"),
    ("worker", "node"),
]


@pytest.fixture(scope="module")
def chunks(table_factory):
    return frame_aligned_chunks(table_factory(STREAM, 30.0, 10.0), pieces=6)


@contextlib.contextmanager
def legs(*kinds, stores=None):
    """One leg per kind, named ``leg-0``, ``leg-1``, ...; the worker
    ones share a supervisor whose leak check runs on the way out.
    ``stores`` seeds a leg's durable store (nothing is recovered)."""
    ids = ["leg-%d" % i for i in range(len(kinds))]
    stores = stores or {}
    worker_ids = [sid for sid, kind in zip(ids, kinds) if kind == "worker"]
    supervisor = (
        FabricSupervisor(worker_ids, stores=stores) if worker_ids else None
    )
    try:
        yield [
            supervisor.client(sid)
            if kind == "worker"
            else ShardNode(sid, store=stores.get(sid))
            for sid, kind in zip(ids, kinds)
        ]
    finally:
        if supervisor is not None:
            supervisor.shutdown()
            assert_no_leaked_segments(supervisor)


@contextlib.contextmanager
def captured_events():
    previous = default_events()
    log = set_default_events(EventLog())
    try:
        yield log
    finally:
        set_default_events(previous)


def open_live(leg, config, **kwargs):
    leg.open_stream(
        STREAM, fps=10.0, config=config, index_mode="materialized", **kwargs
    )


def assert_answers_like(leg, control):
    """Frames and returned rows bit-identical to the control's."""
    for clazz in CLASSES:
        moved, never_moved = leg.query(STREAM, clazz), control.query(STREAM, clazz)
        np.testing.assert_array_equal(moved.frames, never_moved.frames)
        np.testing.assert_array_equal(
            moved.result.returned_rows, never_moved.result.returned_rows
        )


# ---------------------------------------------------------------------------
# the contract
# ---------------------------------------------------------------------------

def protocol_members():
    return sorted(
        name
        for name in set(vars(ShardLeg)) | set(ShardLeg.__annotations__)
        if not name.startswith("_")
    )


def test_both_leg_kinds_define_every_protocol_member_alike():
    members = protocol_members()
    assert {"shard_id", "store", "append_many_submit", "ensure_alive",
            "import_stream", "finish_migration"} <= set(members)
    with legs("node", "worker") as (node, client):
        assert isinstance(node, ShardNode) and isinstance(client, ShardClient)
        for name in members:
            assert hasattr(node, name), "ShardNode lacks %s" % name
            assert hasattr(client, name), "ShardClient lacks %s" % name
            declared = getattr(ShardLeg, name, None)
            if not callable(declared):
                continue  # a data member: presence is the contract
            wanted = list(inspect.signature(declared).parameters)
            for cls in (ShardNode, ShardClient):
                have = list(inspect.signature(getattr(cls, name)).parameters)
                assert have == wanted, "%s.%s%r != ShardLeg's %r" % (
                    cls.__name__, name, have, wanted
                )
        # a live worker is alive; an in-process leg has nothing to respawn
        assert client.ensure_alive() is True
        assert node.ensure_alive() is False


# ---------------------------------------------------------------------------
# migration, every pair
# ---------------------------------------------------------------------------

def run_hops(source_kind, target_kind, chunks, config):
    """There and back again, alternating with appends, checked against
    a never-moved control after every step.  Returns the two reports
    and the events the two migrations emitted."""
    control = FocusSystem()
    control.open_stream(STREAM, fps=10.0, config=config, index_mode="materialized")
    with legs(source_kind, target_kind) as (source, target), captured_events() as log:
        open_live(source, config)
        holder, other = source, target
        reports = []
        for step, chunk in enumerate(chunks):
            holder.append(STREAM, chunk)
            control.append(STREAM, chunk)
            if step in (1, 3):
                reports.append(migrate_stream(holder, other, STREAM))
                holder, other = other, holder
                assert holder.streams() == [STREAM]
                assert other.streams() == [] and other.fenced() == [STREAM]
                assert_answers_like(holder, control)
        assert_answers_like(holder, control)
        info = holder.handle_info(STREAM)
        assert info.live and info.rows == len(control.handle(STREAM).table)
        assert info.watermark_s == control.handle(STREAM).watermark_s
        return reports, [e for e in log.events() if e["kind"].startswith("migration.")]


@pytest.fixture(scope="module")
def reference_hops(chunks, live_config):
    return run_hops("node", "node", chunks, live_config)


@pytest.mark.parametrize("source_kind,target_kind", PAIRS)
def test_migration_identical_over_every_leg_pair(
    source_kind, target_kind, chunks, live_config, reference_hops
):
    reports, events = run_hops(source_kind, target_kind, chunks, live_config)
    assert reports == reference_hops[0]  # same dataclass, every field
    there, back = reports
    assert (there.source_shard, there.target_shard) == ("leg-0", "leg-1")
    assert (back.source_shard, back.target_shard) == ("leg-1", "leg-0")
    assert there.rows < back.rows and there.fence_epoch == there.epoch + 1
    # the four documented events per migration, in order, with their fields
    assert [e["kind"] for e in events] == 2 * [
        "migration.start",
        "migration.exported",
        "migration.imported",
        "migration.finished",
    ]
    for report, (start, exported, imported, finished) in zip(
        reports, (events[:4], events[4:])
    ):
        assert start["shard"] == exported["shard"] == report.source_shard
        assert imported["shard"] == finished["shard"] == report.target_shard
        assert start["target"] == report.target_shard
        assert {e["stream"] for e in (start, exported, imported, finished)} == {STREAM}
        assert exported["epoch"] == report.epoch
        assert exported["replayed_chunks"] == report.replayed_chunks
        assert imported["rows"] == report.rows
        assert finished["fence_epoch"] == report.fence_epoch


@pytest.mark.parametrize("source_kind,target_kind", PAIRS)
def test_journal_suffix_replay_over_every_leg_pair(
    source_kind, target_kind, chunks, live_config
):
    """checkpoint=False ships the last committed epoch plus the suffix."""
    with legs(source_kind, target_kind) as (source, target):
        open_live(source, live_config)
        source.append(STREAM, chunks[0])
        source.checkpoint(streams=[STREAM])
        for chunk in chunks[1:3]:
            source.append(STREAM, chunk)
        report = migrate_stream(source, target, STREAM, checkpoint=False)
        assert (report.epoch, report.replayed_chunks) == (1, 2)


def test_copy_stream_state_ships_only_the_durable_state(chunks, live_config):
    """A migration copies the journal, the ingest state and the marker:
    an index export beside them in the source store stays behind, and
    the target recovers the same answers from the copy alone."""
    source = DocumentStore()
    system = FocusSystem()
    open_live(system, live_config, wal_store=source)
    system.append(STREAM, chunks[0])
    system.checkpoint(source)
    system.append(STREAM, chunks[1])
    system.save_indexes(source)
    target = DocumentStore()
    written = copy_stream_state(source, target, STREAM)
    assert sorted(written) == sorted(target.collection_names()) == sorted(
        [JOURNAL_PREFIX + STREAM, STATE_PREFIX + STREAM, CHECKPOINT_COLLECTION]
    )
    recovered = FocusSystem()
    assert recovered.recover(target) == [STREAM]
    assert_answers_like(recovered, system)


@pytest.mark.parametrize("kind", KINDS)
class TestGuardsOnBothKinds:
    def test_non_durable_session_refused(self, kind, live_config):
        with legs(kind, kind) as (source, target):
            open_live(source, live_config, durable=False)
            with pytest.raises(
                MigrationError,
                match="stream 'auburn_c' is not a durable live session on "
                "shard 'leg-0'",
            ):
                migrate_stream(source, target, STREAM)
            assert source.streams() == [STREAM]

    def test_target_holding_durable_state_refused(self, kind, chunks, live_config):
        # durable state for the stream in the target's store, not served
        seed = ShardNode("seed")
        open_live(seed, live_config)
        seed.append(STREAM, chunks[0])
        with legs(kind, kind, stores={"leg-1": seed.store}) as (source, target):
            open_live(source, live_config)
            source.append(STREAM, chunks[0])
            assert target.streams() == []
            with pytest.raises(
                MigrationError,
                match="target shard 'leg-1' already holds durable state for "
                "stream 'auburn_c'",
            ):
                migrate_stream(source, target, STREAM)
            assert source.streams() == [STREAM] and source.fenced() == []

    def test_same_shard_refused(self, kind, live_config):
        with legs(kind) as (only,):
            open_live(only, live_config)
            with pytest.raises(
                MigrationError,
                match="stream 'auburn_c' already lives on shard 'leg-0'",
            ):
                migrate_stream(only, only, STREAM)


@pytest.mark.parametrize("source_kind,target_kind", PAIRS)
def test_failed_recovery_onto_fenced_target_restores_its_fence(
    source_kind, target_kind, chunks, live_config, monkeypatch
):
    """The failure contract of ``import_stream``, wherever the target
    lives: migrating back onto a shard that holds a fence tombstone and
    failing during recovery wipes the copy AND puts the fence back, and
    the holder keeps serving.  (``test_fabric`` pins the in-process leg
    by stubbing ``system.recover``; a worker's system cannot be stubbed
    from here, so the copy is torn in flight instead.)"""
    import repro.fabric.migration as migration

    def torn_copy(source_store, staging, stream):
        written = copy_stream_state(source_store, staging, stream)
        journal = staging.collection(JOURNAL_PREFIX + stream)
        last = max(journal.find(), key=lambda doc: doc["seq"])
        journal.update_one(last["_id"], {"checksum": "torn"})
        return written

    with legs(source_kind, target_kind) as (first, second):
        open_live(first, live_config)
        first.append(STREAM, chunks[0])
        migrate_stream(first, second, STREAM)  # first is now fenced
        second.append(STREAM, chunks[1])
        fence = dict(first.store.collection("checkpoints").find_one({"stream": STREAM}))
        assert fence["fenced"]
        before = second.query(STREAM, "car")
        monkeypatch.setattr(migration, "copy_stream_state", torn_copy)
        with pytest.raises(JournalCorruption, match="fails its checksum"):
            migrate_stream(second, first, STREAM, checkpoint=False)
        monkeypatch.undo()
        # the fence survived (same epoch), the copy is gone, nothing serves there
        restored = first.store.collection("checkpoints").find_one({"stream": STREAM})
        assert {k: v for k, v in restored.items() if k != "_id"} == {
            k: v for k, v in fence.items() if k != "_id"
        }
        assert first.fenced() == [STREAM] and first.streams() == []
        assert JOURNAL_PREFIX + STREAM not in first.store.collection_names()
        # the holder keeps serving, unfenced, and a clean retry succeeds
        assert second.streams() == [STREAM] and second.fenced() == []
        np.testing.assert_array_equal(second.query(STREAM, "car").frames, before.frames)
        migrate_stream(second, first, STREAM)
        assert first.streams() == [STREAM] and second.fenced() == [STREAM]
        first.append(STREAM, chunks[2])


# ---------------------------------------------------------------------------
# a mixed fleet behind one router
# ---------------------------------------------------------------------------

def test_router_over_mixed_fleet_migrates_both_ways(chunks, live_config):
    control = FocusSystem()
    control.open_stream(STREAM, fps=10.0, config=live_config, index_mode="materialized")
    with legs("worker", "node") as fleet:
        router = FabricRouter(fleet)
        router.open_stream(
            STREAM, fps=10.0, config=live_config, index_mode="materialized"
        )
        seen = []
        for chunk in chunks:
            router.append(STREAM, chunk)
            control.append(STREAM, chunk)
            holder = router.placement.shard_of(STREAM)
            other = next(sid for sid in router.shard_ids() if sid != holder)
            report = router.migrate(STREAM, other)
            assert (report.source_shard, report.target_shard) == (holder, other)
            assert router.placement.shard_of(STREAM) == other
            seen.append((type(router.shard(holder)), type(router.shard(other))))
            for clazz in CLASSES:
                moved = router.query_all(clazz).slices[STREAM]
                never_moved = control.query_all(clazz).slices[STREAM]
                np.testing.assert_array_equal(moved.frames, never_moved.frames)
                np.testing.assert_array_equal(
                    moved.returned_rows, never_moved.returned_rows
                )
        assert {(ShardClient, ShardNode), (ShardNode, ShardClient)} == set(seen)


# ---------------------------------------------------------------------------
# one scatter-gather: every submitted reply is gathered, whatever fails
# ---------------------------------------------------------------------------

class _FakeLeg:
    """Just enough ``ShardLeg`` for the router's three scatter surfaces:
    holds one stream, logs every submit and gather, and fails where
    told (``fail_at`` is ``"submit"`` or ``"result"``)."""

    def __init__(self, index, log, fail_at=None, error=None):
        self.shard_id = "fake-%d" % index
        self.stream = "stream-%d" % index
        self._log, self._fail_at, self._error = log, fail_at, error

    def streams(self):
        return [self.stream]

    def ensure_alive(self, configs=None):
        return False

    def _submit(self, *args, **kwargs):
        self._log.append(("submit", self.shard_id))
        if self._fail_at == "submit":
            raise self._error
        return self

    append_many_submit = query_batch_submit = checkpoint_submit = _submit

    def result(self):
        self._log.append(("gather", self.shard_id))
        if self._fail_at == "result":
            raise self._error
        return []


SURFACES = {
    "append_many": lambda router: router.append_many(
        [(stream, object()) for stream in router.streams()]
    ),
    "query_batch": lambda router: router.query_all("car"),
    "checkpoint_streams": lambda router: router.checkpoint_streams(),
}


@pytest.mark.parametrize("surface", sorted(SURFACES))
@pytest.mark.parametrize(
    "failures",
    [
        {0: "submit"},
        {0: "result"},
        {1: "submit"},
        {2: "result"},
        {0: "result", 1: "submit", 2: "result"},
        {1: "result", 2: "submit"},
    ],
    ids=lambda failures: "+".join(
        "%d@%s" % item for item in sorted(failures.items())
    ),
)
def test_scatter_gathers_every_submitted_leg(surface, failures):
    log = []
    errors = {i: ValueError("leg %d refused" % i) for i in failures}
    fleet = [_FakeLeg(i, log, failures.get(i), errors.get(i)) for i in range(3)]
    with pytest.raises(ValueError) as raised:
        SURFACES[surface](FabricRouter(fleet))
    assert raised.value is errors[min(failures)]  # first in submission order
    ids = [leg.shard_id for leg in fleet]
    submitted = [sid for sid, at in zip(ids, map(failures.get, range(3))) if at != "submit"]
    # every leg is submitted before any is gathered; every leg whose
    # submit returned a reply is gathered exactly once, in that order
    assert log == [("submit", sid) for sid in ids] + [
        ("gather", sid) for sid in submitted
    ]


def test_application_error_outranks_a_dead_leg_except_on_checkpoint():
    """A dead leg is healable, a refused command is not: append and
    query drain, then raise the application error without touching the
    dead leg's failover; checkpoint is fail-loud about the first error."""
    for surface, wanted in [
        ("append_many", ValueError),
        ("query_batch", ValueError),
        ("checkpoint_streams", WorkerCrashed),
    ]:
        log = []
        fleet = [
            _FakeLeg(0, log, "submit", WorkerCrashed("leg 0 is dead")),
            _FakeLeg(1, log),
            _FakeLeg(2, log, "result", ValueError("leg 2 refused")),
        ]
        router = FabricRouter(fleet)
        with pytest.raises(wanted):
            SURFACES[surface](router)
        assert [sid for what, sid in log if what == "gather"] == ["fake-1", "fake-2"]
        assert router._fault_counters["retries"] == 0.0


# ---------------------------------------------------------------------------
# the wedge: an application error on one leg must not strand a sibling's reply
# ---------------------------------------------------------------------------

WEDGE_STREAMS = ("lausanne", "auburn_c")  # rendezvous: leg-0, leg-1


@pytest.fixture(scope="module")
def wedge_chunks(table_factory):
    return {
        name: frame_aligned_chunks(table_factory(name, 20.0, 10.0), pieces=4)
        for name in WEDGE_STREAMS
    }


def _loaded_router(fleet, wedge_chunks, config):
    router = FabricRouter(fleet)
    for name in WEDGE_STREAMS:
        router.open_stream(name, fps=10.0, config=config, index_mode="materialized")
    assert [router.placement.shard_of(s) for s in WEDGE_STREAMS] == ["leg-0", "leg-1"]
    router.append_many([(name, wedge_chunks[name][0]) for name in WEDGE_STREAMS])
    return router


def _refused_class(router, control, wedge_chunks):
    with pytest.raises(KeyError, match="no-such-class"):
        router.query_all("no-such-class")


def _refused_chunk(bad):
    """``append_many`` of an already-ingested chunk of ``bad`` beside the
    other stream's next chunk: the round of the healthy shard is applied
    (the control appends just that chunk)."""
    good = next(s for s in WEDGE_STREAMS if s != bad)

    def call(router, control, wedge_chunks):
        feed = {bad: wedge_chunks[bad][0], good: wedge_chunks[good][1]}
        with pytest.raises(ValueError, match="chunks must arrive in stream order"):
            router.append_many([(name, feed[name]) for name in WEDGE_STREAMS])
        control.append(good, feed[good])
        return dict(wedge_chunks, **{good: wedge_chunks[good][1:]})

    return call


def _refused_commit(router, control, wedge_chunks):
    """Strict checkpoint whose in-process leg (submitted second) cannot
    write; the worker leg's commit is acknowledged and mirrored."""
    store = router.shard("leg-1").store
    store.fail_after_writes = store.writes_applied
    with pytest.raises(FaultInjected):
        router.checkpoint_streams()
    store.fail_after_writes = None
    assert router.shard("leg-0").store.collection("checkpoints").find_one(
        {"stream": "lausanne"}
    )["epoch"] == 1


@pytest.mark.parametrize(
    "kinds,failing_call",
    [
        (("worker", "worker"), _refused_class),
        (("worker", "node"), _refused_class),
        # the refused chunk sits on the leg whose failure, at the parent,
        # left the other leg's reply behind: the first gathered of two
        # workers, the in-process leg (raising at submit) of a mixed fleet
        (("worker", "worker"), _refused_chunk("lausanne")),
        (("worker", "node"), _refused_chunk("auburn_c")),
        (("worker", "node"), _refused_commit),
    ],
    ids=["class-2w", "class-mixed", "chunk-2w", "chunk-mixed", "commit-mixed"],
)
def test_application_error_on_one_leg_wedges_no_shard(
    kinds, failing_call, wedge_chunks, live_config
):
    faulty = {}
    if failing_call is _refused_commit:
        faulty["leg-1"] = FaultyStore(DocumentStore())
    with legs(*kinds, stores=faulty) as fleet, legs(*kinds) as control_fleet:
        router = _loaded_router(fleet, wedge_chunks, live_config)
        control = _loaded_router(control_fleet, wedge_chunks, live_config)
        remaining = failing_call(router, control, wedge_chunks) or wedge_chunks
        workers = [leg for leg in fleet if isinstance(leg, ShardClient)]
        assert all(not leg._worker().pending for leg in workers)
        # every shard still serves every surface, like the control
        for name in WEDGE_STREAMS:
            assert_same_slices(
                router.query_all("car", streams=[name]),
                control.query_all("car", streams=[name]),
            )
        feed = [(name, remaining[name][1]) for name in WEDGE_STREAMS]
        assert [r.total_rows for r in router.append_many(feed)] == [
            r.total_rows for r in control.append_many(feed)
        ]
        assert router.checkpoint() == control.checkpoint() == sorted(WEDGE_STREAMS)
        assert all(not leg._worker().pending for leg in workers)
        # the mirror got every acknowledged delta: a restart recovers
        # each worker shard to the control's answers, bit for bit
        configs = {name: live_config for name in WEDGE_STREAMS}
        for leg in workers:
            leg._supervisor.restart(leg.shard_id, configs=configs)
        for clazz in CLASSES:
            assert_same_slices(router.query_all(clazz), control.query_all(clazz))
        for name in WEDGE_STREAMS:
            assert router.shard_of(name).handle_info(name) == control.shard_of(
                name
            ).handle_info(name)


def test_router_append_retried_after_a_kill_applies_at_most_once(
    chunks, live_config
):
    """``router.append`` is ``append_many`` of one chunk: killed between
    appends, the leg is healed and replayed once, never doubled."""
    control = ShardNode("control")
    open_live(control, live_config)
    with legs("worker") as (leg,):
        router = FabricRouter([leg], recover_configs={STREAM: live_config})
        router.open_stream(STREAM, fps=10.0, config=live_config, index_mode="materialized")
        for step, chunk in enumerate(chunks[:4]):
            if step in (1, 3):
                leg._supervisor.kill(leg.shard_id)
            report = router.append(STREAM, chunk)
            assert report.total_rows == control.append(STREAM, chunk).total_rows
        assert router.cost_summary()["retries"] == 2.0
        assert leg.handle_info(STREAM) == control.handle_info(STREAM)
        assert_answers_like(leg, control)


def test_checkpoint_of_a_fleet_with_no_streams_commits_nothing():
    """Like ``FocusSystem().checkpoint(store) == []``: a periodic
    checkpointer may start before the first ``open_stream``."""
    router = FabricRouter([ShardNode("leg-0"), ShardNode("leg-1")])
    assert router.checkpoint_streams() == [] and router.checkpoint() == []
    assert router.checkpoint_streams(streams=[]) == []
    with pytest.raises(KeyError, match="streams not ingested: nope, zilch"):
        router.checkpoint(streams=["zilch", "nope"])
    with pytest.raises(ValueError, match="no streams to query"):
        router.query_all("car")


# ---------------------------------------------------------------------------
# non-finite stream times (a watermark, a chunk's time_s) never reach the WAL
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def front_end(kind):
    """``(open_stream, append, state)`` of one front end; ``state()`` is
    the journal's record count plus the stream's handle summary."""
    if kind == "system":
        system, store = FocusSystem(), DocumentStore()
        view = ShardNode("view", store=store, system=system)
        yield (
            lambda **kw: system.open_stream(STREAM, wal_store=store, **kw),
            system.append,
            lambda: _state(view),
        )
        return
    with legs("node" if kind == "router" else "worker") as (leg,):
        router = FabricRouter([leg])
        yield (
            lambda **kw: router.open_stream(STREAM, **kw),
            router.append,
            lambda: _state(leg),
        )


def _state(leg):
    return len(leg.store.collection(JOURNAL_PREFIX + STREAM)), leg.handle_info(STREAM)


def _with_last_time(chunk, value):
    """``chunk`` with its last observation's ``time_s`` replaced."""
    bad = chunk.slice(0, len(chunk))
    bad.time_s = bad.time_s.copy()
    bad.time_s[-1] = value
    return bad


@pytest.mark.parametrize("kind", ["system", "router", "worker-router"])
@pytest.mark.parametrize("field", ["watermark_s", "time_s"])
@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_time_refused_before_the_wal(kind, field, bad, chunks, live_config):
    with front_end(kind) as (open_stream, append, state):
        open_stream(fps=10.0, config=live_config, index_mode="materialized")
        append(STREAM, chunks[0])
        before = state()
        with pytest.raises(ValueError, match="%s must be.* finite" % field):
            if field == "watermark_s":
                append(STREAM, chunks[1], watermark_s=bad)
            else:
                append(STREAM, _with_last_time(chunks[1], bad))
        assert state() == before  # nothing journaled, handle untouched
        # the session is unharmed: the same chunk goes in with a sane watermark
        ahead = before[1].watermark_s + 60.0
        assert append(STREAM, chunks[1], watermark_s=ahead).watermark_s == ahead


@pytest.mark.parametrize("kind", ["system", "router", "worker-router"])
@pytest.mark.parametrize("field", ["watermark_s", "time_s"])
def test_negative_time_refused_before_the_wal(kind, field, chunks, live_config):
    """Rows before time zero pass the order check on a stream's first
    chunk and a negative watermark is swallowed by a ``max``: both are
    refused like the non-finite ones -- nothing journaled, nothing
    charged, the session unharmed."""
    with front_end(kind) as (open_stream, append, state):
        open_stream(fps=10.0, config=live_config, index_mode="materialized")
        before = state()
        with pytest.raises(ValueError, match="%s must be.* non-negative" % field):
            if field == "watermark_s":
                append(STREAM, chunks[0], watermark_s=-5.0)
            else:
                append(STREAM, _with_last_time(chunks[0], -100.0))
        assert state() == before and before[1].rows == 0
        report = append(STREAM, chunks[0], watermark_s=0.0)
        assert report.watermark_s == float(chunks[0].time_s.max())


@pytest.mark.parametrize("field", ["watermark_s", "time_s"])
def test_negative_time_in_the_journal_is_refused_on_replay(field, chunks, live_config):
    """A WAL that already holds such a chunk (journaled before the
    check existed) does not replay into a wrong state."""
    store = DocumentStore()
    system = FocusSystem()
    system.open_stream(
        STREAM, fps=10.0, config=live_config, index_mode="materialized",
        wal_store=store,
    )
    journal = system.handle(STREAM).ingestor.journal
    if field == "watermark_s":
        journal.append_chunk(chunks[0], watermark_s=-5.0)
    else:
        journal.append_chunk(_with_last_time(chunks[0], -100.0))
    with pytest.raises(ValueError, match="%s must be.* non-negative" % field):
        FocusSystem().recover(store, configs={STREAM: live_config})
