"""A multi-stream append round: cluster halves on every usable CPU.

``FocusSystem.append_many`` (``core/streaming.push_round``) runs the
streams' pixel-diff, extraction and clustering ahead -- one share here,
each other share in a forked helper -- and applies every chunk here in
input order.  Everything below compares that path, forced onto two
workers, with the same chunks appended one by one: reports, tables,
query answers, clusterer state and checkpoint heads must be equal, in
both index modes, with and without a write-ahead journal, through
``FocusSystem``, ``ShardNode`` and an in-process ``FabricRouter``.
CI also runs this file under ``taskset -c 0``, where every round takes
the serial path unless a test forces two workers.
"""

import os
import signal
import threading

import numpy as np
import pytest

import repro.core.helpers as helpers_module
from repro.cnn.features import FeatureExtractor
from repro.cnn.zoo import cheap_cnn
from repro.core.config import FocusConfig
from repro.core.streaming import StreamIngestor, _RoundSession
from repro.core.system import FocusSystem
from repro.fabric.router import FabricRouter
from repro.fabric.shard import ShardNode
from repro.obs.events import EventLog
from repro.storage.docstore import DocumentStore
from repro.storage.faults import FaultInjected, FaultyStore
from repro.storage.journal import load_ingest_state
from repro.video.synthesis import generate_observations
from test_core_clustering import clusterer_state

FPS = 10.0
CONFIG = FocusConfig(cheap_cnn(1), k=4, cluster_threshold=0.4)
CHUNK_ROWS = 400
#: two sizeable streams: 2 285 and 1 171 rows at 120 s
PAIR = ("jacksonh", "auburn_c")
#: four streams, two per shard of ("shard-0", "shard-1"), each of at
#: least FeatureExtractor.BLOCK_ROWS rows at 200 s
FLEET = ("auburn_c", "jacksonh", "lausanne", "cnn")
CLASSES = ("car", "taxi", "bus")


def frame_chunks(table, rows=CHUNK_ROWS):
    """~``rows``-row chunks cut on frame boundaries."""
    n, frames, bounds = len(table), table.frame_idx, [0]
    while bounds[-1] < n:
        stop = min(bounds[-1] + rows, n)
        while stop < n and frames[stop] == frames[stop - 1]:
            stop += 1
        bounds.append(stop)
    return [table.slice(a, b) for a, b in zip(bounds, bounds[1:])]


def round_robin(names, seconds):
    per_stream = {n: frame_chunks(generate_observations(n, seconds, FPS)) for n in names}
    feed = []
    for i in range(max(len(c) for c in per_stream.values())):
        for name, chunks in per_stream.items():
            if i < len(chunks):
                feed.append((name, chunks[i]))
    return feed


@pytest.fixture(scope="module")
def pair_feed():
    return round_robin(PAIR, 120.0)


@pytest.fixture(scope="module")
def fleet_feed():
    return round_robin(FLEET, 200.0)


@pytest.fixture
def events(monkeypatch):
    log = EventLog()
    monkeypatch.setattr("repro.obs.events._DEFAULT", log)
    return log


@pytest.fixture
def forks(monkeypatch, events):
    """Two usable CPUs whatever the host has; every pid forked is
    recorded, and a hang -- what these tests look for -- is bounded."""
    if not hasattr(os, "fork"):
        pytest.skip("the helper path needs os.fork")
    monkeypatch.setattr(helpers_module, "usable_cpus", lambda: 2)
    forked = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(helpers_module.os, "fork", recording_fork)

    def hung(signum, frame):
        raise TimeoutError("the round is still waiting for a helper")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        yield forked
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def no_fork(monkeypatch, events):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(helpers_module.os, "fork", refuse)


def assert_reaped(forked, events):
    assert [e["pid"] for e in events.events("append.helper")] == forked
    for pid in forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# -- the state two runs must share ----------------------------------------------

def open_system(names, mode, store=None, stores=None):
    system = FocusSystem()
    for name in names:
        wal = stores[name] if stores else store
        system.open_stream(name, fps=FPS, config=CONFIG, index_mode=mode, wal_store=wal)
    return system


def one_by_one(append, feed):
    """``append(stream, chunk)`` per chunk: the reference outcomes."""
    outcomes = []
    for stream, chunk in feed:
        try:
            outcomes.append((append(stream, chunk), None))
        except Exception as exc:
            outcomes.append((None, exc))
    return outcomes


def same_outcomes(got, want):
    assert len(got) == len(want)
    for (report, error), (want_report, want_error) in zip(got, want):
        assert report == want_report
        assert type(error) is type(want_error) and str(error) == str(want_error)


def state_of(system, names, store=None):
    """Everything a live session holds that a query or a recovery reads."""
    state = {}
    for name in names:
        handle = system.handle(name)
        ingestor = handle.ingestor
        table = handle.table
        state[name] = {
            "columns": {
                col: getattr(table, col).tolist()
                for col in ("track_id", "class_id", "time_s", "frame_idx", "appearance_seed")
            },
            "duration_s": table.duration_s,
            "clusterer": clusterer_state(ingestor._clusterer),
            "snapshot": [a.tolist() for a in (
                ingestor.clusters.assignments, ingestor.clusters.seed_rows, ingestor.clusters.sizes
            )],
            "suppressed": ingestor.result.suppressed.tolist(),
            "counters": (ingestor.cnn_inferences, ingestor.ingest_gpu_seconds, ingestor.chunks_pushed),
            "answers": [system.query(name, c).frames.tolist() for c in CLASSES],
        }
    if store is not None:
        system.checkpoint(store)
        for name in names:
            state[name]["head"] = load_ingest_state(store, name)["payload"]
    return state


# -- FocusSystem ------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["lazy", "materialized"])
@pytest.mark.parametrize("wal", [False, True], ids=["memory", "wal"])
def test_round_matches_one_by_one(pair_feed, forks, events, mode, wal):
    stores = [DocumentStore() if wal else None for _ in range(2)]
    serial = open_system(PAIR, mode, stores[0])
    want = one_by_one(serial.append, pair_feed)
    system = open_system(PAIR, mode, stores[1])
    got = system.append_outcomes(pair_feed)
    assert len(forks) == 1, "the round did not fork"
    (event,) = events.events("append.helper")
    # balanced by rows: the larger stream stays here
    assert event["streams"] == ["auburn_c"] and event["exit_code"] == 0
    assert event["wall_s"] > 0 and event["maxrss_mb"] > 0 and event["minflt"] > 0
    assert not events.events("append.fallback")
    same_outcomes(got, want)
    assert state_of(system, PAIR, stores[1]) == state_of(serial, PAIR, stores[0])
    assert_reaped(forks, events)


def test_append_many_raises_the_first_error_after_every_chunk(pair_feed, forks):
    bad = list(pair_feed)
    bad.insert(3, ("nowhere", pair_feed[0][1]))
    bad.insert(5, (PAIR[1], pair_feed[0][1]))  # another stream's chunk
    serial = open_system(PAIR, "lazy")
    one_by_one(serial.append, bad)
    system = open_system(PAIR, "lazy")
    with pytest.raises(KeyError, match="nowhere"):
        system.append_many(bad)
    assert len(forks) == 1
    assert state_of(system, PAIR) == state_of(serial, PAIR)


@pytest.mark.parametrize("mode", ["lazy", "materialized"])
def test_refused_chunks_mid_round(pair_feed, forks, events, mode):
    """A chunk that push refuses is predicted refused: same error, no
    state change, and the round carries on from its prediction."""
    feed = list(pair_feed)
    big, small = PAIR
    first_big = next(c for s, c in pair_feed if s == big)
    feed.insert(4, (big, first_big))  # out of stream order by then
    feed.insert(6, (small, first_big))  # belongs to another stream
    serial = open_system(PAIR, mode)
    want = one_by_one(serial.append, feed)
    assert sum(e is not None for _, e in want) == 2
    system = open_system(PAIR, mode)
    got = system.append_outcomes(feed)
    assert len(forks) == 1 and not events.events("append.fallback")
    same_outcomes(got, want)
    assert state_of(system, PAIR) == state_of(serial, PAIR)


class OneFault(FaultyStore):
    """One injected write fault, then a healthy store again."""

    def _spend(self, op, target):
        try:
            super()._spend(op, target)
        except FaultInjected:
            self.fail_after_writes = None
            raise


@pytest.mark.parametrize("faulty", PAIR, ids=["parent-share", "helper-share"])
def test_journal_fault_mid_round(pair_feed, forks, events, faulty):
    """A journal write that raises is a chunk the prediction ran past:
    that stream finishes the round on plain push, from a clusterer put
    back at its last applied chunk -- and lands where one-by-one does."""
    def run(round_):
        stores = {name: DocumentStore() for name in PAIR}
        stores[faulty] = OneFault(stores[faulty])
        system = open_system(PAIR, "materialized", stores=stores)
        # the journal's third chunk record of the faulty stream fails
        stores[faulty].fail_after_writes = stores[faulty].writes_applied + 2
        if round_:
            outcomes = system.append_outcomes(pair_feed)
        else:
            outcomes = one_by_one(system.append, pair_feed)
        state = state_of(system, PAIR)
        for name in PAIR:
            system.checkpoint(stores[name], streams=[name])
            state[name]["head"] = load_ingest_state(stores[name], name)["payload"]
        return outcomes, state

    want, want_state = run(round_=False)
    got, got_state = run(round_=True)
    assert [type(e) for _, e in got].count(FaultInjected) == 1
    assert len(forks) == 1
    (fallback,) = events.events("append.fallback")
    assert fallback["stream"] == faulty and fallback["reason"] == "journal"
    same_outcomes(got, want)
    assert got_state == want_state
    assert_reaped(forks, events)


# -- helpers that fail ------------------------------------------------------------

def fail_in_helper(monkeypatch, fail):
    parent = os.getpid()
    real = _RoundSession.cluster_ahead

    def cluster_ahead(self):
        if os.getpid() != parent:
            fail()
        return real(self)

    monkeypatch.setattr(_RoundSession, "cluster_ahead", cluster_ahead)


def _raise():
    raise KeyError("no clustering in this helper")


@pytest.mark.parametrize(
    "fail, exit_code",
    [(_raise, 0), (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL)],
    ids=["raises", "sigkilled"],
)
def test_failed_helper_falls_back_to_serial(pair_feed, forks, events, monkeypatch, fail, exit_code):
    serial = open_system(PAIR, "materialized")
    want = one_by_one(serial.append, pair_feed)
    fail_in_helper(monkeypatch, fail)
    system = open_system(PAIR, "materialized")
    got = system.append_outcomes(pair_feed)
    (event,) = events.events("append.helper")
    assert event["exit_code"] == exit_code
    (fallback,) = events.events("append.fallback")
    assert fallback == dict(fallback, stream="auburn_c", chunk=0, reason="no prediction")
    same_outcomes(got, want)
    assert state_of(system, PAIR) == state_of(serial, PAIR)
    assert_reaped(forks, events)


# -- rounds that never fork -------------------------------------------------------

def test_one_cpu_never_forks(pair_feed, no_fork, events, monkeypatch):
    monkeypatch.setattr(helpers_module, "usable_cpus", lambda: 1)
    open_system(PAIR, "lazy").append_many(pair_feed)
    assert not events.events("append.helper")


def test_one_stream_or_a_small_share_never_forks(pair_feed, no_fork, events, monkeypatch):
    monkeypatch.setattr(helpers_module, "usable_cpus", lambda: 4)
    big, small = PAIR
    only_big = [(s, c) for s, c in pair_feed if s == big]
    open_system(PAIR, "lazy").append_many(only_big)
    # the small stream's share stays under one extraction block
    short = only_big + [(s, c) for s, c in pair_feed if s == small][:2]
    assert sum(len(c) for s, c in short if s == small) < FeatureExtractor.BLOCK_ROWS
    open_system(PAIR, "lazy").append_many(short)
    assert not events.events("append.helper")


def test_a_live_thread_keeps_the_round_in_process(pair_feed, forks, events):
    alone = open_system(PAIR, "materialized")
    alone.append_many(pair_feed)
    assert len(forks) == 1
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        threaded = open_system(PAIR, "materialized")
        threaded.append_many(pair_feed)
    finally:
        release.set()
        waiter.join()
    assert len(forks) == 1 and len(events.events("append.helper")) == 1
    assert state_of(threaded, PAIR) == state_of(alone, PAIR)


# -- the fabric ---------------------------------------------------------------------

def test_shard_node_round_matches_one_by_one(pair_feed, forks, events):
    serial, node = ShardNode("serial"), ShardNode("round")
    for shard in (serial, node):
        for name in PAIR:
            shard.open_stream(name, fps=FPS, config=CONFIG, index_mode="materialized")
    want = one_by_one(serial.append, pair_feed)
    got = node.append_many_submit(pair_feed).result()
    assert len(forks) == 1
    same_outcomes(got, want)
    assert state_of(node.system, PAIR, node.store) == state_of(serial.system, PAIR, serial.store)


@pytest.mark.parametrize("mode", ["lazy", "materialized"])
def test_router_round_matches_one_by_one(fleet_feed, forks, events, mode):
    """One leg per shard: each in-process shard forks one helper for
    its round, and the fleet ends where chunk-by-chunk appends do."""
    def fleet():
        router = FabricRouter([ShardNode("shard-0"), ShardNode("shard-1")])
        for name in FLEET:
            router.open_stream(name, fps=FPS, config=CONFIG, index_mode=mode)
        return router

    serial = fleet()
    want = [serial.append(stream, chunk) for stream, chunk in fleet_feed]
    router = fleet()
    got = router.append_many(fleet_feed)
    assert got == want
    assert len(forks) == 2
    assert sorted(s for e in events.events("append.helper") for s in e["streams"]) == [
        "auburn_c", "lausanne"
    ]
    for sid in ("shard-0", "shard-1"):
        names = router.placement.streams_on(sid)
        assert state_of(router.shard(sid).system, names, router.shard(sid).store) == state_of(
            serial.shard(sid).system, names, serial.shard(sid).store
        )
    for clazz in CLASSES:
        mine, theirs = router.query_all(clazz), serial.query_all(clazz)
        for name in FLEET:
            np.testing.assert_array_equal(
                mine.slices[name].returned_frames, theirs.slices[name].returned_frames
            )
    assert_reaped(forks, events)


def test_stream_ingestor_push_is_both_halves():
    """The cluster half alone advances only the clusterer; the apply
    half then lands where push does."""
    table = generate_observations("auburn_c", 60.0, FPS)
    pushed = StreamIngestor(CONFIG, "auburn_c", fps=FPS)
    pushed.push(table)
    split = StreamIngestor(CONFIG, "auburn_c", fps=FPS)
    (step,) = split._cluster_ahead([(table, None)])
    assert split.num_rows == 0 and split.chunks_pushed == 0
    report = split._apply_chunk(table, None, step, split._clusterer.snapshot(), True)
    assert report.total_rows == len(table)
    assert clusterer_state(split._clusterer) == clusterer_state(pushed._clusterer)
    np.testing.assert_array_equal(split.clusters.assignments, pushed.clusters.assignments)


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two usable CPUs",
)
def test_a_helper_leaves_its_parents_cpu(events):
    """A forked child starts on its parent's CPU; the helper moves off
    it, so the two run side by side from the start."""
    usable = os.sched_getaffinity(0)
    mask = helpers_module.Helper(lambda: os.sched_getaffinity(0), "test.helper", items=[]).collect()
    assert len(mask) == len(usable) - 1 and mask < usable
    assert os.sched_getaffinity(0) == usable
    (event,) = events.events("test.helper")
    assert event["exit_code"] == 0
