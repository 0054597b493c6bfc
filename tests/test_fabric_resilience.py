"""Self-healing fabric tests: deadlines, failover, retries.

Covers the robustness acceptance criteria: a stalled worker never
blocks a router call past its deadline (the client raises
:class:`DeadlineExceeded`, the worker is condemned and its orphan reply
segments unlinked at *detection* time), the router's failover restarts
crashed, hung and reply-losing workers through the mirror+WAL path
with answers bit-identical afterwards, the crash-loop breaker trips to
``FAILED`` after ``max_consecutive_failures`` and re-arms via
``reset_failed``, router retries keep queries/appends bit-identical
and at-most-once, and ``allow_partial=True`` answers name exactly the
lost shards and streams while strict mode still raises, and a fabric
refuses every call from a thread other than its owner's.  Every fabric
teardown asserts that no shm segment outlives it.

Stalls, slow workers, lost replies and crashes mid-command are events
of the loopback transport (``tests/fabric_loopback.py``), on a virtual
clock: no drill here waits out a deadline, except the one real hung
process of ``TestDeadlines``.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro.fabric import (
    DEFAULT_DEADLINES,
    FAULT_COUNTER_KEYS,
    DeadlineExceeded,
    FabricRouter,
    FabricSupervisor,
    ProtocolError,
    ShardFailed,
    ShardNode,
    WorkerCrashed,
)
from fabric_loopback import (
    LoopbackQueue,
    armed,
    assert_no_leaked_segments,
    loopback_fabric,
    process_of,
)
from repro.fabric.protocol import Reply, deadline_kind
from repro.fabric.supervisor import _Worker
from repro.serve.planner import QueryRequest
from repro.serve.service import COUNTER_KINDS
from repro.storage.docstore import DocumentStore
from test_fabric import FABRIC_STREAMS, assert_same_slices, frame_aligned_chunks
from test_fabric_parallel import assert_answers_equal

#: deadlines small enough that a stalled worker trips in test time but
#: roomy enough that honest work on a single-CPU runner never does
TIGHT = {"control": 2.0, "query": 3.0, "ingest": 5.0, "slow": 60.0}


def crash_worker(supervisor, shard_id):
    """A genuine crash: kill the process (real or loopback) out from
    under the supervisor (unlike ``supervisor.kill``, nothing is
    condemned until detected)."""
    process = supervisor._worker(shard_id).process
    process.kill()
    process.join()


def assert_no_leaked_deadlines(supervisor):
    """Every gather round must leave ``worker.deadline_s`` empty.

    An entry is registered per in-flight command and popped on *every*
    gather exit (success, condemnation, deadline kill); anything left
    once the fleet is quiescent is the PR 9 submit/gather-path leak.
    """
    for shard_id in supervisor.shard_ids():
        worker = supervisor._worker(shard_id)
        assert worker.deadline_s == {}, (
            "shard %r leaked reply-deadline entries: %r"
            % (shard_id, worker.deadline_s)
        )


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------

class TestDeadlines:
    def test_unknown_deadline_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown deadline kinds"):
            FabricSupervisor(["solo"], deadlines={"bogus": 1.0})

    def test_deadline_table(self):
        assert deadline_kind("ping") == "control"
        assert deadline_kind("query_batch") == "query"
        assert deadline_kind("append") == "ingest"
        assert deadline_kind("recover") == "slow"
        with FabricSupervisor(["solo"]) as supervisor:
            assert supervisor.deadline_for("query") == DEFAULT_DEADLINES["query"]
        with FabricSupervisor(
            ["solo"], deadlines={"query": 7.5}
        ) as supervisor:
            assert supervisor.deadline_for("query") == 7.5
            assert supervisor.deadline_for("ping") == DEFAULT_DEADLINES["control"]

    def test_stalled_worker_trips_deadline_then_heals(self, tmp_path, monkeypatch):
        """The tentpole sequence, on a real process that really hangs:
        stall -> DeadlineExceeded (well before the stall ends) ->
        condemned -> ensure_alive respawns -> healthy, with both fault
        counters visible in the leg's cost section."""
        sentinel = str(tmp_path / "hang")
        ping = ShardNode.ping

        def hanging_ping(node):
            if armed(sentinel):
                time.sleep(30.0)
            return ping(node)

        # armed before the fork: the worker inherits it, no op carries it
        monkeypatch.setattr(ShardNode, "ping", hanging_ping)
        with FabricSupervisor(
            ["solo"], deadlines={"control": 0.75}
        ) as supervisor:
            client = supervisor.client("solo")
            open(sentinel, "w").close()
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                client.ping()
            assert time.monotonic() - started < 10.0
            assert not supervisor.healthy("solo")
            assert not supervisor.alive("solo")  # killed, not just flagged
            health = supervisor.health("solo")
            assert health["state"] == "healthy"  # breaker armed, not tripped
            assert health["consecutive_failures"] == 1
            assert "deadline" in health["last_error"]
            # a condemned incarnation refuses traffic until the respawn
            with pytest.raises(WorkerCrashed):
                client.ping()
            assert supervisor.ensure_alive("solo") is True
            client.ping()
            assert supervisor.healthy("solo")
            assert supervisor.health("solo")["consecutive_failures"] == 0
            costs = client.counters()["cost"]
            assert costs["deadline_exceeded"] == 1.0
            assert costs["worker_restarts"] == 1.0

    def test_slow_worker_stays_within_deadline(self):
        """Latency injection short of the deadline is absorbed: no
        condemn, no restart, no fault counters."""
        with loopback_fabric(["solo"], deadlines={"control": 5.0}) as supervisor:
            client = supervisor.client("solo")
            process_of(supervisor, "solo").slow(0.1)
            client.ping()
            assert client.streams() == []
            assert supervisor.healthy("solo")
            costs = client.counters()["cost"]
            assert costs["deadline_exceeded"] == 0.0
            assert costs["worker_restarts"] == 0.0


# ---------------------------------------------------------------------------
# the reply/liveness race (regression)
# ---------------------------------------------------------------------------

class _RacingProcess:
    """Stub process that 'dies' with its reply still in flight: the
    liveness check itself lands the reply in the queue, modelling a
    worker whose reply was enqueued between the queue-poll timeout and
    ``is_alive`` returning False."""

    def __init__(self, reply_q, reply=None):
        self._reply_q = reply_q
        self._reply = reply
        self.exitcode = -9

    def is_alive(self):
        if self._reply is not None:
            self._reply_q.put(self._reply)
            self._reply = None
        return False

    def kill(self):
        pass

    def join(self, timeout=None):
        pass


class TestReplyLivenessRace:
    def test_reply_landing_at_death_is_drained_not_lost(self):
        with loopback_fabric(["solo"]) as supervisor:
            client = supervisor.client("solo")
            reply_q = LoopbackQueue(supervisor._ctx.clock)
            reply = Reply(corr_id=0, ok=True, value="pong")
            worker = _Worker(
                _RacingProcess(reply_q, reply), None, reply_q, DocumentStore()
            )
            worker.deadline_s[0] = 5.0
            got = client._await_reply(worker, 0)
            assert got is reply
            assert not worker.condemned  # the command was NOT lost

    def test_dead_worker_with_no_reply_is_condemned(self):
        with loopback_fabric(["solo"]) as supervisor:
            client = supervisor.client("solo")
            reply_q = LoopbackQueue(supervisor._ctx.clock)
            worker = _Worker(
                _RacingProcess(reply_q), None, reply_q, DocumentStore()
            )
            worker.deadline_s[0] = 5.0
            with pytest.raises(WorkerCrashed, match="died before replying"):
                client._await_reply(worker, 0)
            assert worker.condemned


# ---------------------------------------------------------------------------
# an idle fault heals on the next command, through the router's failover
# ---------------------------------------------------------------------------

IDLE_FAULTS = {
    # a real worker process, SIGKILLed while idle
    "crash": lambda supervisor: crash_worker(supervisor, "solo"),
    # loopback events, each landing on the next command
    "crash-before-reply": lambda supervisor: process_of(
        supervisor, "solo"
    ).crash_before_reply(),
    "crash-after-journal": lambda supervisor: process_of(
        supervisor, "solo"
    ).crash_after_journal("jacksonh"),
    "hang": lambda supervisor: process_of(supervisor, "solo").stall(30.0),
    "drop-reply": lambda supervisor: process_of(supervisor, "solo").drop_replies(1),
}

#: the routed command the fault lands on, run on a router
ROUTES = {
    "append": lambda router, chunk: router.append("jacksonh", chunk),
    "append_many": lambda router, chunk: router.append_many([("jacksonh", chunk)]),
    "query_batch": lambda router, chunk: router.query_batch(
        [QueryRequest(clazz=clazz) for clazz in (1, 2)]
    ),
    "checkpoint": lambda router, chunk: router.checkpoint(),
}
APPENDS = ("append", "append_many")

#: every fault through every route, but a WAL append only happens on
#: an appending one
IDLE_CASES = [
    (fault, route)
    for fault in sorted(IDLE_FAULTS)
    for route in sorted(ROUTES)
    if fault != "crash-after-journal" or route in APPENDS
]


def assert_same_outcome(route, got, expected):
    if route == "append":
        got, expected = [got], [expected]
    for left, right in zip(got, expected):
        if route == "query_batch":
            assert_same_slices(left, right)
        else:
            assert (left.chunk_rows, left.total_rows, left.watermark_s) == (
                right.chunk_rows, right.total_rows, right.watermark_s
            )


@pytest.mark.parametrize("index_mode", ["lazy", "materialized"])
@pytest.mark.parametrize("fault, route", IDLE_CASES)
def test_idle_fault_heals_on_the_next_routed_command(
    table_factory, live_config, index_mode, fault, route
):
    """A worker that dies, hangs or loses a reply while nobody waits on
    it is found by the next routed command (at submit, in the reply
    wait, or by the op's deadline); the router's retry respawns it from
    the mirror + WAL, and the command lands exactly once.  A checkpoint
    is fail-loud (never retried): it raises, and the command after it
    heals the shard."""
    chunks = frame_aligned_chunks(table_factory("jacksonh", 20.0, 10.0), pieces=3)
    fabric = FabricSupervisor if fault == "crash" else loopback_fabric
    with fabric(["solo"], deadlines=TIGHT) as supervisor:
        router = FabricRouter(
            supervisor.clients(), recover_configs={"jacksonh": live_config}
        )
        reference = FabricRouter([ShardNode("solo")])
        for fleet in (router, reference):
            fleet.open_stream(
                "jacksonh", fps=10.0, config=live_config,
                index_mode=index_mode, durable=True,
            )
            for chunk in chunks[:2]:
                fleet.append("jacksonh", chunk)
        IDLE_FAULTS[fault](supervisor)
        routed = ROUTES[route]
        if route == "checkpoint":
            with pytest.raises((WorkerCrashed, DeadlineExceeded)):
                routed(router, chunks[2])
        else:
            assert_same_outcome(
                route, routed(router, chunks[2]), routed(reference, chunks[2])
            )
        if route not in APPENDS:
            for fleet in (router, reference):
                fleet.append("jacksonh", chunks[2])
        for clazz in (1, 2):
            assert_answers_equal(
                router.query("jacksonh", clazz), reference.query("jacksonh", clazz)
            )
        costs = router.cost_summary()
        assert costs["retries"] == 1.0
        assert costs["worker_restarts"] == 1.0
        assert costs["deadline_exceeded"] == (
            1.0 if fault in ("hang", "drop-reply") else 0.0
        )
        assert_no_leaked_deadlines(supervisor)
    assert_no_leaked_segments(supervisor)


# ---------------------------------------------------------------------------
# crash-loop circuit breaker
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_and_rearms(self, monkeypatch):
        with FabricSupervisor(
            ["solo"],
            max_consecutive_failures=2,
            backoff_base_s=0.01,
            backoff_max_s=0.05,
        ) as supervisor:
            client = supervisor.client("solo")
            crash_worker(supervisor, "solo")
            with pytest.raises(WorkerCrashed):
                client.ping()  # detection charges failure #1
            spawn = supervisor._spawn
            monkeypatch.setattr(
                supervisor,
                "_spawn",
                lambda *a, **k: (_ for _ in ()).throw(
                    RuntimeError("spawn refused")
                ),
            )
            # failed restart is failure #2 -> the breaker trips
            with pytest.raises(ShardFailed):
                supervisor.ensure_alive("solo")
            assert supervisor.health("solo")["state"] == "failed"
            assert not supervisor.healthy("solo")
            # latched: every later attempt refuses instantly
            with pytest.raises(ShardFailed, match="reset_failed"):
                supervisor.ensure_alive("solo")
            monkeypatch.setattr(supervisor, "_spawn", spawn)
            with pytest.raises(ShardFailed):
                supervisor.ensure_alive("solo")  # cause fixed, still latched
            supervisor.reset_failed("solo")
            assert supervisor.ensure_alive("solo") is True
            client.ping()
            assert supervisor.healthy("solo")
            assert supervisor.health("solo") == {
                "state": "healthy",
                "consecutive_failures": 0,
                "last_error": None,
            }

    def test_manual_kill_does_not_charge_breaker(self):
        with FabricSupervisor(["solo"]) as supervisor:
            supervisor.kill("solo")
            assert supervisor.health("solo")["consecutive_failures"] == 0
            assert supervisor.ensure_alive("solo") is True
            supervisor.client("solo").ping()


# ---------------------------------------------------------------------------
# router retry + failover (fleet, staged like TestModeEquivalence)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="class")
def fleet(table_factory, live_config):
    """2 loopback worker shards + an in-process reference fleet, first
    half of every stream ingested; the staged tests crash/stall workers
    and append the second half under failover.  Class-scoped: the
    virtual clock stands in for the fabric's time only while it lives."""
    tables = {s: table_factory(s, 20.0, 10.0) for s in FABRIC_STREAMS}
    configs = {s: live_config for s in FABRIC_STREAMS}
    halves = {s: frame_aligned_chunks(t, pieces=2) for s, t in tables.items()}
    with loopback_fabric(["shard-0", "shard-1"], deadlines=TIGHT) as supervisor:
        remote = FabricRouter(
            supervisor.clients(), max_retries=2, recover_configs=configs
        )
        local = FabricRouter([ShardNode(sid) for sid in supervisor.shard_ids()])
        for name in sorted(tables):
            kwargs = dict(
                fps=10.0, config=live_config, index_mode="lazy", durable=True
            )
            remote.open_stream(name, **kwargs)
            local.open_stream(name, **kwargs)
            remote.append(name, halves[name][0])
            local.append(name, halves[name][0])
        yield SimpleNamespace(
            supervisor=supervisor, remote=remote, local=local, halves=halves
        )
        assert_no_leaked_deadlines(supervisor)
    assert_no_leaked_segments(supervisor)


class TestRouterFailover:
    """Staged: each test leaves the fleet healthy for the next."""

    def test_query_retried_after_crash(self, fleet):
        victim = fleet.remote.placement.shard_of("lausanne")
        crash_worker(fleet.supervisor, victim)
        assert_answers_equal(
            fleet.remote.query("lausanne", 1),
            fleet.local.query("lausanne", 1),
        )
        assert fleet.supervisor.healthy(victim)
        assert fleet.remote.cost_summary()["retries"] >= 1.0

    def test_query_batch_retried_after_stall(self, fleet):
        victim = fleet.remote.placement.shard_of("auburn_c")
        process_of(fleet.supervisor, victim).stall(30.0)
        requests = [QueryRequest(clazz=clazz) for clazz in (1, 2)]
        remote_answers = fleet.remote.query_batch(requests)
        local_answers = fleet.local.query_batch(requests)
        for remote_answer, local_answer in zip(remote_answers, local_answers):
            assert remote_answer.degraded is None
            assert not remote_answer.is_degraded
            assert_same_slices(remote_answer, local_answer)
        assert fleet.supervisor.healthy(victim)
        assert fleet.remote.cost_summary()["deadline_exceeded"] >= 1.0

    def test_append_many_replayed_after_crash(self, fleet):
        victim = fleet.remote.placement.shard_of("jacksonh")
        crash_worker(fleet.supervisor, victim)
        batch = [(name, fleet.halves[name][1]) for name in sorted(fleet.halves)]
        remote_reports = fleet.remote.append_many(batch)
        local_reports = [
            fleet.local.append(name, chunk) for name, chunk in batch
        ]
        for remote_report, local_report in zip(remote_reports, local_reports):
            assert remote_report.chunk_rows == local_report.chunk_rows
            assert remote_report.total_rows == local_report.total_rows
            assert remote_report.watermark_s == local_report.watermark_s
        for clazz in (1, 2):
            assert_same_slices(
                fleet.remote.query_all(clazz), fleet.local.query_all(clazz)
            )

    def test_fault_counters_aggregate(self, fleet):
        remote_costs = fleet.remote.cost_summary()
        local_costs = fleet.local.cost_summary()
        # key parity with the in-process fleet (observability contract)
        assert sorted(remote_costs) == sorted(local_costs)
        assert remote_costs["retries"] >= 2.0
        assert remote_costs["worker_restarts"] >= 2.0
        for key in FAULT_COUNTER_KEYS:
            assert local_costs[key] == 0.0  # nothing ever failed in-process


# ---------------------------------------------------------------------------
# at-most-once appends under retry
# ---------------------------------------------------------------------------

class TestAtMostOnceAppend:
    def test_dropped_reply_append_retries_exactly_once(
        self, table_factory, live_config
    ):
        """The worker executes the append and journals it, then the
        reply is lost: the delta never reaches the mirror, so the
        respawned worker recovers *without* it and the router's retry
        lands the chunk exactly once -- answers bit-identical to a
        reference that appended each chunk once."""
        chunks = frame_aligned_chunks(
            table_factory("jacksonh", 20.0, 10.0), pieces=4
        )
        with loopback_fabric(
            ["solo"], deadlines={"control": 5.0, "query": 10.0,
                                 "ingest": 2.0, "slow": 60.0}
        ) as supervisor:
            router = FabricRouter(
                supervisor.clients(),
                max_retries=2,
                recover_configs={"jacksonh": live_config},
            )
            reference = ShardNode("solo-ref")
            kwargs = dict(
                fps=10.0, config=live_config, index_mode="lazy", durable=True
            )
            router.open_stream("jacksonh", **kwargs)
            reference.open_stream("jacksonh", **kwargs)
            for chunk in chunks[:2]:
                router.append("jacksonh", chunk)
                reference.append("jacksonh", chunk)
            process_of(supervisor, "solo").drop_replies(1)
            report = router.append("jacksonh", chunks[2])  # retried inside
            reference_report = reference.append("jacksonh", chunks[2])
            assert report.total_rows == reference_report.total_rows
            router.append("jacksonh", chunks[3])
            reference.append("jacksonh", chunks[3])
            for clazz in (1, 2):
                assert_answers_equal(
                    router.query("jacksonh", clazz),
                    reference.query("jacksonh", clazz),
                )
            costs = router.cost_summary()
            assert costs["retries"] >= 1.0
            assert costs["deadline_exceeded"] >= 1.0
        assert_no_leaked_segments(supervisor)


# ---------------------------------------------------------------------------
# orphan reply reclamation at failure time
# ---------------------------------------------------------------------------

#: how a worker that sealed a reply is written off before the reply is
#: gathered: (arm the fault on the worker, arm the supervisor once the
#: command is submitted, what gathering it raises)
ORPHANING = {
    "stall": (lambda p: p.stall(30.0), lambda s: None, DeadlineExceeded),
    "lost-reply": (lambda p: p.drop_replies(1), lambda s: None, DeadlineExceeded),
    "crash": (lambda p: p.crash_before_reply(), lambda s: None, WorkerCrashed),
    "kill": (lambda p: p.stall(30.0), lambda s: s.kill("solo"), WorkerCrashed),
}


class TestOrphanReplyReclamation:
    @pytest.mark.parametrize("route", ORPHANING)
    def test_orphan_reply_unlinked_at_condemn_not_restart(
        self, table_factory, live_config, route
    ):
        """The worker sealed its reply into a segment nobody will
        gather: whichever way the incarnation is written off, condemning
        it unlinks the orphan by its deterministic name before any
        restart.  The append never reached the mirror, so the retry
        lands it once."""
        from multiprocessing import shared_memory

        from repro.fabric import shm as shm_plane
        from repro.fabric.worker import _reply_segment_name

        if not shm_plane.shm_available():
            pytest.skip("host cannot serve POSIX shared memory")
        fault, write_off, raised = ORPHANING[route]
        chunks = frame_aligned_chunks(
            table_factory("jacksonh", 20.0, 10.0), pieces=2
        )
        with loopback_fabric(
            ["solo"],
            shm_threshold=1,  # every reply seals into a segment
            deadlines={"control": 5.0, "query": 10.0,
                       "ingest": 2.0, "slow": 60.0},
        ) as supervisor:
            client = supervisor.client("solo")
            client.open_stream(
                "jacksonh", fps=10.0, config=live_config,
                index_mode="lazy", durable=True,
            )
            client.append("jacksonh", chunks[0])
            fault(process_of(supervisor, "solo"))
            worker = supervisor._worker("solo")
            orphan = _reply_segment_name(worker.reply_prefix, worker.next_corr)
            pending = client.append_submit("jacksonh", chunks[1])
            # sealed, and the reply never gathered
            shared_memory.SharedMemory(name=orphan).close()
            write_off(supervisor)
            with pytest.raises(raised):
                pending.result()
            # condemned -> the orphan is gone NOW, before any restart
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=orphan)
            supervisor.ensure_alive(
                "solo", configs={"jacksonh": live_config}
            )
            client.append("jacksonh", chunks[1])  # at-most-once retry
            reference = ShardNode("solo-ref")
            reference.open_stream(
                "jacksonh", fps=10.0, config=live_config,
                index_mode="lazy", durable=True,
            )
            for chunk in chunks:
                reference.append("jacksonh", chunk)
            assert_answers_equal(
                client.query("jacksonh", 1), reference.query("jacksonh", 1)
            )
        assert_no_leaked_segments(supervisor)


# ---------------------------------------------------------------------------
# degraded partial answers
# ---------------------------------------------------------------------------

class TestPartialAnswers:
    """Staged: the outage lasts until the last test heals it."""

    @pytest.fixture(scope="class")
    def outage(self, table_factory, live_config):
        """2 shards ingested, then the shard holding 'lausanne' crashed
        with retries disabled: the outage stays an outage."""
        tables = {s: table_factory(s, 20.0, 10.0) for s in FABRIC_STREAMS}
        with loopback_fabric(
            ["shard-0", "shard-1"], deadlines=TIGHT
        ) as supervisor:
            remote = FabricRouter(supervisor.clients(), max_retries=0)
            local = FabricRouter(
                [ShardNode(sid) for sid in supervisor.shard_ids()]
            )
            for name in sorted(tables):
                kwargs = dict(
                    fps=10.0, config=live_config, index_mode="lazy",
                    durable=True,
                )
                remote.open_stream(name, **kwargs)
                local.open_stream(name, **kwargs)
                for chunk in frame_aligned_chunks(tables[name], pieces=2):
                    remote.append(name, chunk)
                    local.append(name, chunk)
            victim = remote.placement.shard_of("lausanne")
            lost = sorted(remote.placement.streams_on(victim))
            surviving = sorted(set(tables) - set(lost))
            assert surviving, "placement put every stream on one shard"
            crash_worker(supervisor, victim)
            yield SimpleNamespace(
                supervisor=supervisor,
                remote=remote,
                local=local,
                victim=victim,
                lost=lost,
                surviving=surviving,
                configs={s: live_config for s in tables},
            )
        assert_no_leaked_segments(supervisor)

    def test_strict_mode_still_raises(self, outage):
        with pytest.raises((WorkerCrashed, DeadlineExceeded)):
            outage.remote.query_all(1)

    def test_partial_answer_names_exactly_the_lost_shards(self, outage):
        answer = outage.remote.query_all(1, allow_partial=True)
        assert answer.is_degraded
        assert answer.degraded.shards == (outage.victim,)
        assert answer.degraded.streams == tuple(outage.lost)
        # the surviving slices are the strict answer's, bit for bit
        reference = outage.local.query_all(1, streams=outage.surviving)
        assert sorted(answer.slices) == outage.surviving
        assert_same_slices(answer, reference)
        # cost_summary needs the whole fleet up; read the router-side
        # ledger directly while the outage is still in progress
        assert outage.remote._fault_counters["partial_answers"] >= 1.0

    def test_fully_lost_request_degrades_to_empty(self, outage):
        answer = outage.remote.query_all(
            1, streams=outage.lost, allow_partial=True
        )
        assert answer.is_degraded
        assert answer.degraded.shards == (outage.victim,)
        assert answer.degraded.streams == tuple(outage.lost)
        assert answer.slices == {}
        assert answer.class_id == 1
        assert answer.gt_inferences == 0

    def test_untouched_request_stays_whole(self, outage):
        """A batch where one request never touches the lost shard: only
        the touched request is marked degraded."""
        requests = [
            QueryRequest(clazz=1, streams=outage.surviving),
            QueryRequest(clazz=1),
        ]
        whole, touched = outage.remote.query_batch(
            requests, allow_partial=True
        )
        assert whole.degraded is None
        assert touched.degraded is not None
        assert touched.degraded.shards == (outage.victim,)

    def test_recovery_ends_degradation(self, outage):
        assert outage.supervisor.ensure_alive(
            outage.victim, configs=outage.configs
        )
        answer = outage.remote.query_all(1, allow_partial=True)
        assert answer.degraded is None
        assert_same_slices(answer, outage.local.query_all(1))


# ---------------------------------------------------------------------------
# observability parity
# ---------------------------------------------------------------------------

class TestFaultObservability:
    def test_counter_kinds_cover_fault_keys(self):
        for key in FAULT_COUNTER_KEYS:
            assert COUNTER_KINDS[key] == "sum"

    def test_in_process_shard_reports_zeroed_fault_keys(self):
        costs = ShardNode("solo").counters()["cost"]
        for key in FAULT_COUNTER_KEYS:
            assert costs[key] == 0.0


# ---------------------------------------------------------------------------
# reply-deadline map hygiene (PR 9 leak regression)
# ---------------------------------------------------------------------------

class TestDeadlineMapHygiene:
    """``worker.deadline_s`` must drain on every gather exit, not just
    the success path: a deadline kill or crash-detected-at-submit used
    to leak the in-flight entries for the incarnation's lifetime."""

    def test_map_empty_after_every_gather_round(self, table_factory, live_config):
        with loopback_fabric(["solo"], deadlines=TIGHT) as supervisor:
            client = supervisor.client("solo")
            assert_no_leaked_deadlines(supervisor)  # idle fleet
            client.streams()
            assert_no_leaked_deadlines(supervisor)  # success path

            # deadline-kill path: the stalled command's entry must die
            # with the condemned incarnation
            process_of(supervisor, "solo").stall(30.0)
            with pytest.raises(DeadlineExceeded):
                client.streams()
            assert_no_leaked_deadlines(supervisor)

            assert supervisor.ensure_alive("solo")
            assert client.streams() == []
            assert_no_leaked_deadlines(supervisor)

            # crash-found-at-submit path: nothing may be registered for
            # a command that never reached the queue
            crash_worker(supervisor, "solo")
            with pytest.raises(WorkerCrashed):
                client.streams()
            assert_no_leaked_deadlines(supervisor)
        assert_no_leaked_segments(supervisor)


# ---------------------------------------------------------------------------
# one thread drives a fabric
# ---------------------------------------------------------------------------

def test_a_second_thread_is_refused_before_it_touches_a_worker():
    owner = repr(threading.current_thread().name)
    with FabricSupervisor(["solo"]) as supervisor, ThreadPoolExecutor(1, "intruder") as pool:
        client, worker = supervisor.client("solo"), supervisor._worker("solo")
        pending = client._submit("ping", {})
        state = lambda: (  # noqa: E731
            worker.next_corr, list(worker.pending), dict(worker.deadline_s), dict(worker.wire)
        )
        before = state()
        for call in (client.streams, lambda: supervisor.ensure_alive("solo"), pending.result):
            refusal = pool.submit(call).exception()
            assert isinstance(refusal, ProtocolError), refusal
            assert "'intruder_0'" in str(refusal) and owner in str(refusal)
        assert state() == before
        assert pending.result() is None  # the owner's round is intact
        assert client.streams() == []
    assert_no_leaked_segments(supervisor)
