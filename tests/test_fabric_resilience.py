"""Self-healing fabric tests (PR 8): deadlines, watchdog, retries.

Covers the robustness acceptance criteria: an ``inject_stall``'d
worker never blocks a router call past its deadline (the client
raises :class:`DeadlineExceeded`, the worker is condemned and its shm
leases reclaimed at *detection* time), the watchdog auto-restarts both
crashed and hung workers through the mirror+WAL path with answers
bit-identical afterwards, the crash-loop breaker trips to ``FAILED``
after ``max_consecutive_failures`` and re-arms via ``reset_failed``,
router retries keep queries/appends bit-identical and at-most-once,
and ``allow_partial=True`` answers name exactly the lost shards and
streams while strict mode still raises.  Every fabric teardown asserts
zero leaked shm segments.
"""

import queue as pyqueue
import time
from types import SimpleNamespace

import pytest

from repro.fabric import (
    DEFAULT_DEADLINES,
    FAULT_COUNTER_KEYS,
    DeadlineExceeded,
    FabricRouter,
    FabricSupervisor,
    ShardFailed,
    ShardNode,
    WorkerCrashed,
)
from repro.fabric.protocol import Reply, deadline_kind
from repro.fabric.worker import _Worker
from repro.serve.planner import QueryRequest
from repro.serve.service import COUNTER_KINDS
from repro.storage.docstore import DocumentStore
from test_fabric import FABRIC_STREAMS, assert_same_slices, frame_aligned_chunks
from test_fabric_parallel import assert_answers_equal

#: deadlines small enough that a stalled worker trips in test time but
#: roomy enough that honest work on a single-CPU runner never does
TIGHT = {"control": 2.0, "query": 3.0, "ingest": 5.0, "slow": 60.0}


def wait_until(predicate, timeout_s=30.0, interval_s=0.05, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    raise AssertionError("timed out waiting for %s" % what)


def crash_worker(supervisor, shard_id):
    """A genuine crash: kill the process out from under the supervisor
    (unlike ``supervisor.kill``, nothing is condemned until detected)."""
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

    def test_stalled_worker_trips_deadline_then_heals(self):
        """The tentpole sequence: stall -> DeadlineExceeded (well before
        the stall ends) -> condemned -> ensure_alive respawns -> healthy,
        with both fault counters visible in the leg's cost section."""
        with FabricSupervisor(
            ["solo"], deadlines={"control": 0.75}
        ) as supervisor:
            client = supervisor.client("solo")
            client.inject_stall(30.0)
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

    def test_per_call_deadline_override(self):
        with FabricSupervisor(["solo"]) as supervisor:
            client = supervisor.client("solo")
            client.inject_stall(30.0)
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                client.ping(deadline_s=0.5)  # default control budget is 30s
            assert time.monotonic() - started < 10.0

    def test_slow_worker_stays_within_deadline(self):
        """Latency injection short of the deadline is absorbed: no
        condemn, no restart, no fault counters."""
        with FabricSupervisor(
            ["solo"], deadlines={"control": 5.0}
        ) as supervisor:
            client = supervisor.client("solo")
            client.inject_slow(0.1)
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
        with FabricSupervisor(["solo"]) as supervisor:
            client = supervisor.client("solo")
            reply_q = pyqueue.Queue()
            reply = Reply(corr_id=0, ok=True, value="pong")
            worker = _Worker(
                _RacingProcess(reply_q, reply), None, reply_q, DocumentStore()
            )
            got = client._await_reply(worker)
            assert got is reply
            assert not worker.condemned  # the command was NOT lost

    def test_dead_worker_with_no_reply_is_condemned(self):
        with FabricSupervisor(["solo"]) as supervisor:
            client = supervisor.client("solo")
            worker = _Worker(
                _RacingProcess(pyqueue.Queue()), None, pyqueue.Queue(),
                DocumentStore(),
            )
            with pytest.raises(WorkerCrashed, match="died before replying"):
                client._await_reply(worker)
            assert worker.condemned


# ---------------------------------------------------------------------------
# watchdog auto-restart
# ---------------------------------------------------------------------------

class TestWatchdog:
    @pytest.fixture()
    def solo(self, table_factory, live_config, index_mode):
        table = table_factory("jacksonh", 20.0, 10.0)
        chunks = frame_aligned_chunks(table, pieces=2)
        with FabricSupervisor(["solo"], deadlines=TIGHT) as supervisor:
            client = supervisor.client("solo")
            reference = ShardNode("solo-ref")
            for node in (client, reference):
                node.open_stream(
                    "jacksonh", fps=10.0, config=live_config,
                    index_mode=index_mode, durable=True,
                )
                for chunk in chunks:
                    node.append("jacksonh", chunk)
            yield SimpleNamespace(
                supervisor=supervisor,
                client=client,
                reference=reference,
                configs={"jacksonh": live_config},
            )
            supervisor.stop_watchdog()
            assert_no_leaked_deadlines(supervisor)
        assert supervisor.leaked_segments == []

    @pytest.mark.parametrize("index_mode", ["lazy", "materialized"])
    def test_restarts_crashed_worker(self, solo, index_mode):
        crash_worker(solo.supervisor, "solo")
        watchdog = solo.supervisor.start_watchdog(
            interval_s=0.1, configs=solo.configs
        )
        wait_until(
            lambda: watchdog.restarts >= 1 and solo.supervisor.healthy("solo"),
            what="watchdog restart after crash",
        )
        for clazz in (1, 2):
            assert_answers_equal(
                solo.client.query("jacksonh", clazz),
                solo.reference.query("jacksonh", clazz),
            )

    @pytest.mark.parametrize("index_mode", ["lazy"])
    def test_restarts_hung_worker_via_heartbeat(self, solo, index_mode):
        """A worker hung *between* commands (nobody waiting on it) is
        caught by the watchdog's own heartbeat deadline."""
        solo.client.inject_stall(30.0)  # the next op -- the heartbeat
        solo.supervisor.start_watchdog(
            interval_s=0.1, heartbeat_deadline_s=0.5, configs=solo.configs
        )
        wait_until(
            lambda: solo.client._worker().faults["worker_restarts"] >= 1.0
            and solo.supervisor.healthy("solo"),
            what="watchdog restart of hung worker",
        )
        assert_answers_equal(
            solo.client.query("jacksonh", 1),
            solo.reference.query("jacksonh", 1),
        )
        assert solo.client.counters()["cost"]["deadline_exceeded"] >= 1.0

    @pytest.mark.parametrize("index_mode", ["lazy"])
    def test_start_watchdog_idempotent(self, solo, index_mode):
        first = solo.supervisor.start_watchdog(interval_s=0.2)
        assert solo.supervisor.start_watchdog(interval_s=0.2) is first
        solo.supervisor.stop_watchdog()
        assert solo.supervisor.start_watchdog(interval_s=0.2) is not first


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

@pytest.fixture(scope="module")
def fleet(table_factory, live_config):
    """2 worker shards + an in-process reference fleet, first half of
    every stream ingested; the staged tests crash/stall workers and
    append the second half under failover."""
    tables = {s: table_factory(s, 20.0, 10.0) for s in FABRIC_STREAMS}
    configs = {s: live_config for s in FABRIC_STREAMS}
    halves = {s: frame_aligned_chunks(t, pieces=2) for s, t in tables.items()}
    with FabricSupervisor(
        ["shard-0", "shard-1"], deadlines=TIGHT
    ) as supervisor:
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
        supervisor.stop_watchdog()
        assert_no_leaked_deadlines(supervisor)
    assert supervisor.leaked_segments == []


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
        fleet.supervisor.client(victim).inject_stall(30.0)
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
        reply is swallowed: the delta never reaches the mirror, so the
        respawned worker recovers *without* it and the router's retry
        lands the chunk exactly once -- answers bit-identical to a
        reference that appended each chunk once."""
        chunks = frame_aligned_chunks(
            table_factory("jacksonh", 20.0, 10.0), pieces=4
        )
        with FabricSupervisor(
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
            supervisor.client("solo").inject_drop_reply(1)
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
        assert supervisor.leaked_segments == []


# ---------------------------------------------------------------------------
# shm lease reclamation at failure time
# ---------------------------------------------------------------------------

class TestLeaseReclamation:
    def test_leases_reclaimed_at_condemn_not_restart(
        self, table_factory, live_config
    ):
        chunks = frame_aligned_chunks(
            table_factory("jacksonh", 20.0, 10.0), pieces=2
        )
        with FabricSupervisor(
            ["solo"],
            shm_threshold=1,  # every bulk payload leases a segment
            deadlines={"control": 5.0, "query": 10.0,
                       "ingest": 2.0, "slow": 60.0},
        ) as supervisor:
            if supervisor._pool is None:
                pytest.skip("host cannot serve POSIX shared memory")
            client = supervisor.client("solo")
            client.open_stream(
                "jacksonh", fps=10.0, config=live_config,
                index_mode="lazy", durable=True,
            )
            client.append("jacksonh", chunks[0])
            client.inject_stall(30.0)
            with pytest.raises(DeadlineExceeded):
                client.append("jacksonh", chunks[1])
            # condemned -> leases back in the pool NOW, before any restart
            assert supervisor._pool.leased_names() == []
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
            assert supervisor._pool.leased_names() == []
        assert supervisor.leaked_segments == []


# ---------------------------------------------------------------------------
# degraded partial answers
# ---------------------------------------------------------------------------

class TestPartialAnswers:
    @pytest.fixture()
    def outage(self, table_factory, live_config):
        """2 shards ingested, then the shard holding 'lausanne' crashed
        with retries disabled: the outage stays an outage."""
        tables = {s: table_factory(s, 20.0, 10.0) for s in FABRIC_STREAMS}
        with FabricSupervisor(
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
        assert supervisor.leaked_segments == []

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
        with FabricSupervisor(["solo"], deadlines=TIGHT) as supervisor:
            client = supervisor.client("solo")
            assert_no_leaked_deadlines(supervisor)  # idle fleet
            client.streams()
            assert_no_leaked_deadlines(supervisor)  # success path

            # deadline-kill path: the stalled command's entry must die
            # with the condemned incarnation
            client.inject_stall(30.0)
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
        assert supervisor.leaked_segments == []
