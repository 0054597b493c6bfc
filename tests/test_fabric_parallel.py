"""Cross-process equivalence: worker-process fabric == in-process fabric.

The tentpole contract of the parallel mode: a :class:`FabricRouter`
over process-isolated :class:`ShardClient` workers behaves
*bit-identically* to the same router over in-process
:class:`ShardNode` shards -- every operation (open / append /
query / query_batch / checkpoint / migrate / recover), both index
modes.  The two fabrics here are fed the same streams in the same
order; each stage asserts its operation's results equal field by
field, and the serving stages additionally pin both fabrics to the
single-node reference.

The staged tests inside ``TestModeEquivalence`` run in definition
order on purpose (checkpoint feeds migrate feeds crash-recovery);
each stage documents what state it leaves behind.
"""

import numpy as np
import pytest

from repro.fabric import (
    FabricRouter,
    FabricSupervisor,
    ProtocolError,
    ShardNode,
    StreamHandleInfo,
    WorkerCrashed,
)
from repro.fabric.protocol import PROTOCOL_VERSION, Request
from repro.fabric.shard import JOURNAL_COUNTER_KEYS
from repro.serve.planner import QueryRequest
from test_fabric import (
    FABRIC_STREAMS,
    assert_same_slices,
    build_single,
    frame_aligned_chunks,
)

CLASSES = [1, 2]

CHUNK_REPORT_FIELDS = (
    "chunk_rows",
    "total_rows",
    "watermark_s",
    "suppressed",
    "cnn_inferences",
    "new_clusters",
    "grown_clusters",
)


@pytest.fixture(scope="module")
def fabric_tables(table_factory):
    return {s: table_factory(s, 30.0, 10.0) for s in FABRIC_STREAMS}


def assert_answers_equal(left, right):
    """Two QueryAnswers bit-identical (latency is wall-clock: excluded)."""
    assert left.stream == right.stream
    assert left.class_id == right.class_id
    assert left.class_name == right.class_name
    np.testing.assert_array_equal(left.frames, right.frames)
    assert left.gt_inferences == right.gt_inferences
    assert left.metrics == right.metrics
    np.testing.assert_array_equal(
        left.result.returned_rows, right.result.returned_rows
    )
    assert list(left.result.matched_clusters) == list(
        right.result.matched_clusters
    )


class _Fabrics:
    """The two fabrics under comparison + the single-node reference."""

    def __init__(self, tables, config, index_mode, supervisor):
        self.tables = tables
        self.config = config
        self.index_mode = index_mode
        self.supervisor = supervisor
        self.remote = FabricRouter(supervisor.clients())
        self.local = FabricRouter(
            [ShardNode(sid) for sid in supervisor.shard_ids()]
        )
        self.single = build_single(tables, config, index_mode)

    def open_all(self):
        infos = {}
        for name in self.tables:
            kwargs = dict(
                fps=10.0, config=self.config, index_mode=self.index_mode,
                durable=True,
            )
            remote_info = self.remote.open_stream(name, **kwargs)
            self.local.open_stream(name, **kwargs)
            infos[name] = remote_info
        return infos

    def append_all(self):
        reports = {"remote": [], "local": []}
        for name, table in self.tables.items():
            for chunk in frame_aligned_chunks(table):
                reports["remote"].append(self.remote.append(name, chunk))
                reports["local"].append(self.local.append(name, chunk))
        return reports


@pytest.fixture(scope="module", params=["lazy", "materialized"])
def fabrics(request, fabric_tables, live_config):
    """Both index modes over the shared-memory data plane forced on
    (threshold 1: every bulk payload through segments).  The inline
    fallback the wire picks on its own -- small messages, no shared
    memory on the host -- is held to the same answers by
    ``test_host_without_shm_inlines_identically``."""
    with FabricSupervisor(["shard-0", "shard-1"], shm_threshold=1) as supervisor:
        yield _Fabrics(fabric_tables, live_config, request.param, supervisor)
    assert supervisor.leaked_segments == []


class TestModeEquivalence:
    """Staged: each test builds on the previous one's state."""

    def test_open_stream_equivalent(self, fabrics):
        infos = fabrics.open_all()
        for name, remote_info in infos.items():
            assert isinstance(remote_info, StreamHandleInfo)
            local_info = fabrics.local.shard_of(name).handle_info(name)
            assert remote_info == local_info
            assert remote_info.live and not remote_info.restored
        # same placement: the routers rendezvous over the same shard ids
        assert (
            fabrics.remote.placement.assignments
            == fabrics.local.placement.assignments
        )

    def test_append_reports_equivalent(self, fabrics):
        reports = fabrics.append_all()
        assert len(reports["remote"]) == len(reports["local"])
        for remote_report, local_report in zip(
            reports["remote"], reports["local"]
        ):
            assert remote_report.dispatch is None  # worker-local, dropped
            for field in CHUNK_REPORT_FIELDS:
                assert getattr(remote_report, field) == getattr(
                    local_report, field
                ), field

    def test_query_equivalent(self, fabrics):
        for name in fabrics.tables:
            for clazz in CLASSES:
                assert_answers_equal(
                    fabrics.remote.query(name, clazz),
                    fabrics.local.query(name, clazz),
                )

    def test_query_time_range_and_kx_equivalent(self, fabrics):
        for name in fabrics.tables:
            assert_answers_equal(
                fabrics.remote.query(name, 1, kx=2, time_range=(5.0, 20.0)),
                fabrics.local.query(name, 1, kx=2, time_range=(5.0, 20.0)),
            )

    def test_query_all_matches_local_and_single(self, fabrics):
        for clazz in CLASSES:
            remote_answer = fabrics.remote.query_all(clazz)
            local_answer = fabrics.local.query_all(clazz)
            assert_same_slices(remote_answer, local_answer)
            assert_same_slices(
                remote_answer, fabrics.single.query_all(clazz)
            )
            assert remote_answer.gt_inferences == local_answer.gt_inferences
            assert remote_answer.candidates == local_answer.candidates

    def test_query_batch_equivalent(self, fabrics):
        requests = [
            QueryRequest(clazz=1),
            QueryRequest(clazz=2, streams=FABRIC_STREAMS[:2]),
            QueryRequest(clazz=1, kx=2, time_range=(0.0, 15.0)),
        ]
        remote_answers = fabrics.remote.query_batch(requests)
        local_answers = fabrics.local.query_batch(requests)
        single_answers = fabrics.single.query_batch(requests)
        for remote_answer, local_answer, single_answer in zip(
            remote_answers, local_answers, single_answers
        ):
            assert_same_slices(remote_answer, local_answer)
            assert_same_slices(remote_answer, single_answer)

    def test_observability_equivalent(self, fabrics):
        """Runs *before* the crash stages on purpose: in-memory
        counters (ledger GPU-seconds, queries-served) die with a worker
        and restart at zero -- only store-derived ones survive."""
        remote_costs = fabrics.remote.cost_summary()
        local_costs = fabrics.local.cost_summary()
        assert sorted(remote_costs) == sorted(local_costs)
        for key in ("journal-appends", "journal-records", "ingest-cnn"):
            assert remote_costs[key] == local_costs[key], key
        assert fabrics.remote.counters() == fabrics.local.counters()
        remote_cache = fabrics.remote.cache_stats()
        local_cache = fabrics.local.cache_stats()
        for key in ("hits", "misses", "size"):
            assert remote_cache[key] == local_cache[key]

    def test_checkpoint_equivalent(self, fabrics):
        """Leaves both fabrics checkpointed at epoch 1."""
        remote_outcomes = fabrics.remote.checkpoint_streams()
        local_outcomes = fabrics.local.checkpoint_streams()
        assert remote_outcomes == local_outcomes
        assert all(o.committed for o in remote_outcomes)
        # a second round advances epochs identically in both modes
        assert fabrics.remote.checkpoint() == fabrics.local.checkpoint()
        # and the WAL footprint matches shard by shard
        for sid in fabrics.remote.shard_ids():
            remote_cost = fabrics.remote.shard(sid).counters()["cost"]
            local_cost = fabrics.local.shard(sid).counters()["cost"]
            for key in JOURNAL_COUNTER_KEYS:
                assert remote_cost[key] == local_cost[key]

    def test_migrate_equivalent(self, fabrics):
        """Moves the first stream to its non-owning shard in *both*
        fabrics; they stay aligned for the stages after."""
        stream = FABRIC_STREAMS[0]
        source = fabrics.remote.placement.shard_of(stream)
        target = [
            sid for sid in fabrics.remote.shard_ids() if sid != source
        ][0]
        remote_report = fabrics.remote.migrate(stream, target)
        local_report = fabrics.local.migrate(stream, target)
        assert remote_report == local_report  # same dataclass, all fields
        assert fabrics.remote.placement.shard_of(stream) == target
        assert stream in fabrics.remote.shard(source).fenced()
        for clazz in CLASSES:
            assert_same_slices(
                fabrics.remote.query_all(clazz),
                fabrics.local.query_all(clazz),
            )

    def test_crash_recovery_equivalent(self, fabrics):
        """SIGKILL every worker, restart from mirrors, recover: the
        revived worker fabric still answers identically to the local
        fabric that never crashed."""
        for sid in fabrics.supervisor.shard_ids():
            fabrics.supervisor.kill(sid)
            assert not fabrics.supervisor.alive(sid)
        configs = {name: fabrics.config for name in fabrics.tables}
        recovered = []
        for sid in fabrics.supervisor.shard_ids():
            recovered.extend(
                fabrics.supervisor.restart(sid, configs=configs)
            )
        assert sorted(recovered) == sorted(fabrics.tables)
        for name in fabrics.tables:
            info = fabrics.remote.shard_of(name).handle_info(name)
            assert info.live
            assert info.rows == len(fabrics.tables[name])
        for clazz in CLASSES:
            assert_same_slices(
                fabrics.remote.query_all(clazz),
                fabrics.local.query_all(clazz),
            )

    def test_post_recovery_handles_equivalent(self, fabrics):
        """Recovered sessions are append-ready at the same point: the
        revived workers' handles match the never-crashed local fabric
        field by field (watermark, rows, liveness)."""
        for name in fabrics.tables:
            remote_info = fabrics.remote.shard_of(name).handle_info(name)
            local_info = fabrics.local.shard_of(name).handle_info(name)
            assert remote_info.watermark_s == local_info.watermark_s
            assert remote_info.rows == local_info.rows
            assert remote_info.live == local_info.live

    def test_post_recovery_durable_counters_survive(self, fabrics):
        """After the crash/restart stages only store-derived counters
        survive (in-memory ones restarted at zero); the durable WAL
        footprint still matches the never-crashed local fabric."""
        remote_costs = fabrics.remote.cost_summary()
        local_costs = fabrics.local.cost_summary()
        assert remote_costs["journal-records"] == local_costs["journal-records"]


def test_host_without_shm_inlines_identically(
    fabric_tables, live_config, monkeypatch
):
    """On a host that cannot serve shared memory every payload inlines
    through the queues: no segment bytes move, and appends, queries and
    checkpoints equal the in-process fabric's."""
    import repro.fabric.shm as shm_plane

    monkeypatch.setattr(shm_plane, "shm_available", lambda: False)
    with FabricSupervisor(["shard-0", "shard-1"], shm_threshold=1) as supervisor:
        fabrics = _Fabrics(fabric_tables, live_config, "materialized", supervisor)
        fabrics.open_all()
        reports = fabrics.append_all()
        for remote_report, local_report in zip(reports["remote"], reports["local"]):
            for field in CHUNK_REPORT_FIELDS:
                assert getattr(remote_report, field) == getattr(local_report, field)
        for clazz in CLASSES:
            remote_answer = fabrics.remote.query_all(clazz)
            assert_same_slices(remote_answer, fabrics.local.query_all(clazz))
            assert_same_slices(remote_answer, fabrics.single.query_all(clazz))
        assert fabrics.remote.checkpoint_streams() == fabrics.local.checkpoint_streams()
        costs = fabrics.remote.cost_summary()
        assert costs["shm_bytes"] == 0.0 and costs["wire_bytes_sent"] > 0.0
    assert supervisor.leaked_segments == []


class TestWorkerFailureModes:
    def test_dead_worker_raises_worker_crashed(self, live_config):
        with FabricSupervisor(["solo"]) as supervisor:
            client = supervisor.client("solo")
            client.ping()
            supervisor.kill("solo")
            with pytest.raises(WorkerCrashed, match="dead"):
                client.ping()

    def test_restart_without_recover_is_empty(self, table_factory, live_config):
        with FabricSupervisor(["solo"]) as supervisor:
            client = supervisor.client("solo")
            table = table_factory("auburn_c", 20.0, 10.0)
            client.open_stream(
                "auburn_c", fps=10.0, config=live_config, durable=True
            )
            client.append("auburn_c", table)
            supervisor.kill("solo")
            assert supervisor.restart("solo", recover=False) == []
            assert client.streams() == []
            # the durable state is still in the mirror: recover revives it
            assert client.recover(configs={"auburn_c": live_config}) == [
                "auburn_c"
            ]
            assert client.handle_info("auburn_c").rows == len(table)

    def test_version_mismatch_refused_by_worker(self):
        with FabricSupervisor(["solo"]) as supervisor:
            worker = supervisor._worker("solo")
            worker.request_q.put(
                Request(
                    corr_id=worker.next_corr,
                    op="ping",
                    version=PROTOCOL_VERSION + 1,
                )
            )
            worker.pending.append(worker.next_corr)
            worker.next_corr += 1
            client = supervisor.client("solo")
            with pytest.raises(ProtocolError, match="version mismatch"):
                client._gather(worker.next_corr - 1)
            client.ping()  # the worker survived the refusal

    def test_remote_errors_carry_type_and_traceback(self, live_config):
        with FabricSupervisor(["solo"]) as supervisor:
            client = supervisor.client("solo")
            with pytest.raises(KeyError) as info:
                client.query("never-opened", 1)
            assert "never-opened" in str(info.value)
            assert "Traceback" in info.value.remote_traceback

    def test_out_of_order_gather_refused(self, live_config):
        with FabricSupervisor(["solo"]) as supervisor:
            client = supervisor.client("solo")
            first = client._submit("ping", {})
            second = client._submit("ping", {})
            with pytest.raises(ProtocolError, match="submission order"):
                second.result()
            first.result()
            second.result()

    def test_duplicate_shard_ids_refused(self):
        with pytest.raises(ValueError, match="duplicate"):
            FabricSupervisor(["a", "a"])


class TestSupervisorLifecycle:
    def test_shutdown_is_idempotent_and_kills_workers(self):
        supervisor = FabricSupervisor(["a", "b"])
        processes = [
            supervisor._worker(sid).process for sid in supervisor.shard_ids()
        ]
        assert all(p.is_alive() for p in processes)
        supervisor.shutdown()
        assert not any(p.is_alive() for p in processes)
        supervisor.shutdown()  # second call is a no-op

    def test_store_mirrors_persist_across_restart(self, table_factory, live_config):
        """The mirror is the durable truth: what the worker acked is
        exactly what a restarted worker recovers from."""
        with FabricSupervisor(["solo"]) as supervisor:
            client = supervisor.client("solo")
            table = table_factory("jacksonh", 20.0, 10.0)
            client.open_stream(
                "jacksonh", fps=10.0, config=live_config, durable=True
            )
            chunks = frame_aligned_chunks(table, pieces=2)
            client.append("jacksonh", chunks[0])
            before = client.query("jacksonh", 1)
            # the acked append's WAL records are in the mirror already
            assert supervisor.store("solo").collection_names()
            supervisor.kill("solo")
            supervisor.restart("solo", configs={"jacksonh": live_config})
            after = client.query("jacksonh", 1)
            assert_answers_equal(before, after)


class TestDataPlane:
    """The zero-copy wire's own contracts: readonly replies ship no
    mirror delta, scatter rounds coalesce deltas, and the leak check
    (the module fixture asserts ``leaked_segments == []`` on top)."""

    def _loaded_solo(self, supervisor, table_factory, live_config, pieces=2):
        client = supervisor.client("solo")
        table = table_factory("jacksonh", 20.0, 10.0)
        client.open_stream(
            "jacksonh", fps=10.0, config=live_config, durable=True
        )
        return client, frame_aligned_chunks(table, pieces=pieces)

    def test_pure_query_workload_ships_zero_delta_bytes(
        self, table_factory, live_config
    ):
        """The satellite regression: a pure-query workload moves zero
        mirror-delta bytes -- no docs shipped, every command counted as
        a readonly skip, mirror bit-identical before and after."""
        with FabricSupervisor(
            ["solo"], shm_threshold=1
        ) as supervisor:
            client, chunks = self._loaded_solo(
                supervisor, table_factory, live_config
            )
            for chunk in chunks:
                client.append("jacksonh", chunk)
            mirror = supervisor.store("solo")
            def mirror_state():
                # content plus write counters: a rewrite that restored
                # the same documents would still move the counters
                return mirror.to_json_obj(), {
                    name: (c.inserts, c.updates, c.deletes)
                    for name in mirror.collection_names()
                    for c in [mirror.collection(name)]
                }

            before = mirror_state()
            baseline = client.counters()["cost"]
            queries = 0
            for _ in range(3):
                client.query("jacksonh", 1)
                client.query("jacksonh", 2, kx=2, time_range=(0.0, 10.0))
                client.handle_info("jacksonh")
                queries += 3
            after = client.counters()["cost"]
            assert (
                after["delta_docs_shipped"] == baseline["delta_docs_shipped"]
            )
            # every query + the two counters() reads counted as skips
            assert (
                after["delta_skipped_readonly"]
                >= baseline["delta_skipped_readonly"] + queries
            )
            assert mirror_state() == before
        assert supervisor.leaked_segments == []

    def test_readonly_reply_carries_no_delta_envelope(
        self, table_factory, live_config
    ):
        """Protocol-level: the raw Reply of a readonly command has
        ``store_delta is None`` -- zero bytes, not just zero docs."""
        with FabricSupervisor(["solo"]) as supervisor:
            client, chunks = self._loaded_solo(
                supervisor, table_factory, live_config
            )
            client.append("jacksonh", chunks[0])
            worker = supervisor._worker("solo")
            client._submit(
                "query",
                {
                    "stream": "jacksonh",
                    "clazz": 1,
                    "kx": None,
                    "time_range": None,
                },
            )
            reply = client._await_reply(worker)
            worker.pending.popleft()
            assert reply.ok
            assert reply.store_delta is None
            assert reply.store_drops == ()

    def test_deferred_legs_skip_delta_final_leg_ships_it(
        self, table_factory, live_config
    ):
        """A pipelined append round ships exactly one cumulative delta
        per shard: deferred legs' raw replies carry none."""
        with FabricSupervisor(["solo"]) as supervisor:
            client, chunks = self._loaded_solo(
                supervisor, table_factory, live_config, pieces=3
            )
            client.append_submit("jacksonh", chunks[0], defer_delta=True)
            client.append_submit("jacksonh", chunks[1], defer_delta=True)
            client.append_submit("jacksonh", chunks[2])
            worker = supervisor._worker("solo")
            replies = []
            for _ in range(3):
                replies.append(client._await_reply(worker))
                worker.pending.popleft()
            assert all(r.ok for r in replies)
            assert replies[0].store_delta is None
            assert replies[1].store_delta is None
            assert replies[2].store_delta is not None

    def test_append_many_round_recovers_from_coalesced_mirror(
        self, table_factory, live_config
    ):
        """End to end: after a coalesced append_many round, kill +
        restart recovers the full round from the mirror -- the one
        cumulative delta really carried every chunk's durable state."""
        tables = {s: table_factory(s, 20.0, 10.0) for s in FABRIC_STREAMS[:2]}
        with FabricSupervisor(
            ["shard-0", "shard-1"], shm_threshold=1
        ) as supervisor:
            router = FabricRouter(supervisor.clients())
            feed = []
            for name in tables:
                router.open_stream(
                    name, fps=10.0, config=live_config, durable=True
                )
                feed.extend(
                    (name, chunk)
                    for chunk in frame_aligned_chunks(tables[name], pieces=3)
                )
            router.append_many(feed)
            before = {name: router.query(name, 1) for name in tables}
            for sid in supervisor.shard_ids():
                supervisor.kill(sid)
                supervisor.restart(
                    sid, configs={name: live_config for name in tables}
                )
            for name in tables:
                assert_answers_equal(before[name], router.query(name, 1))
        assert supervisor.leaked_segments == []


def test_worker_opened_from_a_warm_config_answers_identically(table_factory):
    """A config whose model already ingested in this process pickles
    without the extractor's memo caches; the worker that receives it
    rebuilds them on demand and answers bit-identically."""
    from repro.cnn.zoo import cheap_cnn
    from repro.core.config import FocusConfig
    from repro.core.system import FocusSystem

    table = table_factory("auburn_c", 20.0, 10.0)
    config = FocusConfig(model=cheap_cnn(1), k=2, cluster_threshold=0.12)
    local = FocusSystem()
    local.open_stream(table.stream, fps=table.fps, config=config)
    local.append(table.stream, table)  # warms the config's caches
    assert config.model.feature_extractor()._track_cache
    with FabricSupervisor(["solo"]) as supervisor:
        client = supervisor.client("solo")
        client.open_stream(table.stream, fps=table.fps, config=config)
        client.append(table.stream, table)
        for clazz in CLASSES:
            assert_answers_equal(
                client.query(table.stream, clazz), local.query(table.stream, clazz)
            )
    assert supervisor.leaked_segments == []
