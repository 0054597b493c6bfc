"""Observability integration: key parity, tracing identity, stitching.

Four contracts the obs layer makes to operators:

* **Key parity** -- a shard leg answers one observability question,
  ``counters()``; its document has the same sections and keys from a
  ``ShardNode`` and from a ``ShardClient`` over the wire, every ``cost``
  key is declared in the single kind registry, and the keys survive a
  worker restart.
* **One snapshot** -- every ``FabricRouter`` surface is a view over one
  gather of those documents: one wire op per worker leg, and the
  per-shard cost breakdown is the leg's own ``cost`` section.
* **Tracing identity** -- enabling tracing (even at 100% sampling) is
  invisible to answers: bit-identical frames and segment metrics in
  both index modes and both fabric modes.
* **Stitching** -- one sampled request's spans link frontdoor ->
  router scatter -> worker dispatch across process boundaries (the
  Perfetto-export acceptance criterion, enforced in-tree).
"""

import pytest

from repro.core.costmodel import LEDGER_COUNTER_KEYS
from repro.fabric import FabricRouter, FabricSupervisor, ShardClient
from repro.fabric.protocol import FAULT_COUNTER_KEYS, WIRE_COUNTER_KEYS
from repro.fabric.shard import JOURNAL_COUNTER_KEYS
from repro.obs.metrics import counter_kinds, kind_registry
from repro.obs.trace import (
    configure_tracing,
    disable_tracing,
    get_sink,
    install_sink,
)
from repro.serve.cache import STAT_KINDS
from repro.serve.frontdoor import (
    ADMISSION_COUNTER_KEYS,
    FrontDoor,
    TenantBudget,
)
from repro.serve.planner import QueryRequest
from repro.serve.service import COUNTER_KINDS
from test_fabric import (
    FABRIC_STREAMS,
    assert_same_slices,
    build_fabric,
    frame_aligned_chunks,
)

#: every registry snapshot has exactly these sections, on every surface
SNAPSHOT_SECTIONS = {"histograms"}

#: the one per-shard document both leg kinds answer ``counters()`` with
DOCUMENT_SECTIONS = {
    "shard", "streams", "live-streams", "cost", "cache", "gpu", "metrics"
}

#: the per-shard flat keys FabricRouter.load_report promises the
#: rebalancer (docs/OBSERVABILITY.md)
LOAD_REPORT_KEYS = {
    "streams",
    "live_streams",
    "busy_gpu_seconds",
    "gpu_queue_depth",
    "dispatches",
    "dispatch_p95_s",
    "journal_appends",
    "journal_append_p95_s",
}


@pytest.fixture(scope="module")
def fabric_tables(table_factory):
    return {s: table_factory(s, 30.0, 10.0) for s in FABRIC_STREAMS}


@pytest.fixture(autouse=True)
def _no_trace_leak():
    """Tracing is process-global state: never leak it between tests."""
    yield
    disable_tracing()
    install_sink()


def build_worker_fabric(tables, config, index_mode, num_shards=2):
    supervisor = FabricSupervisor(
        ["shard-%d" % i for i in range(num_shards)]
    )
    try:
        router = FabricRouter(supervisor.clients())
        for name, table in tables.items():
            router.open_stream(
                name, fps=10.0, config=config,
                index_mode=index_mode, durable=True,
            )
            for chunk in frame_aligned_chunks(table):
                router.append(name, chunk)
    except BaseException:
        supervisor.shutdown()
        raise
    return supervisor, router


@pytest.fixture(scope="module")
def worker_fabric(fabric_tables, live_config):
    """One durable 2-worker fabric shared by the read-only parity,
    restart, and stitching tests (restart leaves it fully recovered)."""
    supervisor, router = build_worker_fabric(
        fabric_tables, live_config, "materialized"
    )
    yield supervisor, router
    supervisor.shutdown()


# ---------------------------------------------------------------------------
# key parity
# ---------------------------------------------------------------------------

class TestKeyParity:
    def test_every_published_key_is_registered(self):
        """The canonical enumeration: every counter key any surface
        publishes is declared once in the kind registry, with sum or
        gauge merge semantics."""
        assert counter_kinds() is COUNTER_KINDS  # one live registry
        for key in (
            WIRE_COUNTER_KEYS
            + FAULT_COUNTER_KEYS
            + ADMISSION_COUNTER_KEYS
            + LEDGER_COUNTER_KEYS
            + JOURNAL_COUNTER_KEYS
        ):
            assert key in COUNTER_KINDS, "unregistered counter key %r" % key
        assert set(COUNTER_KINDS.values()) <= {"sum", "gauge"}
        # cache stats live in their own namespace: level/derived kinds
        # must never leak into the counters namespace
        cache_kinds = kind_registry("cache-stats")
        assert set(STAT_KINDS) <= set(cache_kinds)
        assert not set(cache_kinds) & set(COUNTER_KINDS)

    def test_inproc_vs_worker_key_parity(
        self, fabric_tables, live_config, worker_fabric
    ):
        """A node and a client answer ``counters()`` with the same
        sections and the same keys in each: the one document every
        router surface is a view over."""
        inproc = build_fabric(fabric_tables, live_config, "materialized")
        _, remote = worker_fabric
        inproc.query_all("car")
        remote.query_all("car")

        for shard_id in inproc.shard_ids():
            nc = inproc.shard(shard_id).counters()
            cc = remote.shard(shard_id).counters()
            assert set(nc) == set(cc) == DOCUMENT_SECTIONS
            for section in ("cost", "cache", "gpu", "metrics"):
                assert set(nc[section]) == set(cc[section]), section
            # ledger categories appear as they are observed, so the
            # registry is the superset, not an exact match
            assert set(nc["cost"]) <= set(COUNTER_KINDS)
            assert set(nc["cache"]) == set(STAT_KINDS)
            assert set(nc["metrics"]) == SNAPSHOT_SECTIONS
            assert set(nc["metrics"]["histograms"]) == set(
                cc["metrics"]["histograms"]
            )

        for router in (inproc, remote):
            snap = router.metrics_snapshot(per_shard=True)
            assert set(snap) == {"total", "per_shard"}
            assert set(snap["per_shard"]) == set(router.shard_ids())
            assert set(snap["total"]) == SNAPSHOT_SECTIONS
            report = router.load_report()
            assert set(report) == set(router.shard_ids())
            for per_shard in report.values():
                assert set(per_shard) == LOAD_REPORT_KEYS
                assert all(
                    isinstance(v, float) for v in per_shard.values()
                )
        # the two modes agree on which histograms the fleet publishes
        assert set(
            inproc.metrics_snapshot()["histograms"]
        ) == set(remote.metrics_snapshot()["histograms"])

    def test_frontdoor_snapshot_keys(self, fabric_tables, live_config):
        inproc = build_fabric(fabric_tables, live_config, "materialized")
        door = FrontDoor(inproc, {"t": TenantBudget(qps=10_000.0)})
        door.query_all("t", "car")
        snap = door.metrics_snapshot()
        assert set(snap) == SNAPSHOT_SECTIONS
        assert "frontdoor.query_s" in snap["histograms"]
        # every admission counter the door publishes is registered
        counters = door.counters()
        assert counters["admission-admitted"] == 1.0
        for key in counters:
            assert key in COUNTER_KINDS


class TestRestartKeyParity:
    def test_keys_survive_worker_restart(
        self, worker_fabric, fabric_tables, live_config
    ):
        supervisor, router = worker_fabric
        router.query_all("car")  # populate the query-side ledger keys
        before = supervisor.client("shard-0").counters()
        assert set(before["cost"]) <= set(COUNTER_KINDS)

        recovered = supervisor.restart(
            "shard-0",
            configs={name: live_config for name in fabric_tables},
        )
        assert recovered  # the shard owned at least one stream
        router.query_all("car")  # replay re-ingested; re-observe queries

        after = supervisor.client("shard-0").counters()
        assert set(after) == set(before) == DOCUMENT_SECTIONS
        for section in ("cost", "cache", "gpu"):
            assert set(after[section]) == set(before[section]), section
        assert after["cost"]["worker_restarts"] >= 1.0
        assert set(after["metrics"]) == SNAPSHOT_SECTIONS
        # the fresh worker re-observes histograms as it serves: the
        # post-restart query re-populates the dispatch timings, while
        # journal.append_s waits for the next live append (recovery
        # *reads* the WAL, it never appends) -- so the name set can
        # only shrink to a subset, never grow unregistered names
        assert set(after["metrics"]["histograms"]) <= set(
            before["metrics"]["histograms"]
        )
        assert "scheduler.dispatch_s" in after["metrics"]["histograms"]
        assert set(router.cost_summary()) <= set(COUNTER_KINDS)


# ---------------------------------------------------------------------------
# one snapshot per leg
# ---------------------------------------------------------------------------

#: the six router surfaces (``cost_summary`` in both its shapes), each a
#: view over one ``counters()`` gather
ROUTER_SURFACES = {
    "cost_summary": lambda r: r.cost_summary(),
    "cost_summary(per_shard)": lambda r: r.cost_summary(per_shard=True),
    "cache_stats": lambda r: r.cache_stats(per_shard=True),
    "counters": lambda r: r.counters(),
    "metrics_snapshot": lambda r: r.metrics_snapshot(per_shard=True),
    "load_report": lambda r: r.load_report(),
    "gpu_depths": lambda r: r.gpu_depths(),
}


class TestOneSnapshot:
    def test_per_shard_cost_is_the_legs_cost_section(
        self, worker_fabric, monkeypatch
    ):
        """The router's per-shard breakdown *is* each leg's ``cost``
        section, wire and fault ledgers included (a worker leg's
        ``counters()["cost"]`` used to read zeros there)."""
        _, router = worker_fabric
        answered = {}
        leg_counters = ShardClient.counters

        def recording(client):
            answered[client.shard_id] = leg_counters(client)
            return answered[client.shard_id]

        with monkeypatch.context() as patched:
            patched.setattr(ShardClient, "counters", recording)
            per_shard = router.cost_summary(per_shard=True)["per_shard"]
        for sid in router.shard_ids():
            assert per_shard[sid] == answered[sid]["cost"]
            assert per_shard[sid]["wire_bytes_sent"] > 0
            # asking again costs wire (the observer is on the ledger);
            # nothing else in the section moves
            again = router.shard(sid).counters()["cost"]
            for key, value in per_shard[sid].items():
                if key in WIRE_COUNTER_KEYS:
                    assert again[key] >= value
                else:
                    assert again[key] == value, key

    @pytest.mark.parametrize("surface", sorted(ROUTER_SURFACES))
    def test_each_router_surface_is_one_wire_op_per_leg(
        self, worker_fabric, monkeypatch, surface
    ):
        _, router = worker_fabric
        ops = []
        call = ShardClient._call

        def counting(client, op, *args, **kwargs):
            ops.append((client.shard_id, op))
            return call(client, op, *args, **kwargs)

        monkeypatch.setattr(ShardClient, "_call", counting)
        ROUTER_SURFACES[surface](router)
        assert sorted(ops) == [(sid, "counters") for sid in router.shard_ids()]


# ---------------------------------------------------------------------------
# tracing identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("index_mode", ["lazy", "materialized"])
@pytest.mark.parametrize("fabric_mode", ["inproc", "worker"])
class TestTracingIdentity:
    def test_traced_answers_bit_identical(
        self, fabric_tables, live_config, index_mode, fabric_mode
    ):
        """Tracing at 100% sampling cannot alter an answer -- both
        index modes, both fabric modes."""
        if fabric_mode == "inproc":
            supervisor = None
            router = build_fabric(
                fabric_tables, live_config, index_mode, durable=False
            )
        else:
            supervisor, router = build_worker_fabric(
                fabric_tables, live_config, index_mode
            )
        requests = [QueryRequest("car"), QueryRequest("pedestrian")]
        try:
            disable_tracing()
            plain = [router.query_all(c) for c in ("car", "pedestrian")]
            plain += router.query_batch(requests)
            install_sink()
            configure_tracing(1.0)
            traced = [router.query_all(c) for c in ("car", "pedestrian")]
            traced += router.query_batch(requests)
            assert len(get_sink()) > 0  # tracing actually ran
        finally:
            disable_tracing()
            if supervisor is not None:
                supervisor.shutdown()
        for off, on in zip(plain, traced):
            assert_same_slices(off, on)
            assert on.class_id == off.class_id
            assert on.class_name == off.class_name


# ---------------------------------------------------------------------------
# cross-process stitching
# ---------------------------------------------------------------------------

class TestStitchedTrace:
    def test_spans_stitch_frontdoor_to_worker(self, worker_fabric):
        """One sampled request produces a connected span tree from the
        front door through the router scatter to the worker dispatch,
        spanning at least two processes."""
        _, router = worker_fabric
        door = FrontDoor(router, {"t": TenantBudget(qps=10_000.0)})
        install_sink()
        configure_tracing(1.0)
        try:
            door.query_all("t", "car")
        finally:
            disable_tracing()
        spans = get_sink().drain()

        trace_ids = {s["trace_id"] for s in spans}
        assert len(trace_ids) == 1  # one request, one trace
        by_id = {s["span_id"]: s for s in spans}
        by_name = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        for required in (
            "frontdoor:query",
            "router:query_batch",
            "router:scatter",
            "worker:query_batch",
        ):
            assert by_name.get(required), "missing span %r" % required

        (frontdoor,) = by_name["frontdoor:query"]
        assert frontdoor["parent_id"] is None
        (batch,) = by_name["router:query_batch"]
        assert batch["parent_id"] == frontdoor["span_id"]
        for scatter in by_name["router:scatter"]:
            assert scatter["parent_id"] == batch["span_id"]
        for worker in by_name["worker:query_batch"]:
            parent = by_id[worker["parent_id"]]
            assert parent["name"] == "router:scatter"
            assert worker["pid"] != parent["pid"]  # crossed the wire
