"""The op table, held to everything that reads it.

``repro.fabric.protocol.OPS`` declares each wire op once; the worker's
dispatch, the generated ``ShardClient`` methods, deadlines, the
readonly delta skip and the message table of ``docs/SHARDING.md`` are
derived from its rows.  This suite is table-driven the same way:

* parity -- a row without its ``ShardNode`` method (or a ``ShardLeg``
  verb without its row) fails here, so adding an op is exactly one row
  plus one method;
* purity -- every row flagged ``readonly`` really leaves the durable
  store alone, on both leg kinds (a readonly op ships no delta, so one
  that writes silently diverges a worker's store from its mirror);
* the wire -- an append's report leaves its GPU placement behind, the
  wire counters count the encoded payloads' inline parts, and requests
  are always inline while a bulk reply takes a segment;
* an op outside the table is refused before anything is consumed;
* the doc's message table names exactly the table's ops.
"""

import contextlib
import inspect
import os
import re
from dataclasses import replace

import pytest

from fabric_loopback import assert_no_leaked_segments
from repro.fabric import FabricSupervisor, ProtocolError, ShardClient, ShardNode, codec
from repro.fabric.protocol import DEFAULT_DEADLINES, OPS
from repro.fabric.shard import ShardLeg
from repro.fabric.shm import DEFAULT_SHM_THRESHOLD, shm_available
from repro.serve.planner import QueryRequest
from test_fabric import frame_aligned_chunks
from test_fabric_legs import legs

STREAM = "auburn_c"
SUBMIT_TWINS = ("append_many", "query_batch", "checkpoint")


def parameters(fn):
    return list(inspect.signature(fn).parameters)


def served(op):
    """The method a row names: every row is a ShardNode verb."""
    return getattr(ShardNode, op)


# ---------------------------------------------------------------------------
# (a) parity: one row, one method, one generated stub
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op", sorted(OPS))
def test_row_names_a_served_method(op):
    assert OPS[op].kind in DEFAULT_DEADLINES
    assert callable(getattr(ShardNode, op, None)), "row %r has no ShardNode method" % op


@pytest.mark.parametrize("op", sorted(OPS))
def test_client_stub_takes_the_served_methods_parameters(op):
    assert parameters(getattr(ShardClient, op)) == parameters(served(op))


@pytest.mark.parametrize("threshold", [DEFAULT_SHM_THRESHOLD, 1], ids=["default", "shm"])
def test_shutdown_sentinel_exits_every_worker(threshold, monkeypatch):
    """The goodbye is a ``None`` on the request queue, not an op: every
    worker returns from its loop (exit code 0, not a kill) without
    queuing a reply, and no segment outlives the fleet."""
    with FabricSupervisor(["w0", "w1"], shm_threshold=threshold) as supervisor:
        for client in supervisor.clients():
            client.ping()
            assert client.streams() == []
        seen = []
        stop = supervisor._stop
        monkeypatch.setattr(
            supervisor,
            "_stop",
            lambda worker: seen.append(
                (worker.process.exitcode, worker.reply_q.empty(), list(worker.pending))
            ) or stop(worker),
        )
    assert seen == [(0, True, [])] * 2
    assert_no_leaked_segments(supervisor)


@pytest.mark.parametrize("op", SUBMIT_TWINS)
def test_pipelined_twin_takes_the_node_twins_parameters(op):
    twin = op + "_submit"
    assert parameters(getattr(ShardClient, twin)) == parameters(
        getattr(ShardNode, twin)
    )


def test_every_leg_verb_that_crosses_the_wire_has_a_row():
    verbs = {
        name[: -len("_submit")] if name.endswith("_submit") else name
        for name, member in vars(ShardLeg).items()
        if callable(member) and not name.startswith("_")
    }
    # the one verb answered on the supervisor's side of the wire
    verbs.discard("ensure_alive")
    # a round is one pipelined ``append`` row per chunk on a worker leg
    verbs.discard("append_many")
    assert verbs <= set(OPS), sorted(verbs - set(OPS))


# ---------------------------------------------------------------------------
# (b) purity: a readonly row leaves the durable store alone
# ---------------------------------------------------------------------------

#: one call per readonly row (the test below fails on a row without one)
READONLY_CALLS = {
    "ping": lambda leg: leg.ping(),
    "streams": lambda leg: leg.streams(),
    "live_streams": lambda leg: leg.live_streams(),
    "fenced": lambda leg: leg.fenced(),
    "handle_info": lambda leg: leg.handle_info(STREAM),
    "counters": lambda leg: leg.counters(),
    "query": lambda leg: leg.query(STREAM, "car"),
    "query_batch": lambda leg: leg.query_batch([QueryRequest("car")]),
    "import_precheck": lambda leg: leg.import_precheck("never-seen"),
}


def test_every_readonly_row_has_a_purity_call():
    assert set(READONLY_CALLS) == {op for op, row in OPS.items() if row.readonly}


def wire_ledger(leg):
    return dict(leg._worker().wire) if isinstance(leg, ShardClient) else None


@pytest.mark.parametrize("loaded", [False, True], ids=["fresh", "loaded"])
@pytest.mark.parametrize("kind", ["node", "worker"])
@pytest.mark.parametrize("op", sorted(READONLY_CALLS))
def test_readonly_op_leaves_the_store_alone(
    op, kind, loaded, table_factory, live_config
):
    with legs(kind) as (leg,):
        if loaded:
            chunks = frame_aligned_chunks(table_factory(STREAM, 20.0, 10.0), 2)
            leg.open_stream(
                STREAM, fps=10.0, config=live_config, index_mode="materialized"
            )
            leg.append(STREAM, chunks[0])
            leg.checkpoint()
            leg.append(STREAM, chunks[1])  # a journal suffix past the marker
        store = leg.store
        names = store.collection_names()
        tokens = {name: store.collection(name).mark_delta_clean() for name in names}
        before = wire_ledger(leg)
        # a fresh shard serves no stream: its refusal is as pure as an answer
        refusals = () if loaded else (KeyError, ValueError)
        with contextlib.suppress(*refusals):
            READONLY_CALLS[op](leg)
        assert store.collection_names() == names
        for name, token in tokens.items():
            assert store.collection(name).unchanged_since(token), name
        if before is None:
            return
        after = wire_ledger(leg)
        assert after["delta_skipped_readonly"] == before["delta_skipped_readonly"] + 1
        assert after["delta_docs_shipped"] == before["delta_docs_shipped"]
        # the mirror cannot see the worker's own store: a mutating op that
        # changes nothing sweeps it, and must find nothing to ship
        assert leg.recover(streams=[]) == []
        swept = wire_ledger(leg)
        received = swept["wire_bytes_received"] - after["wire_bytes_received"]
        assert received == codec.inline_nbytes(codec.encode([]))  # no delta rode along
        assert swept["delta_docs_shipped"] == before["delta_docs_shipped"]
        assert store.collection_names() == names


def test_fresh_fleet_acceptance_drill():
    """``fenced`` then ``import_precheck`` on a fresh worker: the mirror
    stays empty, nothing but the two answers is received, both count as
    readonly skips."""
    with legs("worker") as (client,):
        before = wire_ledger(client)
        assert client.fenced() == []
        assert client.import_precheck("x") is None
        after = wire_ledger(client)
        assert client.store.collection_names() == []
        answers = codec.inline_nbytes(codec.encode([])) + codec.inline_nbytes(codec.encode(None))
        assert after["wire_bytes_received"] - before["wire_bytes_received"] == answers
        assert after["delta_docs_shipped"] == before["delta_docs_shipped"]
        assert after["delta_skipped_readonly"] == before["delta_skipped_readonly"] + 2


# ---------------------------------------------------------------------------
# (c) what crosses the wire
# ---------------------------------------------------------------------------

def test_append_report_leaves_its_gpu_placement_behind(table_factory, live_config):
    chunk = table_factory(STREAM, 20.0, 10.0).slice(0, 40)
    reports = {}
    for kind in ("node", "worker"):
        with legs(kind) as (leg,):
            leg.open_stream(STREAM, fps=10.0, config=live_config)
            reports[kind] = leg.append(STREAM, chunk)
    assert reports["node"].dispatch is not None
    assert reports["worker"].dispatch is None
    assert replace(reports["node"], dispatch=None) == reports["worker"]


#: one call per op the wire-counter test drives, on a loaded durable stream
WIRE_CALLS = {
    "streams": lambda leg, chunk, config: leg.streams(),
    "live_streams": lambda leg, chunk, config: leg.live_streams(),
    "fenced": lambda leg, chunk, config: leg.fenced(),
    "handle_info": lambda leg, chunk, config: leg.handle_info(STREAM),
    "counters": lambda leg, chunk, config: leg._call("counters", {}),
    "open_stream": lambda leg, chunk, config: leg.open_stream("jacksonh", fps=10.0, config=config),
    "append": lambda leg, chunk, config: leg.append(STREAM, chunk),
    "query": lambda leg, chunk, config: leg.query(STREAM, "car"),
    "query_batch": lambda leg, chunk, config: leg.query_batch(
        [QueryRequest("car"), QueryRequest("pedestrian", kx=2)]
    ),
    "checkpoint": lambda leg, chunk, config: leg.checkpoint(),
    "recover": lambda leg, chunk, config: leg.recover(streams=[]),
    "import_precheck": lambda leg, chunk, config: leg.import_precheck("never-seen"),
}


def queued(envelope, threshold):
    """What one encoded reply payload puts on the queue by the data
    plane's rule."""
    nbytes = codec.inline_nbytes(envelope)
    return 0 if shm_available() and nbytes >= threshold else nbytes


@pytest.mark.parametrize("threshold", [DEFAULT_SHM_THRESHOLD, 1], ids=["default", "shm"])
@pytest.mark.parametrize("op", sorted(WIRE_CALLS))
def test_wire_counters_count_each_payloads_inline_parts(
    op, threshold, table_factory, live_config, monkeypatch
):
    """``wire_bytes_sent`` is exactly the request's encoded parts (pickle
    stream and buffers, always inline; nothing for an op without
    arguments), and a readonly op's ``wire_bytes_received`` exactly its
    answer's inline parts."""
    chunks = frame_aligned_chunks(table_factory(STREAM, 20.0, 10.0), 8)
    with FabricSupervisor(["solo"], shm_threshold=threshold) as supervisor:
        client = supervisor.client("solo")
        client.open_stream(STREAM, fps=10.0, config=live_config, durable=True)
        client.append(STREAM, chunks[0])
        sent, submit = [], client._submit
        monkeypatch.setattr(
            client, "_submit", lambda *a, **kw: sent.append(a[1]) or submit(*a, **kw)
        )
        before = wire_ledger(client)
        value = WIRE_CALLS[op](client, chunks[1], live_config)
        after = wire_ledger(client)
    moved = {key: after[key] - before[key] for key in after}
    (kwargs,) = sent
    assert moved["wire_bytes_sent"] == codec.inline_nbytes(codec.encode(kwargs) if kwargs else None)
    received = queued(codec.encode(value), threshold)
    if OPS[op].readonly:
        assert moved["wire_bytes_received"] == received
    else:  # the store delta rides the same message
        assert moved["wire_bytes_received"] == 0 or moved["wire_bytes_received"] >= received
    if threshold == 1 and shm_available():
        assert moved["wire_bytes_received"] == 0
        assert moved["shm_bytes"] >= codec.inline_nbytes(codec.encode(value))


@pytest.mark.skipif(not shm_available(), reason="host cannot serve POSIX shm")
def test_requests_inline_while_a_checkpoint_reply_takes_a_segment(
    table_factory, live_config, monkeypatch
):
    """Only replies take the data plane: even at ``shm_threshold=1``
    no request carries a descriptor and ``wire_bytes_sent`` is the
    requests' encoded size, while a checkpoint's store delta still
    seals into a segment."""
    chunks = frame_aligned_chunks(table_factory(STREAM, 20.0, 10.0), 8)
    with FabricSupervisor(["solo"], shm_threshold=1) as supervisor:
        client, worker = supervisor.client("solo"), supervisor._worker("solo")
        sent, put = [], worker.request_q.put
        monkeypatch.setattr(
            worker.request_q, "put", lambda request: sent.append(request) or put(request)
        )
        client.open_stream(STREAM, fps=10.0, config=live_config, durable=True)
        client.append(STREAM, chunks[0])
        before = wire_ledger(client)
        client.checkpoint()
        after = wire_ledger(client)
    payloads = [r.payload for r in sent if r is not None and r.payload is not None]
    parts = [part for payload in payloads for part in payload["parts"]]
    assert len(payloads) >= 2 and all(isinstance(part, bytes) for part in parts)
    assert after["wire_bytes_sent"] == sum(len(part) for part in parts)
    assert after["shm_bytes"] > before["shm_bytes"]
    assert_no_leaked_segments(supervisor)


# ---------------------------------------------------------------------------
# (d) an op outside the table costs nothing
# ---------------------------------------------------------------------------

def test_unknown_op_refused_before_anything_is_consumed():
    with FabricSupervisor(["solo"]) as supervisor:
        client, worker = supervisor.client("solo"), supervisor._worker("solo")
        next_corr, wire = worker.next_corr, dict(worker.wire)
        for send in (client._submit, client._call):
            with pytest.raises(ProtocolError, match="unknown op 'no_such_op'"):
                send("no_such_op", {})
        assert worker.next_corr == next_corr
        assert not worker.pending and not worker.deadline_s
        assert worker.request_q.empty()
        assert worker.wire == wire
        client.ping()  # and the wire is as it was


def test_worker_refuses_an_op_its_table_lacks():
    """The worker's own check guards against a skewed peer, not a typo:
    a request that reaches it anyway is refused and the loop lives on."""
    from repro.fabric.protocol import Request

    with FabricSupervisor(["solo"]) as supervisor:
        client, worker = supervisor.client("solo"), supervisor._worker("solo")
        worker.request_q.put(Request(corr_id=worker.next_corr, op="no_such_op"))
        worker.pending.append(worker.next_corr)
        worker.deadline_s[worker.next_corr] = 5.0
        worker.next_corr += 1
        with pytest.raises(ProtocolError, match="unknown op"):
            client._gather(worker.next_corr - 1)
        client.ping()


def test_worker_refuses_a_request_carrying_a_descriptor():
    """Requests are always inline: the worker decodes them without a
    reader, so a payload whose parts are shm descriptors is refused
    with ``CodecError`` and the loop lives on."""
    from repro.fabric.codec import CodecError
    from repro.fabric.protocol import PROTOCOL_VERSION, Request

    descriptor = {"seg": "no-such-segment", "off": 0, "n": 1}
    payload = {"v": PROTOCOL_VERSION, "parts": [descriptor]}
    with FabricSupervisor(["solo"]) as supervisor:
        client, worker = supervisor.client("solo"), supervisor._worker("solo")
        worker.request_q.put(Request(corr_id=worker.next_corr, op="ping", payload=payload))
        worker.pending.append(worker.next_corr)
        worker.deadline_s[worker.next_corr] = 5.0
        worker.next_corr += 1
        with pytest.raises(CodecError, match="no reader"):
            client._gather(worker.next_corr - 1)
        client.ping()


# ---------------------------------------------------------------------------
# the doc is a reader of the table, not a copy
# ---------------------------------------------------------------------------

def test_sharding_doc_message_table_is_the_op_table():
    path = os.path.join(os.path.dirname(__file__), "..", "docs", "SHARDING.md")
    lines = open(path).read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| op |"))
    header = [cell.strip() for cell in lines[start].strip("|").split("|")]
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = dict(zip(header, (c.strip() for c in line.strip("|").split("|"))))
        (name,) = re.findall(r"`(\w+)`", cells["op"])
        rows[name] = cells
    assert set(rows) == set(OPS)
    for name, cells in rows.items():
        assert cells["kind"] == "`%s`" % OPS[name].kind, name
        assert (cells["readonly"] == "yes") == OPS[name].readonly, name
