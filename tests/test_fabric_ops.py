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
* codecs -- every kind of ``codec.CODECS`` round-trips, inline and
  through a shared-memory segment;
* an op outside the table is refused before anything is consumed;
* the doc's message table names exactly the table's ops.
"""

import contextlib
import inspect
import os
import re

import numpy as np
import pytest

from repro.core.metrics import SegmentMetrics
from repro.core.query import QueryResult
from repro.core.streaming import ChunkReport
from repro.core.system import QueryAnswer
from repro.fabric import FabricSupervisor, ProtocolError, ShardClient, ShardNode, codec
from repro.fabric.protocol import DEFAULT_DEADLINES, OPS, StreamHandleInfo
from repro.fabric.shard import ShardLeg
from repro.fabric.worker import _LoopHooks
from repro.serve.planner import QueryRequest
from repro.serve.service import MultiStreamAnswer, StreamCheckpoint, StreamSlice
from repro.storage.docstore import DocumentStore
from test_fabric import frame_aligned_chunks
from test_fabric_codec import _consume, _named_sink, assert_tables_equal, needs_shm
from test_fabric_legs import legs

STREAM = "auburn_c"
SUBMIT_TWINS = ("append", "query_batch", "checkpoint")


def parameters(fn):
    return list(inspect.signature(fn).parameters)


def served(op):
    """The method a row names: the loop's own, or the ShardNode's."""
    return getattr(_LoopHooks if OPS[op].loop else ShardNode, op)


# ---------------------------------------------------------------------------
# (a) parity: one row, one method, one generated stub
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op", sorted(OPS))
def test_row_names_a_served_method_and_its_codecs_resolve(op):
    row = OPS[op]
    assert row.kind in DEFAULT_DEADLINES
    owner = _LoopHooks if row.loop else ShardNode
    assert callable(getattr(owner, op, None)), (
        "row %r has no %s method" % (op, owner.__name__)
    )
    signature = inspect.signature(served(op))
    open_ended = any(
        p.kind is p.VAR_KEYWORD for p in signature.parameters.values()
    )
    for name, spec in row.args.items():
        assert open_ended or name in signature.parameters, (op, name)
        codec.wire_codec(spec)
    if row.result is not None:
        codec.wire_codec(row.result)
    assert not (row.loop and (row.readonly or row.args or row.result)), op


@pytest.mark.parametrize("op", sorted(set(OPS) - {"shutdown"}))
def test_client_stub_takes_the_served_methods_parameters(op):
    have = parameters(getattr(ShardClient, op))
    # ping is hand-kept for the one thing it adds: a per-call deadline
    extra = ["deadline_s"] if op == "ping" else []
    assert have == parameters(served(op)) + extra


def test_shutdown_is_not_a_client_verb():
    assert not hasattr(ShardClient, "shutdown")


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
    assert verbs <= set(OPS), sorted(verbs - set(OPS))
    assert not any(OPS[verb].loop for verb in verbs)


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
        assert swept["wire_bytes_received"] == after["wire_bytes_received"]
        assert swept["delta_docs_shipped"] == before["delta_docs_shipped"]
        assert store.collection_names() == names


def test_fresh_fleet_acceptance_drill():
    """``fenced`` then ``import_precheck`` on a fresh worker: the mirror
    stays empty, nothing is received, both count as readonly skips."""
    with legs("worker") as (client,):
        before = wire_ledger(client)
        assert client.fenced() == []
        client.import_precheck("x")
        after = wire_ledger(client)
        assert client.store.collection_names() == []
        assert after["wire_bytes_received"] == before["wire_bytes_received"]
        assert after["delta_docs_shipped"] == before["delta_docs_shipped"]
        assert after["delta_skipped_readonly"] == before["delta_skipped_readonly"] + 2


# ---------------------------------------------------------------------------
# (c) every codec kind round-trips, inline and through a segment
# ---------------------------------------------------------------------------

def random_result(rng):
    return QueryResult(
        class_id=int(rng.integers(0, 50)),
        token=int(rng.integers(0, 10_000)),
        candidate_clusters=[int(c) for c in rng.integers(0, 100, rng.integers(0, 8))],
        matched_clusters=[int(c) for c in rng.integers(0, 100, rng.integers(0, 8))],
        returned_rows=rng.integers(0, 10_000, rng.integers(0, 64)),
        returned_frames=rng.integers(0, 3_000, rng.integers(0, 64)),
        gt_inferences=int(rng.integers(0, 500)),
        gpu_seconds=float(rng.random()),
    )


def random_metrics(rng):
    if rng.random() < 0.25:
        return None
    true_segments = int(rng.integers(0, 20))
    returned = int(rng.integers(0, 20))
    return SegmentMetrics(
        class_id=int(rng.integers(0, 50)),
        true_segments=true_segments,
        returned_segments=returned,
        correct_segments=int(rng.integers(0, min(true_segments, returned) + 1)),
    )


def random_array(rng):
    dtype = rng.choice(["int64", "int32", "float64", "float32", "bool"])
    shape = tuple(int(n) for n in rng.integers(0, 6, rng.integers(1, 3)))
    return (rng.random(shape) * 100).astype(dtype)


def random_table(rng, table):
    """The full table, an empty slice, or a random zero-copy view."""
    pick = rng.integers(0, 4)
    if pick == 0:
        return table
    lo = int(rng.integers(0, len(table)))
    return table.slice(lo, lo if pick == 1 else int(rng.integers(lo, len(table) + 1)))


def random_request(rng):
    return QueryRequest(
        clazz=int(rng.integers(0, 50)) if rng.random() < 0.5 else "person",
        streams=None
        if rng.random() < 0.3
        else ["s%d" % i for i in range(rng.integers(1, 4))],
        kx=None if rng.random() < 0.5 else int(rng.integers(1, 10)),
        time_range=None
        if rng.random() < 0.5
        else (float(rng.random() * 10), float(10 + rng.random() * 10)),
    )


def random_answer(rng):
    return QueryAnswer(
        stream="s%d" % rng.integers(0, 9),
        class_id=int(rng.integers(0, 50)),
        class_name="class-%d" % rng.integers(0, 9),
        frames=rng.integers(0, 3_000, rng.integers(0, 40)),
        latency_seconds=float(rng.random()),
        gt_inferences=int(rng.integers(0, 100)),
        metrics=random_metrics(rng),
        result=random_result(rng),
    )


def random_multi_answer(rng):
    return MultiStreamAnswer(
        class_id=int(rng.integers(0, 50)),
        class_name="class-%d" % rng.integers(0, 9),
        slices={
            "s%d" % i: StreamSlice(
                stream="s%d" % i,
                result=random_result(rng),
                metrics=random_metrics(rng),
            )
            for i in range(int(rng.integers(1, 5)))
        },
        latency_seconds=float(rng.random()),
        gt_inferences=int(rng.integers(0, 200)),
        candidates=int(rng.integers(0, 200)),
        cache_hits=int(rng.integers(0, 200)),
        duplicates_coalesced=int(rng.integers(0, 200)),
    )


def random_report(rng):
    return ChunkReport(
        chunk_rows=int(rng.integers(0, 500)),
        total_rows=int(rng.integers(500, 5_000)),
        watermark_s=float(rng.random() * 100),
        suppressed=int(rng.integers(0, 50)),
        cnn_inferences=int(rng.integers(0, 500)),
        gpu_seconds=float(rng.random()),
        new_clusters=[int(c) for c in rng.integers(0, 30, rng.integers(0, 5))],
        grown_clusters=[int(c) for c in rng.integers(0, 30, rng.integers(0, 5))],
        dispatch=None,  # worker-local: never crosses (test_fabric_codec)
    )


def random_checkpoint(rng):
    if rng.random() < 0.5:
        return StreamCheckpoint(stream="a", epoch=int(rng.integers(0, 9)), durable=True)
    return StreamCheckpoint(
        stream="b", epoch=0, durable=False, error="boom", landed=False
    )


def random_handle_info(rng):
    return StreamHandleInfo(
        stream="auburn_c",
        live=bool(rng.random() < 0.5),
        restored=bool(rng.random() < 0.5),
        watermark_s=float(rng.random() * 100),
        rows=int(rng.integers(0, 5_000)),
        duration_s=float(rng.random() * 100),
        fps=10.0,
    )


def random_store(rng):
    store = DocumentStore()
    for name in ("checkpoints", "journal:s")[: rng.integers(1, 3)]:
        for i in range(int(rng.integers(1, 5))):
            store.collection(name).insert_one({"stream": "s", "n": i})
    return store


def random_pickled(rng):
    """A value object, ``migrate_out``'s triple, or nothing."""
    config = {"k": int(rng.integers(1, 9)), "threshold": float(rng.random())}
    return [config, (int(rng.integers(0, 9)), 2, config), None][rng.integers(0, 3)]


#: kind -> sample(rng, table); a registered kind without one fails below
SAMPLES = {
    "array": lambda rng, table: random_array(rng),
    "blob": lambda rng, table: rng.bytes(int(rng.integers(0, 4_096))),
    "table": random_table,
    "source": lambda rng, table: (
        "lausanne" if rng.random() < 0.5 else random_table(rng, table)
    ),
    "pickled": lambda rng, table: random_pickled(rng),
    "store": lambda rng, table: random_store(rng),
    "query_request": lambda rng, table: random_request(rng),
    "query_result": lambda rng, table: random_result(rng),
    "segment_metrics": lambda rng, table: random_metrics(rng),
    "query_answer": lambda rng, table: random_answer(rng),
    "multi_answer": lambda rng, table: random_multi_answer(rng),
    "chunk_report": lambda rng, table: random_report(rng),
    "stream_checkpoint": lambda rng, table: random_checkpoint(rng),
    "handle_info": lambda rng, table: random_handle_info(rng),
}


def assert_same(left, right):
    """Deep equality that knows arrays (dtype, shape, values), tables
    and stores; everything else compares by ``==`` field by field."""
    assert type(left) is type(right)
    if isinstance(left, np.ndarray):
        assert left.dtype == right.dtype and left.shape == right.shape
        assert np.array_equal(left, right)
    elif hasattr(left, "frame_idx"):
        assert_tables_equal(left, right)
    elif isinstance(left, DocumentStore):
        assert left.to_json_obj() == right.to_json_obj()
    elif isinstance(left, dict):
        assert sorted(left) == sorted(right)
        for key in left:
            assert_same(left[key], right[key])
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert_same(a, b)
    elif hasattr(left, "__dataclass_fields__"):
        for name in left.__dataclass_fields__:
            assert_same(getattr(left, name), getattr(right, name))
    else:
        assert left == right


def test_every_registered_kind_has_a_sample():
    assert set(SAMPLES) == set(codec.CODECS)


def through(transport, encode, decode, value):
    if transport == "inline":
        return decode(encode(value))
    sink = _named_sink(threshold=1)
    envelope = encode(value, sink)
    sink.seal()
    sink.close_handoff()
    return _consume(lambda reader: decode(envelope, reader))


@pytest.mark.parametrize(
    "transport", ["inline", pytest.param("shm", marks=needs_shm)]
)
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", sorted(SAMPLES))
def test_codec_kind_round_trips(kind, seed, transport, table_factory):
    rng = np.random.default_rng(1_000 * seed + sorted(SAMPLES).index(kind))
    value = SAMPLES[kind](rng, table_factory(STREAM, 20.0, 10.0))
    encode, decode = codec.wire_codec(kind)
    assert_same(value, through(transport, encode, decode, value))


@pytest.mark.parametrize(
    "transport", ["inline", pytest.param("shm", marks=needs_shm)]
)
def test_list_spec_round_trips(transport):
    rng = np.random.default_rng(7)
    answers = [random_multi_answer(rng) for _ in range(3)]
    encode, decode = codec.wire_codec("[multi_answer]")
    assert_same(answers, through(transport, encode, decode, answers))
    assert decode(encode([])) == []


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
        worker.next_corr += 1
        with pytest.raises(ProtocolError, match="unknown op"):
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
