"""The loopback transport is pinned to the real wire.

The fault drills run on ``tests/fabric_loopback.py``: the worker's own
``serve_one`` step, served in this process on a virtual clock.  A drill
that passes there proves something about the fabric only while the
loopback moves exactly what a forked worker moves, so one op script
runs over both and everything the client can observe must agree:
answers, the wire ledger, the mirror, the worker's spans, and the
segments left behind -- which the teardown leak check, itself checked
here, would see.
"""

import os

import pytest

from fabric_loopback import assert_no_leaked_segments, loopback_fabric
from repro.fabric import FabricSupervisor
from repro.fabric.protocol import WIRE_COUNTER_KEYS
from repro.fabric.shm import DEFAULT_SHM_THRESHOLD, create_segment, shm_available
from repro.obs.trace import SpanSink, get_sink, install_sink
from repro.serve.planner import QueryRequest
from test_fabric import assert_same_slices, frame_aligned_chunks

STREAM = "auburn_c"


def run_script(supervisor, chunks, config):
    """open, append x3, a pipelined round, a traced query_batch,
    checkpoint, counters; returns what each step answered."""
    client = supervisor.client("solo")
    out = {
        "open": client.open_stream(STREAM, fps=10.0, config=config, durable=True),
        "append": [client.append(STREAM, chunk) for chunk in chunks[:3]],
    }
    pending = [
        client.append_submit(STREAM, chunks[3], defer_delta=True),
        client.append_submit(STREAM, chunks[4]),
    ]
    out["pipelined"] = [reply.result() for reply in pending]
    ctx = {"trace_id": "pinned", "parent_id": None}
    previous = get_sink()
    sink = install_sink(SpanSink())
    try:
        out["query_batch"] = client.query_batch(
            [QueryRequest("car", trace=ctx), QueryRequest("pedestrian", kx=2, trace=ctx)]
        )
    finally:
        install_sink(previous)
    out["spans"] = sorted(s["name"] for s in sink.spans())
    out["checkpoint"] = client.checkpoint()
    # before ``counters``, whose answer carries wall-clock histograms:
    # their pickled size moves with the timings
    out["wire"] = dict(supervisor._worker("solo").wire)
    out["counters"] = client.counters()
    out["mirror"] = client.store.to_json_obj()
    return out


@pytest.mark.parametrize("threshold", [DEFAULT_SHM_THRESHOLD, 1], ids=["default", "shm"])
def test_loopback_leg_matches_a_real_worker_leg(threshold, table_factory, live_config):
    chunks = frame_aligned_chunks(table_factory(STREAM, 20.0, 10.0), 5)
    runs = {}
    for kind, fabric in (("real", FabricSupervisor), ("loopback", loopback_fabric)):
        with fabric(["solo"], shm_threshold=threshold) as supervisor:
            runs[kind] = run_script(supervisor, chunks, live_config)
        assert_no_leaked_segments(supervisor)
    real, loop = runs["real"], runs["loopback"]
    for step in ("open", "append", "pipelined", "checkpoint"):
        assert loop[step] == real[step], step
    for left, right in zip(loop["query_batch"], real["query_batch"]):
        assert_same_slices(left, right)
        assert (left.gt_inferences, left.candidates) == (
            right.gt_inferences, right.candidates
        )
    assert loop["spans"] == real["spans"]
    assert "worker:query_batch" in loop["spans"]
    assert loop["wire"] == real["wire"]
    if threshold == 1:
        assert loop["wire"]["shm_bytes"] > 0  # real segments crossed
    assert loop["mirror"] == real["mirror"]
    # counters: everything but the wall-clock histograms (and the wire
    # keys, compared above: they now count the histograms' bytes too)
    for section in ("shard", "streams", "live-streams", "cache", "gpu"):
        assert loop["counters"][section] == real["counters"][section], section
    costs = [
        {k: v for k, v in run["counters"]["cost"].items() if k not in WIRE_COUNTER_KEYS}
        for run in (loop, real)
    ]
    assert costs[0] == costs[1]
    assert sorted(loop["counters"]["metrics"]) == sorted(real["counters"]["metrics"])


@pytest.mark.skipif(
    not (shm_available() and os.path.isdir("/dev/shm")), reason="no /dev/shm to inspect"
)
def test_the_teardown_leak_check_sees_a_surviving_reply_segment():
    """``assert_no_leaked_segments`` is not vacuous: a segment named
    like one of the fabric's reply segments that outlives ``shutdown()``
    fails it, and one of another supervisor's does not."""
    with loopback_fabric(["solo"]) as supervisor, loopback_fabric(["solo"]) as other:
        pass
    stray = create_segment(supervisor._worker("solo").reply_prefix + "-r0", 64)
    try:
        with pytest.raises(AssertionError, match="outlived the fabric"):
            assert_no_leaked_segments(supervisor)
        assert_no_leaked_segments(other)
    finally:
        stray.close()
        stray.unlink()
    assert_no_leaked_segments(supervisor)
