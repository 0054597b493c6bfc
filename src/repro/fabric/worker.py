"""Process-isolated shard workers: true parallel ShardNodes.

The in-process fabric (``repro.fabric.router`` over
:class:`~repro.fabric.shard.ShardNode`) scatter-gathers serially inside
one interpreter, so N shards ingest no faster than one.  The worker
fabric moves each shard into its own process behind the serialized
command protocol of ``repro.fabric.protocol``/``codec``, in three
modules split along the seam the op table draws (imports run
worker <- client <- supervisor):

* ``repro.fabric.worker`` (here) -- the worker process.
  :func:`_worker_main` builds a ``ShardNode`` from a store snapshot and
  serves one command at a time from its request queue, shipping each
  command's *store delta* (the collections it changed) back with the
  reply, so the supervisor's mirror always reflects the worker's
  durable state as of the last acknowledged command.
* ``repro.fabric.client`` -- :class:`ShardClient`, the
  :class:`~repro.fabric.shard.ShardLeg` contract over the queues, and
  :class:`PendingReply`.
* ``repro.fabric.supervisor`` -- :class:`FabricSupervisor` (spawn,
  mirror, condemn, restart) and :class:`FabricWatchdog`.

**Where an op is declared, and how to add one:** once, as a row of
``repro.fabric.protocol.OPS``, plus the ``ShardNode`` method of the same
name.  :func:`_dispatch` serves every row the same way -- decode the
parameters the row declares, call the method with the payload as
keyword arguments, encode the declared answer -- and ``ShardClient``
grows the mirror-image method from the same row and the method's own
signature; no branch here, no stub there.  The few ops whose serving
differs register a wrapper in :data:`_WRAPPERS`, and the loop's own
verbs (goodbye, chaos drills) are :class:`_LoopHooks` methods.
Migration has no code of its own here.

See ``docs/SHARDING.md`` for the message table and restart/fencing
interaction.
"""

from __future__ import annotations

import importlib
import os
import pickle
import time
from dataclasses import replace as _dc_replace
from typing import Any, Dict, List, Optional, Tuple

from repro.fabric import codec
from repro.fabric import shm as shm_plane
from repro.fabric.protocol import (
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    Reply,
    Request,
    encode_error,
)
from repro.fabric.shard import ShardNode
from repro.obs.trace import SpanSink, get_sink, install_sink, span
from repro.storage.docstore import DocumentStore

#: names that moved to the modules above this one and still resolve
#: here (``bench/boundaries.py`` and the tests import them from here)
_MOVED = {
    "PendingReply": "repro.fabric.client",
    "ShardClient": "repro.fabric.client",
    "_Worker": "repro.fabric.supervisor",
    "FabricSupervisor": "repro.fabric.supervisor",
    "FabricWatchdog": "repro.fabric.supervisor",
}


def __getattr__(name: str) -> Any:
    if name in _MOVED:
        return getattr(importlib.import_module(_MOVED[name]), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def _store_delta(
    store: DocumentStore,
    shadow: Dict[str, int],
    sink: Optional[shm_plane.ShmSink] = None,
) -> Tuple[Optional[Dict[str, Any]], Tuple[str, ...]]:
    """Collections changed/removed since the last *shipped* command, as
    one pickled blob envelope, updating the shadow in place.

    The shadow maps collection name to the delta token of the last
    shipped baseline.  An unchanged collection (same baseline lineage,
    nothing dirty) ships nothing; a changed one ships a doc-level
    ``"cdelta"`` when its token still matches the shadow's (the mirror
    was built from that exact baseline, so only dirty docs need to
    travel) and a whole ``"cfull"`` otherwise (fresh collections,
    ``from_json_obj`` rebuilds, wholesale staged replacements).  Every
    write marks its document dirty, so any mutation -- even
    delete+reinsert at equal length -- is caught.
    """
    names = store.collection_names()
    parts: List[Dict[str, Any]] = []
    for name in names:
        coll = store.collection(name)
        basis = shadow.get(name)
        if coll.unchanged_since(basis):
            continue
        envelope, shadow[name] = coll.delta_snapshot(basis)
        parts.append(envelope)
    live = set(names)
    drops = tuple(sorted(n for n in shadow if n not in live))
    for name in drops:
        del shadow[name]
    if not parts:
        return None, drops
    blob = pickle.dumps(parts, protocol=pickle.HIGHEST_PROTOCOL)
    return codec.encode_blob(blob, sink), drops


class _LoopHooks:
    """The worker loop's own verbs: the table's ``loop=True`` rows, one
    method each (their ``ShardClient`` methods take their parameters
    from these signatures, as a node op's does from ``ShardNode``).
    The loop runs a hook and acknowledges it bare -- no sink, no delta
    sweep, and none of the chaos it arms, which starts with the NEXT
    command.  The chaos hooks are for the fault drills (tests only)."""

    def __init__(self, node: ShardNode):
        self._node = node
        self.running = True
        self.exit_before_reply = False
        #: one-shot: the NEXT command sleeps this long mid-op (after the
        #: state change, before the reply) -- the hung-worker drill
        self.stall_s = 0.0
        #: persistent: every command sleeps this long before executing
        #: (a slow-but-correct worker; replies still arrive)
        self.slow_s = 0.0
        #: the next N commands execute fully but their replies are
        #: swallowed -- the client's deadline must fire and recovery
        #: must come from the mirror (at-most-once)
        self.drop_replies = 0

    def shutdown(self) -> None:
        """Leave the loop once this command is acknowledged."""
        self.running = False

    def inject_stall(self, seconds: float = 10.0) -> None:
        """Arm the worker to hang mid-op: the NEXT command executes,
        then sleeps ``seconds`` before replying -- past any sane
        deadline, so the client condemns the worker mid-sleep."""
        self.stall_s = float(seconds)

    def inject_slow(self, seconds: float) -> None:
        """Make the worker slow-but-correct: every subsequent command
        sleeps ``seconds`` before executing (0 turns it off)."""
        self.slow_s = float(seconds)

    def inject_drop_reply(self, count: int = 1) -> None:
        """Swallow the next ``count`` replies: the ops execute in the
        worker but never acknowledge -- the deadline fires and the
        restarted shard recovers from the mirror (at-most-once)."""
        self.drop_replies = int(count)

    def inject_crash_before_reply(self) -> None:
        """Arm the worker to die after its next command seals the reply
        (creating its data-plane segment) but before the reply is
        enqueued -- the mid-transfer orphan the reclamation drills
        target."""
        self.exit_before_reply = True

    def inject_crash_after_journal(self, stream: str) -> None:
        """Arm the worker to die right after the next WAL append for
        ``stream`` -- before the chunk is applied or acknowledged: the
        exact window between journal append and checkpoint the
        fault-injection drills target."""
        ingestor = self._node.system.handle(stream).ingestor
        if ingestor is None or ingestor.journal is None:
            raise ProtocolError(
                "stream %r has no journaled live session to crash" % stream
            )
        journal = ingestor.journal
        original = journal.append_chunk

        def exploding_append_chunk(chunk, watermark_s=None):
            original(chunk, watermark_s)
            os._exit(1)  # no reply, no delta: the append never happened durably

        journal.append_chunk = exploding_append_chunk  # type: ignore[method-assign]


def _call_node(node: ShardNode, op: str, params: Dict[str, Any]) -> Any:
    return getattr(node, op)(**params)


def _answer_handle_info(node: ShardNode, op: str, params: Dict[str, Any]):
    """``open_stream`` / ``ingest_stream`` return a live handle, which
    is worker-local: answer its wire-safe summary instead."""
    return node.handle_info(_call_node(node, op, params).stream)


def _query_batch_in_span(node: ShardNode, op: str, params: Dict[str, Any]):
    """Worker-side span: parents this process's service/scheduler spans
    under the router's scatter leg, so a stitched trace crosses the
    process boundary (the sink is drained into the reply's ``spans``
    field by the main loop)."""
    requests = params["requests"]
    ctx = next((r.trace for r in requests if r.trace is not None), None)
    with span(
        "worker:query_batch", ctx, shard=node.shard_id, n=len(requests)
    ) as child:
        if child is not None:
            requests = [
                _dc_replace(r, trace=child) if r.trace is not None else r
                for r in requests
            ]
        return node.query_batch(requests)


#: the ops whose serving genuinely differs from call-and-encode
_WRAPPERS = {
    "open_stream": _answer_handle_info,
    "ingest_stream": _answer_handle_info,
    "query_batch": _query_batch_in_span,
}

#: op -> (decoders of its declared parameters, the call, the encoder of
#: its declared answer), resolved from the table once at import
_SERVE = {
    op: (
        [(name, codec.wire_codec(spec)[1]) for name, spec in row.args.items()],
        _WRAPPERS.get(op, _call_node),
        codec.wire_codec(row.result)[0] if row.result else None,
    )
    for op, row in OPS.items()
    if not row.loop
}


def _dispatch(
    node: ShardNode,
    op: str,
    payload: Dict[str, Any],
    sink: Optional[shm_plane.ShmSink] = None,
    reader: Optional[shm_plane.ShmReader] = None,
) -> Any:
    """Execute one table op against the worker's ShardNode: decode the
    declared parameters, call, encode the declared answer.

    Bulk request payloads (table chunks, migration snapshots) resolve
    through ``reader``; bulk reply values (answer frames, per-stream
    results) defer into ``sink`` and resolve when the reply seals.
    """
    decoders, call, encode = _SERVE[op]
    params = dict(payload)
    for name, decode in decoders:
        if params.get(name) is not None:
            params[name] = decode(params[name], reader)
    value = call(node, op, params)
    return value if encode is None else encode(value, sink)


def _reply_segment_name(prefix: str, corr_id: int) -> str:
    """The deterministic name of one reply's data-plane segment.

    Determinism is the crash-reclamation contract: the supervisor can
    probe exactly the names of its unacknowledged correlation ids after
    a worker dies and unlink any orphan it finds."""
    return "%s-r%d" % (prefix, corr_id)


def _worker_main(
    shard_id: str,
    request_q,
    reply_q,
    store_snapshot: Dict[str, Any],
    system_kwargs: Dict[str, Any],
    shm_threshold: int,
    reply_prefix: str,
) -> None:
    """The worker process loop: one shard, one command at a time.
    ``reply_prefix`` names this incarnation's reply segments; empty (a
    host without shared memory) inlines every reply."""
    #: long-lived attachments to the supervisor's pooled request
    #: segments (same names recur command after command)
    attach_cache: Dict[str, Any] = {}

    # a fresh span sink: fork-inherited parent spans must not ship back
    # in this worker's replies
    install_sink(SpanSink())

    store = DocumentStore.from_json_obj(store_snapshot)
    node = ShardNode(shard_id, store=store, **system_kwargs)
    hooks = _LoopHooks(node)
    # every seeded collection starts a delta baseline the supervisor's
    # mirror shares by construction (it sent the snapshot)
    shadow = {
        name: store.collection(name).mark_delta_clean()
        for name in store.collection_names()
    }

    def make_sink(corr_id: int) -> shm_plane.ShmSink:
        alloc = None
        if reply_prefix:
            name = _reply_segment_name(reply_prefix, corr_id)
            alloc = lambda nbytes: shm_plane.create_segment(name, nbytes)
        return shm_plane.ShmSink(alloc=alloc, threshold=shm_threshold)

    def send(reply: Reply, sink: shm_plane.ShmSink) -> None:
        sink.seal()
        if hooks.exit_before_reply:
            # SIGKILL-mid-transfer drill: die with the reply sealed
            # (its segment created) but the reply never enqueued -- the
            # orphan the supervisor must reclaim by probing the names
            # of its unacknowledged correlation ids
            os._exit(1)
        if hooks.drop_replies > 0:
            # dropped-reply drill: the op ran in-process but its reply
            # (and therefore its delta) is lost.  The client's deadline
            # fires, the worker is condemned, its sealed segment is
            # reclaimed by name, and the restarted shard recovers from
            # the mirror -- the op never happened durably
            hooks.drop_replies -= 1
            sink.close_handoff()
            return
        reply_q.put(reply)
        # hand the segment off: the supervisor attaches, reads, and
        # unlinks it; only our mapping goes now
        sink.close_handoff()

    def make_reply(corr_id: int, error=None, **shipped) -> Reply:
        return Reply(
            corr_id=corr_id,
            ok=error is None,
            error=encode_error(error) if error is not None else None,
            **shipped,
        )

    def finish(corr_id: int, sink, value=None, error=None, ship_delta=True):
        delta, drops = (
            _store_delta(store, shadow, sink) if ship_delta else (None, ())
        )
        send(
            make_reply(
                corr_id,
                error,
                value=value,
                store_delta=delta,
                store_drops=drops,
                # worker-side spans of this command (empty unless it
                # carried a sampled trace); the client absorbs them into
                # the parent's sink for stitching.  Drained on errors
                # too: a failed command's spans must not leak into the
                # next reply
                spans=tuple(get_sink().drain()),
            ),
            sink,
        )

    while hooks.running:
        try:
            request = request_q.get()
        except (EOFError, OSError):
            return  # the supervisor is gone
        if request is None:
            return
        if not isinstance(request, Request):
            refusal = ProtocolError("not a Request: %r" % (request,))
            reply_q.put(make_reply(-1, refusal))
            continue
        if request.version != PROTOCOL_VERSION:
            refusal = ProtocolError(
                "protocol version mismatch: request v%r, worker speaks v%r"
                % (request.version, PROTOCOL_VERSION)
            )
            reply_q.put(make_reply(request.corr_id, refusal))
            continue
        row = OPS.get(request.op)
        if row is None:
            refusal = ProtocolError("unknown op %r" % request.op)
            reply_q.put(make_reply(request.corr_id, refusal))
            continue
        if row.loop:
            # acknowledged bare: no sink, no delta sweep, and none of
            # the chaos the hook may arm (that starts with the NEXT one)
            try:
                getattr(hooks, request.op)(**request.payload)
                reply_q.put(make_reply(request.corr_id))
            except Exception as exc:
                reply_q.put(make_reply(request.corr_id, exc))
            continue
        if hooks.slow_s:
            time.sleep(hooks.slow_s)
        reader = shm_plane.ShmReader(cache=attach_cache, owns=False)
        sink = make_sink(request.corr_id)
        try:
            value = _dispatch(
                node, request.op, request.payload, sink=sink, reader=reader
            )
            stall = hooks.stall_s
            if stall:
                # hung-mid-op drill: the state change happened but the
                # reply never comes in time; the client's deadline kills
                # us mid-sleep and the mirror (never advanced) wins
                hooks.stall_s = 0.0
                time.sleep(stall)
            # no delta sweep for a read-only command (it cannot move
            # durable state: no mirror traffic at all) nor for a deferred
            # leg (a pipelined scatter leg with later legs behind it on
            # this shard: the dirty sets keep accumulating and the
            # round's final leg ships one cumulative delta)
            finish(
                request.corr_id,
                sink,
                value=value,
                ship_delta=not (row.readonly or request.defer_delta),
            )
        except Exception as exc:
            # errors ship the delta too: a strict checkpoint that failed
            # halfway still moved durable state the mirror must track --
            # and a deferred leg that failed must not defer it either.
            # A fresh sink: the failed command's partially-encoded value
            # payloads must not leak into the error reply's segment.
            finish(request.corr_id, make_sink(request.corr_id), error=exc)
