"""Process-isolated shard workers: true parallel ShardNodes.

The in-process fabric (``repro.fabric.router`` over
:class:`~repro.fabric.shard.ShardNode`) scatter-gathers serially inside
one interpreter, so N shards ingest no faster than one.  The worker
fabric moves each shard into its own process behind the serialized
command protocol of ``repro.fabric.protocol``/``codec``, in three
modules split along the seam the op table draws (imports run
worker <- client <- supervisor):

* ``repro.fabric.worker`` (here) -- the worker process.
  :class:`WorkerState` builds a ``ShardNode`` from a store snapshot and
  its :meth:`~WorkerState.serve_one` serves one command, shipping the
  command's *store delta* (the collections it changed) back with the
  reply, so the supervisor's mirror always reflects the worker's
  durable state as of the last acknowledged command.
  :func:`_worker_main`, the forked process, only moves requests and
  replies between the queues and that step.
* ``repro.fabric.client`` -- :class:`ShardClient`, the
  :class:`~repro.fabric.shard.ShardLeg` contract over the queues, and
  :class:`PendingReply`.
* ``repro.fabric.supervisor`` -- :class:`FabricSupervisor` (spawn,
  mirror, condemn, restart).

**Where an op is declared, and how to add one:** once, as a row of
``repro.fabric.protocol.OPS``, plus the ``ShardNode`` method of the same
name.  The loop serves every row the same way -- decode the keyword
arguments (one ``codec.decode``), call the method with them, encode the
answer (one ``codec.encode``) -- and ``ShardClient`` grows the
mirror-image method from the same row and the method's own signature;
no branch here, no stub there.  The few ops whose serving differs
register a wrapper in :data:`_WRAPPERS`.  The table holds nothing
else: the goodbye is a ``None`` on the request queue, and fault drills
are events of the tests' transports, never ops.  Migration has no code
of its own here.

See ``docs/SHARDING.md`` for the message table and restart/fencing
interaction.
"""

from __future__ import annotations

import importlib
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

#: names that moved to the module above this one and still resolve
#: here (``bench/boundaries.py`` patches them under this module)
_MOVED = {
    "PendingReply": "repro.fabric.client",
    "ShardClient": "repro.fabric.client",
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
    one encoded envelope, updating the shadow in place.

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
    deltas: List[Dict[str, Any]] = []
    for name in names:
        coll = store.collection(name)
        basis = shadow.get(name)
        if coll.unchanged_since(basis):
            continue
        delta, shadow[name] = coll.delta_snapshot(basis)
        deltas.append(delta)
    live = set(names)
    drops = tuple(sorted(n for n in shadow if n not in live))
    for name in drops:
        del shadow[name]
    if not deltas:
        return None, drops
    return codec.encode(deltas, sink), drops


def _call_node(node: ShardNode, op: str, params: Dict[str, Any]) -> Any:
    return getattr(node, op)(**params)


def _report_without_dispatch(node: ShardNode, op: str, params: Dict[str, Any]):
    """``dispatch`` (the GPU placement of the chunk's batches) describes
    the worker's cluster: it does not cross the wire."""
    return _dc_replace(_call_node(node, op, params), dispatch=None)


def _answer_handle_info(node: ShardNode, op: str, params: Dict[str, Any]):
    """``open_stream`` returns a live handle, which is worker-local:
    answer its wire-safe summary instead."""
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
    "append": _report_without_dispatch,
    "open_stream": _answer_handle_info,
    "query_batch": _query_batch_in_span,
}


def _arguments(request: Request) -> Dict[str, Any]:
    """A request's keyword arguments (None is no arguments).  Requests
    are always inline: a payload carrying a shm descriptor is refused
    with ``CodecError``."""
    if request.payload is None:
        return {}
    return codec.decode(request.payload)


def _reply_segment_name(prefix: str, corr_id: int) -> str:
    """The deterministic name of one reply's data-plane segment.

    Determinism is the crash-reclamation contract: the supervisor can
    probe exactly the names of its unacknowledged correlation ids after
    a worker dies and unlink any orphan it finds."""
    return "%s-r%d" % (prefix, corr_id)


def _reply(corr_id: int, error: Optional[Exception] = None, **shipped) -> Reply:
    return Reply(
        corr_id=corr_id,
        ok=error is None,
        error=encode_error(error) if error is not None else None,
        **shipped,
    )


class WorkerState:
    """One shard worker: the ``ShardNode`` rebuilt from the supervisor's
    store snapshot and the delta shadow of its store.  ``reply_prefix``
    names this incarnation's reply segments; empty (a host without
    shared memory) inlines every reply."""

    def __init__(
        self,
        shard_id: str,
        store_snapshot: Dict[str, Any],
        system_kwargs: Dict[str, Any],
        shm_threshold: int,
        reply_prefix: str,
    ):
        self.store = DocumentStore.from_json_obj(store_snapshot)
        self.node = ShardNode(shard_id, store=self.store, **system_kwargs)
        self._threshold = shm_threshold
        self._reply_prefix = reply_prefix
        # every seeded collection starts a delta baseline the supervisor's
        # mirror shares by construction (it sent the snapshot)
        self._shadow = {
            name: self.store.collection(name).mark_delta_clean()
            for name in self.store.collection_names()
        }

    def _sink(self, corr_id: int) -> shm_plane.ShmSink:
        alloc = None
        if self._reply_prefix:
            name = _reply_segment_name(self._reply_prefix, corr_id)
            alloc = lambda nbytes: shm_plane.create_segment(name, nbytes)
        return shm_plane.ShmSink(alloc=alloc, threshold=self._threshold)

    def _finish(self, corr_id, sink, value=None, error=None, ship_delta=True):
        delta, drops = (
            _store_delta(self.store, self._shadow, sink) if ship_delta else (None, ())
        )
        reply = _reply(
            corr_id,
            error,
            value=value,
            store_delta=delta,
            store_drops=drops,
            # worker-side spans of this command (empty unless it carried
            # a sampled trace); the client absorbs them into the parent's
            # sink for stitching.  Drained on errors too: a failed
            # command's spans must not leak into the next reply
            spans=tuple(get_sink().drain()),
        )
        sink.seal()
        return reply, sink

    def serve_one(self, request) -> Tuple[Reply, Optional[shm_plane.ShmSink]]:
        """Serve one request: decode its arguments, call the node, encode
        the answer and sweep the store delta into one sealed message.

        Returns the reply and the sink its payloads sealed into; the
        caller closes the sink (``close_handoff``) once the reply is
        handed off.  A refused request (not a request, a skewed
        version, an op outside the table) gets a bare error reply and
        no sink."""
        if not isinstance(request, Request):
            return _reply(-1, ProtocolError("not a Request: %r" % (request,))), None
        if request.version != PROTOCOL_VERSION:
            refusal = ProtocolError(
                "protocol version mismatch: request v%r, worker speaks v%r"
                % (request.version, PROTOCOL_VERSION)
            )
            return _reply(request.corr_id, refusal), None
        row = OPS.get(request.op)
        if row is None:
            refusal = ProtocolError("unknown op %r" % request.op)
            return _reply(request.corr_id, refusal), None
        sink = self._sink(request.corr_id)
        try:
            serve = _WRAPPERS.get(request.op, _call_node)
            # the answer defers into the reply's sink, which seals it
            # with the store delta as one message
            value = codec.encode(
                serve(self.node, request.op, _arguments(request)), sink
            )
            # no delta sweep for a read-only command (it cannot move
            # durable state: no mirror traffic at all) nor for a deferred
            # leg (a pipelined scatter leg with later legs behind it on
            # this shard: the dirty sets keep accumulating and the
            # round's final leg ships one cumulative delta)
            return self._finish(
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
            return self._finish(
                request.corr_id, self._sink(request.corr_id), error=exc
            )


def _worker_main(
    shard_id: str,
    request_q,
    reply_q,
    store_snapshot: Dict[str, Any],
    system_kwargs: Dict[str, Any],
    shm_threshold: int,
    reply_prefix: str,
) -> None:
    """The worker process loop: one command at a time from the request
    queue until the ``None`` goodbye (or the supervisor is gone)."""
    # a fresh span sink: fork-inherited parent spans must not ship back
    # in this worker's replies
    install_sink(SpanSink())
    worker = WorkerState(
        shard_id, store_snapshot, system_kwargs, shm_threshold, reply_prefix
    )
    while True:
        try:
            request = request_q.get()
        except (EOFError, OSError):
            return  # the supervisor is gone
        if request is None:
            return
        reply, sink = worker.serve_one(request)
        reply_q.put(reply)
        if sink is not None:
            # hand the segment off: the supervisor attaches, reads, and
            # unlinks it; only our mapping goes now
            sink.close_handoff()
