"""The client side of the worker fabric (see ``repro.fabric.worker`` for
the map of its three modules): :class:`ShardClient` speaks one shard's
wire, :class:`PendingReply` is a pipelined command's outstanding result.

``ShardClient``'s op methods are *generated* in its class body from the
op table (``repro.fabric.protocol.OPS``) by :func:`_stub`; only the
methods that add behaviour to their row are written out.
"""

from __future__ import annotations

import inspect
import pickle
import queue as _queue
import time
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.fabric import codec
from repro.fabric import shm as shm_plane
from repro.fabric.protocol import (
    OPS,
    DeadlineExceeded,
    ProtocolError,
    Reply,
    Request,
    ShardFailed,
    WorkerCrashed,
    raise_remote,
)
from repro.fabric.shard import ShardNode
from repro.fabric.worker import _LoopHooks
from repro.obs.events import emit as _emit_event
from repro.obs.trace import get_sink
from repro.storage.docstore import Collection, DocumentStore

if TYPE_CHECKING:
    from repro.fabric.supervisor import FabricSupervisor, _Worker

#: fallback wait when a command carries no deadline (direct
#: ``_await_reply`` calls in tests; per-op deadlines from
#: ``protocol.DEFAULT_DEADLINES`` normally override this)
DEFAULT_REPLY_TIMEOUT_S = 300.0

#: the longest a deadline wait sleeps before re-probing worker liveness
#: (a crashed worker is declared dead within ~this, not the deadline)
LIVENESS_PROBE_INTERVAL_S = 0.25

#: grace drain after the process is seen dead: the reply may have been
#: enqueued (feeder thread) an instant before the death was observed
DEATH_DRAIN_GRACE_S = 0.2


def _stub(op: str, submit: bool = False):
    """The ``ShardClient`` method of one table row: bind the call to the
    served method's own parameter list, encode what the row declares,
    cross the wire, decode the declared answer.  Codecs resolve here,
    once.  ``submit`` makes the pipelined twin, with the parameters of
    the ``ShardNode`` twin; its ``defer_delta``, where declared, is the
    request envelope's flag, not an argument of the op."""
    row = OPS[op]
    name = op + "_submit" if submit else op
    served = getattr(_LoopHooks if row.loop else ShardNode, name)
    signature = inspect.signature(served)
    var_keyword = next(
        (p.name for p in signature.parameters.values() if p.kind is p.VAR_KEYWORD),
        None,
    )
    encoders = [(arg, codec.wire_codec(spec)[0]) for arg, spec in row.args.items()]
    decode = codec.wire_codec(row.result)[1] if row.result else None

    def stub(self, *args, **kwargs):
        bound = signature.bind(self, *args, **kwargs)
        bound.apply_defaults()
        payload = dict(bound.arguments)
        del payload["self"]
        if var_keyword is not None:
            payload.update(payload.pop(var_keyword))
        sink = self._supervisor._request_sink() if encoders else None
        for arg, encode in encoders:
            if payload.get(arg) is not None:
                payload[arg] = encode(payload[arg], sink)
        if not submit:
            return self._call(op, payload, decode, sink=sink)
        defer_delta = payload.pop("defer_delta", False)
        return self._submit(op, payload, decode, sink=sink, defer_delta=defer_delta)

    stub.__name__ = name
    stub.__qualname__ = "ShardClient." + name
    stub.__doc__ = getattr(ShardNode, op, served).__doc__
    stub.__signature__ = signature.replace(return_annotation=signature.empty)
    return stub


class PendingReply:
    """A pipelined command's outstanding result.

    Results of one shard must be gathered in submission order (replies
    are FIFO); :meth:`result` enforces it.  The reply is bound to the
    worker *incarnation* the command was submitted to: if a watchdog
    restart swaps in a fresh incarnation meanwhile, gathering raises
    :class:`WorkerCrashed` (the command never happened durably) instead
    of misreading the new worker's stream.
    """

    def __init__(
        self, client: "ShardClient", corr_id: int, decode, worker=None
    ):
        self._client = client
        self._corr_id = corr_id
        self._decode = decode
        self._worker = worker

    def result(self) -> Any:
        return self._client._gather(self._corr_id, self._decode, self._worker)


class ShardClient:
    """The ``ShardNode`` command surface, spoken over a worker's queues.

    Implements :class:`~repro.fabric.shard.ShardLeg`, so a router or a
    migration over clients behaves identically to one over in-process
    nodes -- same placement, merges and bit-identical answers -- while
    its scatter legs run in parallel processes.  Lifecycle calls return
    :class:`~repro.fabric.protocol.StreamHandleInfo` (live handles are
    worker-local).  ``store`` is the supervisor-side mirror: read it
    freely, never write it.
    """

    def __init__(self, supervisor: "FabricSupervisor", shard_id: str):
        self._supervisor = supervisor
        self.shard_id = shard_id

    def __repr__(self) -> str:
        return "ShardClient(%r)" % self.shard_id

    @property
    def store(self) -> DocumentStore:
        return self._worker().mirror

    def _worker(self) -> _Worker:
        return self._supervisor._worker(self.shard_id)

    # -- the wire ----------------------------------------------------------
    def _submit(
        self,
        op: str,
        payload: Dict[str, Any],
        decode=None,
        sink=None,
        deadline_s: Optional[float] = None,
        defer_delta: bool = False,
    ) -> PendingReply:
        row = OPS.get(op)
        if row is None:
            # refused before anything is consumed: no corr id, no queue
            # slot, no wire counter
            raise ProtocolError(
                "unknown op %r (the vocabulary is repro.fabric.protocol.OPS)"
                % op
            )
        worker = self._worker()
        with worker.lock:
            if worker.condemned or not worker.process.is_alive():
                if not worker.condemned:
                    # noticed the death here: condemn the incarnation so
                    # its shm leases are reclaimed NOW, not at restart
                    self._supervisor._condemn(
                        worker,
                        self.shard_id,
                        "found dead at submit (exitcode %r)"
                        % worker.process.exitcode,
                    )
                raise WorkerCrashed(
                    "shard worker %r is dead; restart it via "
                    "FabricSupervisor.restart (or ensure_alive)"
                    % self.shard_id
                )
            corr_id = worker.next_corr
            worker.next_corr += 1
            if sink is not None:
                # resolve the payload's bulk fields NOW (inline or pooled
                # segment descriptors) -- the envelopes are patched in place
                sink.seal()
                if sink.segment_name is not None:
                    worker.request_leases[corr_id] = sink.segment_name
                worker.wire["shm_bytes"] += sink.sealed_nbytes
            worker.wire["wire_bytes_sent"] += codec.payload_nbytes(payload)
            if row.readonly:
                worker.wire["delta_skipped_readonly"] += 1
            worker.request_q.put(
                Request(
                    corr_id=corr_id,
                    op=op,
                    payload=payload,
                    defer_delta=defer_delta,
                )
            )
            # the deadline entry is registered only once the request is
            # durably on the queue (and popped on *every* gather exit):
            # an encode/submit-path failure must not leak an entry for
            # the incarnation's lifetime
            worker.deadline_s[corr_id] = (
                float(deadline_s)
                if deadline_s is not None
                else self._supervisor.deadline_for(op)
            )
            worker.pending.append(corr_id)
            return PendingReply(self, corr_id, decode, worker)

    def _call(
        self,
        op: str,
        payload: Dict[str, Any],
        decode=None,
        sink=None,
        deadline_s: Optional[float] = None,
    ) -> Any:
        return self._submit(
            op, payload, decode, sink=sink, deadline_s=deadline_s
        ).result()

    def _gather(self, corr_id: int, decode=None, worker: Optional[_Worker] = None) -> Any:
        if worker is None:
            worker = self._worker()
        with worker.lock:
            if worker.condemned:
                # the command is dead with the incarnation: drop its
                # deadline entry (normally cleared wholesale by
                # ``_reclaim`` at condemn time) so no exit path leaks it
                worker.deadline_s.pop(corr_id, None)
                raise WorkerCrashed(
                    "shard worker %r was condemned (crashed or "
                    "deadline-killed); its unacknowledged commands never "
                    "happened durably -- restart and retry" % self.shard_id
                )
            if not worker.pending or worker.pending[0] != corr_id:
                raise ProtocolError(
                    "shard %r replies must be gathered in submission order"
                    % self.shard_id
                )
            reply = self._await_reply(worker, corr_id)
            worker.pending.popleft()
            worker.deadline_s.pop(corr_id, None)
            # a gathered reply proves the worker (strictly in-order) is done
            # reading the request's segment: return the lease to the pool
            lease = worker.request_leases.pop(corr_id, None)
            if lease is not None:
                self._supervisor._release_lease(lease)
            if reply.corr_id != corr_id:
                raise ProtocolError(
                    "shard %r answered corr_id %r, expected %r"
                    % (self.shard_id, reply.corr_id, corr_id)
                )
            # any reply -- even an error -- proves the worker responsive
            self._supervisor._note_healthy(self.shard_id)
            reader = shm_plane.ShmReader(owns=True)
            try:
                return self._apply(worker, reply, reader, decode)
            finally:
                # consume-once contract: unlink the reply's segment (if
                # any) whether the command succeeded or raised
                worker.wire["shm_bytes"] += reader.total_nbytes
                reader.close()

    def _apply(self, worker: _Worker, reply: Reply, reader, decode) -> Any:
        worker.wire["wire_bytes_received"] += codec.payload_nbytes(
            reply.value
        ) + codec.payload_nbytes(reply.store_delta)
        if reply.spans:
            # stitch the worker's spans into this process's sink: the
            # trace exporter then sees one tree across both processes
            get_sink().absorb(reply.spans)
        if reply.store_delta is not None:
            parts = pickle.loads(codec.decode_blob(reply.store_delta, reader))
            for envelope in parts:
                name = envelope["name"]
                if envelope["kind"] == "cfull":
                    coll = Collection.from_json_obj(envelope["coll"])
                    worker.mirror.replace_collection(name, coll)
                    worker.wire["delta_docs_shipped"] += len(coll)
                else:
                    worker.wire["delta_docs_shipped"] += worker.mirror.collection(
                        name
                    ).apply_delta(envelope)
        for name in reply.store_drops:
            worker.mirror.drop(name)
        if not reply.ok:
            raise_remote(reply.error)
        value = reply.value
        if decode is not None:
            value = decode(value, reader)
        return value

    def _await_reply(
        self, worker: _Worker, corr_id: Optional[int] = None
    ) -> Reply:
        """Deadline-aware reply wait: sleeps on the queue in liveness-
        probe slices (no fixed busy-poll), and on expiry *condemns* the
        worker (kill + lease reclamation) instead of waiting forever."""
        deadline_s = DEFAULT_REPLY_TIMEOUT_S
        if corr_id is not None:
            deadline_s = worker.deadline_s.get(corr_id, DEFAULT_REPLY_TIMEOUT_S)
        deadline = time.monotonic() + deadline_s
        while True:
            remaining = deadline - time.monotonic()
            wait = min(max(remaining, 0.001), LIVENESS_PROBE_INTERVAL_S)
            try:
                return worker.reply_q.get(timeout=wait)
            except _queue.Empty:
                pass
            if not worker.process.is_alive():
                # the reply may have landed between the queue timeout and
                # the liveness check: drain once more before declaring
                # the command lost (regression-tested race)
                try:
                    return worker.reply_q.get(timeout=DEATH_DRAIN_GRACE_S)
                except _queue.Empty:
                    self._supervisor._condemn(
                        worker,
                        self.shard_id,
                        "died before replying (exitcode %r)"
                        % worker.process.exitcode,
                    )
                    raise WorkerCrashed(
                        "shard worker %r died before replying (exitcode "
                        "%r); its unacknowledged command never happened "
                        "durably -- restart and retry"
                        % (self.shard_id, worker.process.exitcode)
                    )
            if time.monotonic() >= deadline:
                worker.faults["deadline_exceeded"] += 1
                _emit_event(
                    "fabric.deadline_exceeded",
                    shard=self.shard_id,
                    corr_id=corr_id,
                    deadline_s=deadline_s,
                )
                self._supervisor._condemn(
                    worker,
                    self.shard_id,
                    "no reply within the %.1fs deadline" % deadline_s,
                )
                raise DeadlineExceeded(
                    "shard worker %r did not reply within its %.1fs "
                    "deadline; the worker was killed (state discarded, "
                    "shm leases reclaimed) and its unacknowledged commands "
                    "never happened durably -- restart via "
                    "FabricSupervisor.ensure_alive and retry"
                    % (self.shard_id, deadline_s)
                )

    # -- the pipelined twins ---------------------------------------------------
    # ``append_submit(..., defer_delta=True)`` marks a non-final append
    # of one scatter round on its shard: the worker skips that reply's
    # store delta and the round's last leg ships one cumulative delta
    # (the mirror then advances at round granularity -- see
    # ``docs/SHARDING.md``).  Callers must guarantee a non-deferred
    # append follows on the same shard before the round ends.
    append_submit = _stub("append", submit=True)
    query_batch_submit = _stub("query_batch", submit=True)
    checkpoint_submit = _stub("checkpoint", submit=True)

    # -- the verbs that add behaviour to their row -----------------------------
    def ensure_alive(self, configs=None) -> bool:
        """Respawn the worker if it is dead or condemned.  False when
        the crash-loop breaker is tripped or the respawn itself failed:
        a retry would meet the same failure."""
        try:
            self._supervisor.ensure_alive(self.shard_id, configs=configs)
        except (ShardFailed, WorkerCrashed, DeadlineExceeded):
            return False
        return True

    def counters(self) -> Dict[str, Any]:
        """The worker shard's ``ShardNode.counters`` document, with the
        supervisor-side ledgers folded into ``cost``: the shard reports
        zeros for the wire and fault keys (it sees neither its own wire
        nor its own crashes), and this is the one place the real values
        are added.  Router-side fault keys (``retries`` /
        ``partial_answers``) stay zero here and land in
        ``FabricRouter.cost_summary``'s fleet total."""
        doc = self._call("counters", {})
        worker = self._worker()
        for ledger in (worker.wire, worker.faults):
            for key, value in ledger.items():
                doc["cost"][key] += value
        return doc

    def ping(self, deadline_s: Optional[float] = None) -> None:
        """Liveness probe.  ``deadline_s`` overrides the control-kind
        deadline (the watchdog's heartbeat uses a short one)."""
        self._call("ping", {}, deadline_s=deadline_s)

    # -- every other row of the table, generated -------------------------------
    # (``shutdown`` is the supervisor's own goodbye, enqueued without a
    # gather by ``FabricSupervisor.shutdown``: it gets no client verb)
    for _op in OPS:
        if _op not in vars() and _op != "shutdown":
            vars()[_op] = _stub(_op)
    del _op
