"""The client side of the worker fabric (see ``repro.fabric.worker`` for
the map of its three modules): :class:`ShardClient` speaks one shard's
wire, :class:`PendingReply` is a pipelined command's outstanding result.

``ShardClient``'s op methods are *generated* in its class body from the
op table (``repro.fabric.protocol.OPS``) by :func:`_stub`; only the
methods that add behaviour to their row are written out.
"""

from __future__ import annotations

import inspect
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
from repro.obs.events import emit as _emit_event
from repro.obs.trace import get_sink
from repro.storage.docstore import Collection, DocumentStore

if TYPE_CHECKING:
    from repro.fabric.supervisor import FabricSupervisor, _Worker

#: the longest a deadline wait sleeps before re-probing worker liveness
#: (a crashed worker is declared dead within ~this, not the deadline)
LIVENESS_PROBE_INTERVAL_S = 0.25

#: grace drain after the process is seen dead: the reply may have been
#: enqueued (feeder thread) an instant before the death was observed
DEATH_DRAIN_GRACE_S = 0.2


def _stub(op: str, submit: bool = False):
    """The ``ShardClient`` method of one table row: bind the call to the
    served method's own parameter list and cross the wire with the
    keyword arguments.  ``submit`` makes the pipelined twin, with the
    parameters of the ``ShardNode`` twin."""
    name = op + "_submit" if submit else op
    served = getattr(ShardNode, name)
    signature = inspect.signature(served)
    var_keyword = next(
        (p.name for p in signature.parameters.values() if p.kind is p.VAR_KEYWORD),
        None,
    )

    def stub(self, *args, **kwargs):
        bound = signature.bind(self, *args, **kwargs)
        bound.apply_defaults()
        arguments = dict(bound.arguments)
        del arguments["self"]
        if var_keyword is not None:
            arguments.update(arguments.pop(var_keyword))
        if not submit:
            return self._call(op, arguments)
        return self._submit(op, arguments)

    stub.__name__ = name
    stub.__qualname__ = "ShardClient." + name
    stub.__doc__ = getattr(ShardNode, op).__doc__
    stub.__signature__ = signature.replace(return_annotation=signature.empty)
    return stub


class PendingReply:
    """A pipelined command's outstanding result.

    Results of one shard must be gathered in submission order (replies
    are FIFO); :meth:`result` enforces it.  The reply is bound to the
    worker *incarnation* the command was submitted to: if a restart
    swaps in a fresh incarnation meanwhile, gathering raises
    :class:`WorkerCrashed` (the command never happened durably) instead
    of misreading the new worker's stream.
    """

    def __init__(self, client: "ShardClient", corr_id: int, worker: _Worker):
        self._client = client
        self._corr_id = corr_id
        self._worker = worker

    def result(self) -> Any:
        return self._client._gather(self._corr_id, self._worker)


class RoundReply:
    """One shard's part of an append round over a worker leg: the
    chunks' pipelined replies (or what their submit raised), gathered
    in order by :meth:`result` into one ``(report, error)`` per chunk."""

    def __init__(self, replies):
        self._replies = replies

    def result(self):
        outcomes = []
        for reply in self._replies:
            if isinstance(reply, Exception):
                outcomes.append((None, reply))
                continue
            try:
                outcomes.append((reply.result(), None))
            except Exception as exc:
                outcomes.append((None, exc))
        return outcomes


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
        kwargs: Dict[str, Any],
        defer_delta: bool = False,
    ) -> PendingReply:
        """Send one command: ``kwargs`` cross as one encoded payload
        (none when empty), inline on the queue -- only replies take the
        shared-memory data plane."""
        row = OPS.get(op)
        if row is None:
            # refused before anything is consumed: no corr id, no queue
            # slot, no wire counter
            raise ProtocolError(
                "unknown op %r (the vocabulary is repro.fabric.protocol.OPS)"
                % op
            )
        worker = self._worker()
        payload = codec.encode(kwargs) if kwargs else None
        if worker.condemned or not worker.process.is_alive():
            if not worker.condemned:
                # noticed the death here: condemn the incarnation so
                # its orphan reply segments go NOW, not at restart
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
        worker.wire["wire_bytes_sent"] += codec.inline_nbytes(payload)
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
        worker.deadline_s[corr_id] = self._supervisor.deadline_for(op)
        worker.pending.append(corr_id)
        return PendingReply(self, corr_id, worker)

    def _call(self, op: str, kwargs: Dict[str, Any]) -> Any:
        return self._submit(op, kwargs).result()

    def _gather(self, corr_id: int, worker: Optional[_Worker] = None) -> Any:
        if worker is None:
            worker = self._worker()
        else:
            # a bound reply skips the lookup: run its owner-thread check
            self._supervisor._check_thread()
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
        if reply.corr_id != corr_id:
            raise ProtocolError(
                "shard %r answered corr_id %r, expected %r"
                % (self.shard_id, reply.corr_id, corr_id)
            )
        # any reply -- even an error -- proves the worker responsive
        self._supervisor._note_healthy(self.shard_id)
        reader = shm_plane.ShmReader(owns=True)
        try:
            return self._apply(worker, reply, reader)
        finally:
            # consume-once contract: unlink the reply's segment (if
            # any) whether the command succeeded or raised
            worker.wire["shm_bytes"] += reader.total_nbytes
            reader.close()

    def _apply(self, worker: _Worker, reply: Reply, reader) -> Any:
        worker.wire["wire_bytes_received"] += codec.inline_nbytes(
            reply.value
        ) + codec.inline_nbytes(reply.store_delta)
        if reply.spans:
            # stitch the worker's spans into this process's sink: the
            # trace exporter then sees one tree across both processes
            get_sink().absorb(reply.spans)
        if reply.store_delta is not None:
            for delta in codec.decode(reply.store_delta, reader):
                name = delta["name"]
                if delta["kind"] == "cfull":
                    coll = Collection.from_json_obj(delta["coll"])
                    worker.mirror.replace_collection(name, coll)
                    worker.wire["delta_docs_shipped"] += len(coll)
                else:
                    worker.wire["delta_docs_shipped"] += worker.mirror.collection(
                        name
                    ).apply_delta(delta)
        for name in reply.store_drops:
            worker.mirror.drop(name)
        if not reply.ok:
            raise_remote(reply.error)
        return codec.decode(reply.value, reader)

    def _await_reply(self, worker: _Worker, corr_id: int) -> Reply:
        """Deadline-aware reply wait (the deadline ``_submit`` registered
        for ``corr_id``): sleeps on the queue in liveness-probe slices
        (no fixed busy-poll), and on expiry *condemns* the worker (kill +
        orphan reclamation) instead of waiting forever."""
        deadline_s = worker.deadline_s[corr_id]
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
                    "orphan segments reclaimed) and its unacknowledged commands "
                    "never happened durably -- restart via "
                    "FabricSupervisor.ensure_alive and retry"
                    % (self.shard_id, deadline_s)
                )

    # -- the pipelined twins ---------------------------------------------------
    query_batch_submit = _stub("query_batch", submit=True)
    checkpoint_submit = _stub("checkpoint", submit=True)

    def append_submit(
        self, stream, chunk, watermark_s=None, defer_delta=False
    ) -> PendingReply:
        """Submit one ``append``.  ``defer_delta`` marks a non-final
        append of a round on this shard: the worker skips that reply's
        store delta and the round's last append ships one cumulative
        delta (the mirror then advances at round granularity -- see
        ``docs/SHARDING.md``).  A caller that defers must submit a
        non-deferred append on this shard before the round ends."""
        return self._submit(
            "append",
            {"stream": stream, "chunk": chunk, "watermark_s": watermark_s},
            defer_delta=defer_delta,
        )

    def append_many_submit(self, chunks, watermarks=None) -> RoundReply:
        """This shard's part of an append round: one pipelined
        :meth:`append_submit` per ``(stream, chunk)`` pair, in order,
        every one but the last with ``defer_delta`` -- one cumulative
        store delta per round instead of one per chunk.  A submit that
        raises (a dead worker) becomes its chunk's error, so every
        reply already submitted is still gathered."""
        replies = []
        for j, (stream, chunk) in enumerate(chunks):
            try:
                replies.append(self.append_submit(
                    stream, chunk,
                    watermark_s=watermarks.get(stream) if watermarks else None,
                    defer_delta=j < len(chunks) - 1,
                ))
            except Exception as exc:
                replies.append(exc)
        return RoundReply(replies)

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

    # -- every other row of the table, generated -------------------------------
    for _op in OPS:
        if _op not in vars():
            vars()[_op] = _stub(_op)
    del _op
