"""Process-isolated shard workers: true parallel ShardNodes.

The in-process fabric (``repro.fabric.router`` over
:class:`~repro.fabric.shard.ShardNode`) scatter-gathers serially inside
one interpreter, so N shards ingest no faster than one.  This module
moves each shard into its own worker process behind the serialized
command protocol of ``repro.fabric.protocol``/``codec``:

* :func:`_worker_main` -- the worker loop: builds a ``ShardNode`` from
  a store snapshot, then serves one command at a time from its request
  queue, shipping each command's *store delta* (the collections it
  changed, whole) back with the reply so the supervisor's mirror always
  reflects the worker's durable state as of the last acknowledged
  command.
* :class:`ShardClient` -- the :class:`~repro.fabric.shard.ShardLeg`
  contract (and the rest of the ``ShardNode`` command surface) over
  the queues.  Commands can be pipelined (``*_submit`` returning a
  :class:`PendingReply`); a worker executes strictly in order, so
  replies gather FIFO and per-stream ordering is preserved while
  different shards' legs genuinely run concurrently.  Its ``counters()``
  is the one place the supervisor-side wire and fault ledgers join the
  shard's snapshot document.
* :class:`FabricSupervisor` -- spawns/joins/restarts the workers.  A
  restart reseeds the worker from the supervisor's mirror and replays
  the WAL via ``ShardNode.recover``: because deltas only land with
  acknowledged replies, a command in flight when the worker died simply
  never happened durably (at-most-once), and the recovered shard is
  bit-identical to its state at the last acknowledged command.

Migration has no code of its own here: each migration op decodes its
payload, calls the ``ShardNode`` step of the same name and encodes the
result (``repro.fabric.migration`` drives them like any other leg).

See ``docs/SHARDING.md`` for the message table and restart/fencing
interaction.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import queue as _queue
import random
import threading
import time
from collections import deque
from dataclasses import replace as _dc_replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.fabric import codec
from repro.obs.events import emit as _emit_event
from repro.obs.trace import SpanSink, get_sink, install_sink, span
from repro.fabric import shm as shm_plane
from repro.fabric.protocol import (
    DEFAULT_DEADLINES,
    PROTOCOL_VERSION,
    WIRE_COUNTER_KEYS,
    DeadlineExceeded,
    ProtocolError,
    Reply,
    Request,
    ShardFailed,
    WorkerCrashed,
    deadline_kind,
    encode_error,
    raise_remote,
)
from repro.fabric.shard import ShardNode
from repro.storage.docstore import Collection, DocumentStore
from repro.video.synthesis import ObservationTable

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

#: commands that cannot mutate the shard's durable store: the worker
#: skips the store-delta scan entirely (no dirty-set sweep, no
#: serialization) and the client counts the skip in
#: ``delta_skipped_readonly``
READONLY_OPS = frozenset(
    {
        "ping",
        "streams",
        "live_streams",
        "fenced",
        "handle_info",
        "query",
        "query_batch",
        "counters",
    }
)

#: distinguishes supervisor instances in segment names (pid alone is
#: not enough: tests spawn several supervisors per process)
_SUPERVISOR_SEQ = itertools.count()


def _default_context():
    """Fork where available (fast, inherits imports); spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

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


def _arm_crash_after_journal(node: ShardNode, stream: str) -> None:
    """Chaos hook: the next chunk journaled for ``stream`` kills the
    process immediately after the WAL write, *before* the chunk is
    applied or acknowledged -- the exact window between journal append
    and checkpoint the fault-injection drills target."""
    handle = node.system.handle(stream)
    ingestor = handle.ingestor
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


def _dispatch(
    node: ShardNode,
    op: str,
    payload: Dict[str, Any],
    sink: Optional[shm_plane.ShmSink] = None,
    reader: Optional[shm_plane.ShmReader] = None,
) -> Any:
    """Execute one command against the worker's ShardNode.

    Bulk request payloads (table chunks, migration snapshots) resolve
    through ``reader``; bulk reply values (answer frames, per-stream
    results) defer into ``sink`` and resolve when the reply seals.
    """
    if op == "ping":
        return None
    if op == "streams":
        return node.streams()
    if op == "live_streams":
        return node.live_streams()
    if op == "fenced":
        return node.fenced()
    if op == "handle_info":
        return codec.encode_handle_info(node.handle_info(payload["stream"]))
    if op == "open_stream":
        kwargs = dict(payload["kwargs"])
        if "config" in kwargs:
            kwargs["config"] = codec.decode_config(kwargs["config"], reader)
        if kwargs.get("tune_on") is not None:
            kwargs["tune_on"] = codec.decode_table(kwargs["tune_on"], reader)
        node.open_stream(payload["stream"], **kwargs)
        return codec.encode_handle_info(node.handle_info(payload["stream"]))
    if op == "ingest_stream":
        kwargs = dict(payload["kwargs"])
        if "config" in kwargs:
            kwargs["config"] = codec.decode_config(kwargs["config"], reader)
        stream: Union[str, Any] = (
            codec.decode_table(payload["table"], reader)
            if payload.get("table") is not None
            else payload["stream"]
        )
        handle = node.ingest_stream(stream, **kwargs)
        return codec.encode_handle_info(node.handle_info(handle.stream))
    if op == "append":
        report = node.append(
            payload["stream"],
            codec.decode_table(payload["chunk"], reader),
            watermark_s=payload.get("watermark_s"),
        )
        return codec.encode_chunk_report(report)
    if op == "query":
        answer = node.query(
            payload["stream"],
            payload["clazz"],
            kx=payload.get("kx"),
            time_range=tuple(payload["time_range"])
            if payload.get("time_range")
            else None,
        )
        return codec.encode_query_answer(answer, sink)
    if op == "query_batch":
        requests = [codec.decode_query_request(r) for r in payload["requests"]]
        # worker-side span: parents this process's service/scheduler
        # spans under the router's scatter leg, so a stitched trace
        # crosses the process boundary (the sink is drained into the
        # reply's ``spans`` field by the main loop)
        ctx = next((r.trace for r in requests if r.trace is not None), None)
        with span(
            "worker:query_batch", ctx, shard=node.shard_id, n=len(requests)
        ) as child:
            if child is not None:
                requests = [
                    _dc_replace(r, trace=child) if r.trace is not None else r
                    for r in requests
                ]
            return [
                codec.encode_multi_answer(a, sink)
                for a in node.query_batch(requests)
            ]
    if op == "checkpoint":
        outcomes = node.checkpoint(
            streams=payload.get("streams"), strict=payload.get("strict", True)
        )
        return [codec.encode_checkpoint(o) for o in outcomes]
    if op == "recover":
        return node.recover(
            streams=payload.get("streams"),
            configs=codec.decode_config(payload.get("configs"), reader),
        )
    if op == "counters":
        return node.counters()
    # -- migration steps (decode -> the ShardNode step -> encode) --
    if op == "import_precheck":
        return node.import_precheck(payload["stream"])
    if op == "migrate_out":
        epoch, replayed_chunks, config = node.migrate_out(
            payload["stream"], checkpoint=payload["checkpoint"]
        )
        return {
            "epoch": epoch,
            "replayed_chunks": replayed_chunks,
            # inline, not sunk: the v4 reply shape, decoded client-side
            "config": codec.encode_config(config),
        }
    if op == "import_stream":
        staging = DocumentStore.from_json_obj(
            pickle.loads(codec.decode_blob(payload["snapshot"], reader))
        )
        config = codec.decode_config(payload["config"], reader)
        return codec.encode_handle_info(
            node.import_stream(payload["stream"], staging, config)
        )
    if op == "finish_migration":
        return {
            "fence_epoch": node.finish_migration(
                payload["stream"], payload["target_shard"]
            )
        }
    # -- chaos hooks (tests only) --
    if op == "inject_crash_after_journal":
        _arm_crash_after_journal(node, payload["stream"])
        return None
    raise ProtocolError("unknown op %r" % op)


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
    chaos: Dict[str, Any] = {
        "exit_before_reply": False,
        #: one-shot: the NEXT command sleeps this long mid-op (after the
        #: state change, before the reply) -- the hung-worker drill
        "stall_s": 0.0,
        #: persistent: every command sleeps this long before executing
        #: (a slow-but-correct worker; replies still arrive)
        "slow_s": 0.0,
        #: the next N commands execute fully but their replies are
        #: swallowed -- the client's deadline must fire and recovery
        #: must come from the mirror (at-most-once)
        "drop_replies": 0,
    }

    # a fresh span sink: fork-inherited parent spans must not ship back
    # in this worker's replies
    install_sink(SpanSink())

    store = DocumentStore.from_json_obj(store_snapshot)
    node = ShardNode(shard_id, store=store, **system_kwargs)
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
        if chaos["exit_before_reply"]:
            # SIGKILL-mid-transfer drill: die with the reply sealed
            # (its segment created) but the reply never enqueued -- the
            # orphan the supervisor must reclaim by probing the names
            # of its unacknowledged correlation ids
            os._exit(1)
        if chaos["drop_replies"] > 0:
            # dropped-reply drill: the op ran in-process but its reply
            # (and therefore its delta) is lost.  The client's deadline
            # fires, the worker is condemned, its sealed segment is
            # reclaimed by name, and the restarted shard recovers from
            # the mirror -- the op never happened durably
            chaos["drop_replies"] -= 1
            sink.close_handoff()
            return
        reply_q.put(reply)
        # hand the segment off: the supervisor attaches, reads, and
        # unlinks it; only our mapping goes now
        sink.close_handoff()

    while True:
        try:
            request = request_q.get()
        except (EOFError, OSError):
            return  # the supervisor is gone
        if request is None:
            return
        if not isinstance(request, Request):
            reply_q.put(
                Reply(
                    corr_id=-1,
                    ok=False,
                    error=encode_error(
                        ProtocolError("not a Request: %r" % (request,))
                    ),
                )
            )
            continue
        if request.version != PROTOCOL_VERSION:
            reply_q.put(
                Reply(
                    corr_id=request.corr_id,
                    ok=False,
                    error=encode_error(
                        ProtocolError(
                            "protocol version mismatch: request v%r, worker "
                            "speaks v%r" % (request.version, PROTOCOL_VERSION)
                        )
                    ),
                )
            )
            continue
        if request.op == "shutdown":
            reply_q.put(Reply(corr_id=request.corr_id, ok=True))
            return
        if request.op == "inject_crash_before_reply":
            # chaos hook: acknowledge normally now; the NEXT command
            # dies after sealing its reply segment and before enqueuing
            # the reply -- the mid-transfer orphan the reclamation
            # drills target
            reply_q.put(Reply(corr_id=request.corr_id, ok=True))
            chaos["exit_before_reply"] = True
            continue
        if request.op == "inject_stall":
            reply_q.put(Reply(corr_id=request.corr_id, ok=True))
            chaos["stall_s"] = float(request.payload.get("seconds", 10.0))
            continue
        if request.op == "inject_slow":
            reply_q.put(Reply(corr_id=request.corr_id, ok=True))
            chaos["slow_s"] = float(request.payload.get("seconds", 0.0))
            continue
        if request.op == "inject_drop_reply":
            reply_q.put(Reply(corr_id=request.corr_id, ok=True))
            chaos["drop_replies"] = int(request.payload.get("count", 1))
            continue
        if chaos["slow_s"]:
            time.sleep(chaos["slow_s"])
        reader = shm_plane.ShmReader(cache=attach_cache, owns=False)
        sink = make_sink(request.corr_id)
        try:
            value = _dispatch(
                node, request.op, request.payload, sink=sink, reader=reader
            )
            stall = chaos["stall_s"]
            if stall:
                # hung-mid-op drill: the state change happened but the
                # reply never comes in time; the client's deadline kills
                # us mid-sleep and the mirror (never advanced) wins
                chaos["stall_s"] = 0.0
                time.sleep(stall)
            if request.op in READONLY_OPS:
                # read-only commands cannot move durable state: no
                # dirty-set sweep, no delta, no mirror traffic
                delta, drops = None, ()
            elif request.payload.get("defer_delta"):
                # a pipelined scatter leg with later legs behind it on
                # this shard: the dirty sets keep accumulating and the
                # round's final leg ships one cumulative delta
                delta, drops = None, ()
            else:
                delta, drops = _store_delta(store, shadow, sink)
            send(
                Reply(
                    corr_id=request.corr_id,
                    ok=True,
                    value=value,
                    store_delta=delta,
                    store_drops=drops,
                    # worker-side spans of this command (empty unless the
                    # command carried a sampled trace); the client absorbs
                    # them into the parent's sink for stitching
                    spans=tuple(get_sink().drain()),
                ),
                sink,
            )
        except Exception as exc:
            # errors ship the delta too: a strict checkpoint that failed
            # halfway still moved durable state the mirror must track --
            # and a deferred leg that failed must not defer it either.
            # A fresh sink: the failed command's partially-encoded value
            # payloads must not leak into the error reply's segment.
            error_sink = make_sink(request.corr_id)
            delta, drops = _store_delta(store, shadow, error_sink)
            send(
                Reply(
                    corr_id=request.corr_id,
                    ok=False,
                    error=encode_error(exc),
                    store_delta=delta,
                    store_drops=drops,
                    # drain even on error: a failed command's spans must
                    # not leak into the next reply
                    spans=tuple(get_sink().drain()),
                ),
                error_sink,
            )


# ---------------------------------------------------------------------------
# supervisor side
# ---------------------------------------------------------------------------

class _Worker:
    """The supervisor's handle on one worker process."""

    def __init__(
        self,
        process,
        request_q,
        reply_q,
        mirror: DocumentStore,
        reply_prefix: str = "",
    ):
        self.process = process
        self.request_q = request_q
        self.reply_q = reply_q
        #: the parent's authoritative copy of the worker's durable store,
        #: advanced by every acknowledged command's delta
        self.mirror = mirror
        self.next_corr = 0
        self.pending: deque = deque()
        #: names this worker's reply segments under
        #: ``{reply_prefix}-r{corr_id}`` (deterministic: reclaimable)
        self.reply_prefix = reply_prefix
        #: corr_id -> pooled request segment leased for that command's
        #: flight; released when the command's reply gathers
        self.request_leases: Dict[int, str] = {}
        #: client-side wire counters (survive restarts: the fabric's
        #: traffic totals are monotonic per shard, like its journal's)
        self.wire: Dict[str, float] = {k: 0.0 for k in WIRE_COUNTER_KEYS}
        #: corr_id -> reply deadline (seconds) resolved at submit time
        self.deadline_s: Dict[int, float] = {}
        #: per-shard fault counters (survive restarts, like ``wire``)
        self.faults: Dict[str, float] = {
            "worker_restarts": 0.0,
            "deadline_exceeded": 0.0,
        }
        #: set when this incarnation is written off (dead, or deadline
        #: expired and the supervisor killed it): its in-flight state is
        #: untrustworthy, so the client refuses to submit or gather
        #: against it until a restart swaps in a fresh incarnation
        self.condemned = False
        #: serializes this incarnation's submit+gather pairs so the
        #: watchdog's heartbeat never interleaves with a caller's
        #: pipelined round (replies are strictly FIFO per worker)
        self.lock = threading.RLock()

    def close_queues(self) -> None:
        for q in (self.request_q, self.reply_q):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass


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
    ) -> PendingReply:
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
            if op in READONLY_OPS:
                worker.wire["delta_skipped_readonly"] += 1
            worker.request_q.put(
                Request(corr_id=corr_id, op=op, payload=payload)
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

    # -- stream lifecycle --------------------------------------------------
    def streams(self) -> List[str]:
        return self._call("streams", {})

    def live_streams(self) -> List[str]:
        return self._call("live_streams", {})

    def fenced(self) -> List[str]:
        return self._call("fenced", {})

    def handle_info(self, stream: str):
        return self._call(
            "handle_info", {"stream": stream}, codec.decode_handle_info
        )

    def open_stream(
        self, stream: str, durable: bool = True, wal_reset: bool = False, **kwargs
    ):
        payload_kwargs = dict(kwargs, durable=durable, wal_reset=wal_reset)
        sink = self._supervisor._request_sink()
        if "config" in payload_kwargs:
            payload_kwargs["config"] = codec.encode_config(
                payload_kwargs["config"], sink
            )
        if payload_kwargs.get("tune_on") is not None:
            payload_kwargs["tune_on"] = codec.encode_table(
                payload_kwargs["tune_on"], sink
            )
        return self._call(
            "open_stream",
            {"stream": stream, "kwargs": payload_kwargs},
            codec.decode_handle_info,
            sink=sink,
        )

    def ingest_stream(self, stream, **kwargs):
        payload_kwargs = dict(kwargs)
        payload: Dict[str, Any] = {"kwargs": payload_kwargs}
        sink = self._supervisor._request_sink()
        if "config" in payload_kwargs:
            payload_kwargs["config"] = codec.encode_config(
                payload_kwargs["config"], sink
            )
        if isinstance(stream, ObservationTable):
            payload["table"] = codec.encode_table(stream, sink)
            payload["stream"] = stream.stream
        else:
            payload["table"] = None
            payload["stream"] = stream
        return self._call(
            "ingest_stream", payload, codec.decode_handle_info, sink=sink
        )

    def append(self, stream: str, chunk, watermark_s: Optional[float] = None):
        return self.append_submit(stream, chunk, watermark_s=watermark_s).result()

    def append_submit(
        self,
        stream: str,
        chunk,
        watermark_s: Optional[float] = None,
        defer_delta: bool = False,
    ) -> PendingReply:
        """Pipelined append: enqueue now, gather the report later.

        ``defer_delta=True`` marks this leg as a non-final append of one
        scatter round on its shard: the worker skips the reply's store
        delta and lets the round's last leg ship one cumulative delta
        (the mirror then advances at round granularity -- see
        ``docs/SHARDING.md``).  Callers must guarantee a non-deferred
        append follows on the same shard before the round ends.
        """
        sink = self._supervisor._request_sink()
        payload = {
            "stream": stream,
            "chunk": codec.encode_table(chunk, sink),
            "watermark_s": watermark_s,
        }
        if defer_delta:
            payload["defer_delta"] = True
        return self._submit(
            "append", payload, codec.decode_chunk_report, sink=sink
        )

    # -- serving -----------------------------------------------------------
    def query(self, stream, clazz, kx=None, time_range=None):
        return self._call(
            "query",
            {
                "stream": stream,
                "clazz": clazz,
                "kx": kx,
                "time_range": list(time_range) if time_range else None,
            },
            codec.decode_query_answer,
        )

    def query_batch(self, requests: Sequence) -> List:
        return self.query_batch_submit(requests).result()

    def query_batch_submit(self, requests: Sequence) -> PendingReply:
        """Pipelined scatter leg: one verification round on the worker."""
        return self._submit(
            "query_batch",
            {"requests": [codec.encode_query_request(r) for r in requests]},
            lambda value, reader=None: [
                codec.decode_multi_answer(a, reader) for a in value
            ],
        )

    # -- durability ----------------------------------------------------------
    def checkpoint(self, streams=None, strict: bool = True) -> List:
        return self.checkpoint_submit(streams=streams, strict=strict).result()

    def checkpoint_submit(self, streams=None, strict: bool = True) -> PendingReply:
        return self._submit(
            "checkpoint",
            {
                "streams": list(streams) if streams is not None else None,
                "strict": strict,
            },
            lambda value, reader=None: [
                codec.decode_checkpoint(o, reader) for o in value
            ],
        )

    def recover(self, streams=None, configs=None) -> List[str]:
        sink = self._supervisor._request_sink()
        return self._call(
            "recover",
            {
                "streams": list(streams) if streams is not None else None,
                "configs": codec.encode_config(
                    dict(configs) if configs is not None else None, sink
                ),
            },
            sink=sink,
        )

    def ensure_alive(self, configs=None) -> bool:
        """Respawn the worker if it is dead or condemned.  False when
        the crash-loop breaker is tripped or the respawn itself failed:
        a retry would meet the same failure."""
        try:
            self._supervisor.ensure_alive(self.shard_id, configs=configs)
        except (ShardFailed, WorkerCrashed, DeadlineExceeded):
            return False
        return True

    # -- migration (the ShardNode steps of the same names) ---------------------
    def import_precheck(self, stream: str) -> None:
        self._call("import_precheck", {"stream": stream})

    def migrate_out(self, stream: str, checkpoint: bool = True):
        return self._call(
            "migrate_out",
            {"stream": stream, "checkpoint": checkpoint},
            lambda value, reader=None: (
                value["epoch"],
                value["replayed_chunks"],
                codec.decode_config(value["config"], reader),
            ),
        )

    def import_stream(self, stream: str, staging_store: DocumentStore, config):
        sink = self._supervisor._request_sink()
        snapshot = pickle.dumps(
            staging_store.to_json_obj(), protocol=pickle.HIGHEST_PROTOCOL
        )
        return self._call(
            "import_stream",
            {
                "stream": stream,
                "snapshot": codec.encode_blob(snapshot, sink),
                "config": codec.encode_config(config, sink),
            },
            codec.decode_handle_info,
            sink=sink,
        )

    def finish_migration(self, stream: str, target_shard: str) -> int:
        return self._call(
            "finish_migration", {"stream": stream, "target_shard": target_shard}
        )["fence_epoch"]

    # -- observability -------------------------------------------------------
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

    # -- chaos (tests) -------------------------------------------------------
    def inject_stall(self, seconds: float = 10.0) -> None:
        """Arm the worker to hang mid-op: the NEXT command executes,
        then sleeps ``seconds`` before replying -- past any sane
        deadline, so the client condemns the worker mid-sleep."""
        self._call("inject_stall", {"seconds": float(seconds)})

    def inject_slow(self, seconds: float) -> None:
        """Make the worker slow-but-correct: every subsequent command
        sleeps ``seconds`` before executing (0 turns it off)."""
        self._call("inject_slow", {"seconds": float(seconds)})

    def inject_drop_reply(self, count: int = 1) -> None:
        """Swallow the next ``count`` replies: the ops execute in the
        worker but never acknowledge -- the deadline fires and the
        restarted shard recovers from the mirror (at-most-once)."""
        self._call("inject_drop_reply", {"count": int(count)})

    def inject_crash_after_journal(self, stream: str) -> None:
        """Arm the worker to die right after the next WAL append for
        ``stream`` -- before applying or acknowledging the chunk."""
        self._call("inject_crash_after_journal", {"stream": stream})

    def inject_crash_before_reply(self) -> None:
        """Arm the worker to die after its next command seals the reply
        (creating its data-plane segment) but before the reply is
        enqueued -- the mid-transfer orphan the reclamation drills
        target."""
        self._call("inject_crash_before_reply", {})


class _ShardHealth:
    """Supervisor-side health record for one shard's crash-loop breaker."""

    __slots__ = ("state", "consecutive_failures", "last_error")

    def __init__(self):
        self.state = "healthy"  # "healthy" | "failed"
        #: failure events (condemns, failed restarts) since the last
        #: healthy reply; the breaker trips at max_consecutive_failures
        self.consecutive_failures = 0
        self.last_error: Optional[str] = None


class FabricSupervisor:
    """Spawns, restarts, and tears down one worker process per shard.

    The supervisor keeps each shard's *mirror* store -- seeded from the
    optional ``stores`` argument and advanced by every acknowledged
    command's delta.  :meth:`restart` respawns a dead (or killed) worker
    from that mirror and replays its WAL through
    ``ShardNode.recover``, which is the whole crash-recovery story:
    no pickled live state, just the PR-4 durability machinery.

    ``system_kwargs`` are forwarded to every worker's
    :class:`~repro.fabric.shard.ShardNode` (e.g. ``num_query_gpus``).
    Use as a context manager to guarantee the fleet is torn down.

    The data plane: bulk payloads whose message totals at least
    ``shm_threshold`` bytes travel through shared segments -- requests
    through a supervisor-owned :class:`~repro.fabric.shm.ShmPool`,
    replies through per-command deterministic segments.  Smaller
    messages, a host that cannot serve shared memory and a failed
    allocation inline through the queues, bit-identically.

    Self-healing (see ``docs/RESILIENCE.md``): every command carries a
    per-op-kind reply deadline (``deadlines`` overrides the
    ``protocol.DEFAULT_DEADLINES`` table); expiry *condemns* the worker
    -- killed on the spot, shm leases reclaimed, clients refused --
    and raises :class:`~repro.fabric.protocol.DeadlineExceeded`.
    :meth:`ensure_alive` is the one respawn door (used by the router's
    retries and by :meth:`start_watchdog`'s health loop), with
    exponential backoff + jitter and a crash-loop breaker that marks a
    shard ``FAILED`` (:class:`~repro.fabric.protocol.ShardFailed`)
    after ``max_consecutive_failures`` failures with no healthy reply
    in between.
    """

    def __init__(
        self,
        shard_ids: Sequence[str],
        stores: Optional[Mapping[str, DocumentStore]] = None,
        mp_context=None,
        shm_threshold: int = shm_plane.DEFAULT_SHM_THRESHOLD,
        deadlines: Optional[Mapping[str, float]] = None,
        max_consecutive_failures: int = 5,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        backoff_jitter: float = 0.25,
        **system_kwargs,
    ):
        if not shard_ids:
            raise ValueError("a fabric needs at least one shard worker")
        if len(set(shard_ids)) != len(shard_ids):
            raise ValueError("duplicate shard ids: %s" % list(shard_ids))
        self._ctx = mp_context or _default_context()
        self._system_kwargs = dict(system_kwargs)
        self._threshold = int(shm_threshold)
        self._deadlines = dict(DEFAULT_DEADLINES)
        if deadlines:
            unknown = set(deadlines) - set(self._deadlines)
            if unknown:
                raise ValueError(
                    "unknown deadline kinds %s (have: %s)"
                    % (sorted(unknown), sorted(self._deadlines))
                )
            self._deadlines.update(
                {kind: float(s) for kind, s in deadlines.items()}
            )
        self.max_consecutive_failures = int(max_consecutive_failures)
        self._backoff_base_s = float(backoff_base_s)
        self._backoff_max_s = float(backoff_max_s)
        self._backoff_jitter = float(backoff_jitter)
        #: leaf lock for health-record flips (never held while taking
        #: another lock -- breaks any cycle with worker/restart locks)
        self._health_mutex = threading.Lock()
        #: serializes ensure_alive/restart so the watchdog and a
        #: retrying router never double-respawn one shard
        self._restart_lock = threading.RLock()
        self._health: Dict[str, _ShardHealth] = {
            shard_id: _ShardHealth() for shard_id in shard_ids
        }
        self._watchdog: Optional["FabricWatchdog"] = None
        self._prefix = "fab%x-%d" % (os.getpid(), next(_SUPERVISOR_SEQ))
        self._incarnations = itertools.count()
        #: None on a host without shared memory: every payload inlines
        self._pool = (
            shm_plane.ShmPool(self._prefix + "q")
            if shm_plane.shm_available()
            else None
        )
        #: request segments still leased when :meth:`shutdown` closed
        #: the pool -- the leak check the tests assert empty
        self.leaked_segments: List[str] = []
        self._workers: Dict[str, _Worker] = {}
        for shard_id in shard_ids:
            mirror = None
            if stores is not None:
                mirror = stores.get(shard_id)
            self._workers[shard_id] = self._spawn(
                shard_id, mirror if mirror is not None else DocumentStore()
            )

    # -- the data plane ------------------------------------------------------
    def _request_sink(self) -> shm_plane.ShmSink:
        """A sink for one outbound command's bulk payloads, backed by
        the pooled allocator (inline when there is no pool)."""
        return shm_plane.ShmSink(
            alloc=self._pool.allocate if self._pool is not None else None,
            threshold=self._threshold,
        )

    def _release_lease(self, name: str) -> None:
        if self._pool is not None:
            self._pool.release(name)

    def _reclaim(self, worker: _Worker) -> None:
        """Reclaim a dead worker's data-plane remains: return its
        leased request segments to the pool (no concurrent reader can
        exist) and unlink any orphan reply segment a command in flight
        left behind (the worker died between sealing and replying).
        Runs at failure-*detection* time (``_condemn``), not just at
        restart -- a condemned worker must not sit on leases for the
        whole outage."""
        if self._pool is not None:
            self._pool.release_many(worker.request_leases.values())
        worker.request_leases.clear()
        if worker.reply_prefix:
            for corr_id in worker.pending:
                shm_plane.unlink_segment(
                    _reply_segment_name(worker.reply_prefix, corr_id)
                )
        # no command of a condemned incarnation will ever be gathered:
        # its reply deadlines die with it (a leaked entry would otherwise
        # outlive the outage for the incarnation's lifetime)
        worker.deadline_s.clear()

    # -- lifecycle -----------------------------------------------------------
    def _spawn(self, shard_id: str, mirror: DocumentStore) -> _Worker:
        request_q = self._ctx.Queue()
        reply_q = self._ctx.Queue()
        # per-incarnation prefix: a restarted worker can never collide
        # with (or resurrect) its dead predecessor's reply segments
        reply_prefix = ""
        if self._pool is not None:
            reply_prefix = "%s-%s-i%d" % (
                self._prefix,
                shard_id,
                next(self._incarnations),
            )
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                shard_id,
                request_q,
                reply_q,
                mirror.to_json_obj(),
                self._system_kwargs,
                self._threshold,
                reply_prefix,
            ),
            name="shard-worker-%s" % shard_id,
            daemon=True,
        )
        process.start()
        _emit_event("worker.spawn", shard=shard_id, worker_pid=process.pid)
        return _Worker(process, request_q, reply_q, mirror, reply_prefix)

    def _worker(self, shard_id: str) -> _Worker:
        try:
            return self._workers[shard_id]
        except KeyError:
            raise KeyError(
                "no shard worker %r (have: %s)"
                % (shard_id, ", ".join(self.shard_ids()))
            )

    def shard_ids(self) -> List[str]:
        return sorted(self._workers)

    def client(self, shard_id: str) -> ShardClient:
        self._worker(shard_id)  # validate
        return ShardClient(self, shard_id)

    def clients(self) -> List[ShardClient]:
        return [self.client(shard_id) for shard_id in self.shard_ids()]

    def store(self, shard_id: str) -> DocumentStore:
        """The shard's supervisor-side mirror store (read-only by
        convention: deltas from the worker overwrite whole collections)."""
        return self._worker(shard_id).mirror

    def alive(self, shard_id: str) -> bool:
        return self._worker(shard_id).process.is_alive()

    def healthy(self, shard_id: str) -> bool:
        """Alive, not condemned, and the breaker has not tripped."""
        worker = self._worker(shard_id)
        return (
            worker.process.is_alive()
            and not worker.condemned
            and self._health[shard_id].state != "failed"
        )

    def health(self, shard_id: str) -> Dict[str, Any]:
        """The shard's breaker record (state/failure streak/last error)."""
        record = self._health[shard_id]
        return {
            "state": record.state,
            "consecutive_failures": record.consecutive_failures,
            "last_error": record.last_error,
        }

    def deadline_for(self, op: str) -> float:
        """The reply deadline (seconds) one op gets on this fabric."""
        return self._deadlines[deadline_kind(op)]

    def _condemn(self, worker: _Worker, shard_id: str, why: str) -> None:
        """Write a worker incarnation off at failure-*detection* time:
        kill it if still running (a hung worker must not keep mutating
        past its deadline), reclaim its shm leases immediately -- not
        at some later restart -- and mark it so clients refuse further
        traffic until a fresh incarnation is swapped in.  Counts one
        failure toward the shard's crash-loop breaker."""
        with self._health_mutex:
            if worker.condemned:
                return
            worker.condemned = True
            record = self._health.get(shard_id)
            if record is not None and record.state != "failed":
                record.consecutive_failures += 1
                record.last_error = why
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
        self._reclaim(worker)
        _emit_event("worker.condemn", shard=shard_id, why=why)

    def _note_healthy(self, shard_id: str) -> None:
        """A gathered reply proves the worker responsive: reset its
        failure streak (the breaker counts *consecutive* failures)."""
        record = self._health.get(shard_id)
        if record is not None and record.state != "failed":
            record.consecutive_failures = 0

    def ensure_alive(
        self,
        shard_id: str,
        configs: Optional[Mapping[str, Any]] = None,
    ) -> bool:
        """Respawn the shard's worker if it is dead or condemned.

        The self-healing entry point (watchdog and router retries both
        funnel here): no-op on a healthy worker, otherwise
        :meth:`restart` behind exponential backoff + jitter, and a
        crash-loop circuit breaker that marks the shard ``FAILED``
        (raising :class:`ShardFailed`, here and on every later call)
        after ``max_consecutive_failures`` failures with no healthy
        reply in between.  Returns True when a restart happened.
        """
        with self._restart_lock:
            worker = self._worker(shard_id)
            record = self._health[shard_id]
            if worker.process.is_alive() and not worker.condemned:
                return False
            if record.state == "failed":
                raise ShardFailed(
                    "shard %r is FAILED after %d consecutive failures "
                    "(last: %s); fix the cause and call reset_failed"
                    % (shard_id, record.consecutive_failures, record.last_error)
                )
            if record.consecutive_failures >= self.max_consecutive_failures:
                with self._health_mutex:
                    record.state = "failed"
                _emit_event(
                    "breaker.trip",
                    shard=shard_id,
                    failures=record.consecutive_failures,
                    last_error=record.last_error,
                )
                raise ShardFailed(
                    "shard %r marked FAILED: %d consecutive failures "
                    "without a healthy reply (last: %s)"
                    % (shard_id, record.consecutive_failures, record.last_error)
                )
            if record.consecutive_failures > 1:
                # repeated failures: back off exponentially (with
                # jitter, so a fleet-wide outage does not respawn every
                # shard in lockstep)
                delay = min(
                    self._backoff_max_s,
                    self._backoff_base_s
                    * (2.0 ** (record.consecutive_failures - 1)),
                )
                time.sleep(delay * (1.0 + self._backoff_jitter * random.random()))
            try:
                self.restart(shard_id, configs=configs)
            except Exception as exc:
                with self._health_mutex:
                    record.consecutive_failures += 1
                    record.last_error = str(exc)
                    tripped = (
                        record.consecutive_failures
                        >= self.max_consecutive_failures
                    )
                    if tripped:
                        record.state = "failed"
                if tripped:
                    _emit_event(
                        "breaker.trip",
                        shard=shard_id,
                        failures=record.consecutive_failures,
                        last_error=str(exc),
                    )
                    raise ShardFailed(
                        "shard %r marked FAILED after %d consecutive "
                        "failures (last restart attempt: %s)"
                        % (shard_id, record.consecutive_failures, exc)
                    ) from exc
                raise
            return True

    def reset_failed(self, shard_id: str) -> None:
        """Re-arm a tripped crash-loop breaker (after fixing the cause);
        the next :meth:`ensure_alive` may restart the shard again."""
        record = self._health[shard_id]
        with self._health_mutex:
            record.state = "healthy"
            record.consecutive_failures = 0
            record.last_error = None
        _emit_event("breaker.rearm", shard=shard_id)

    # -- the watchdog --------------------------------------------------------
    def start_watchdog(
        self,
        interval_s: float = 0.5,
        heartbeat_deadline_s: Optional[float] = None,
        configs: Optional[Mapping[str, Any]] = None,
    ) -> "FabricWatchdog":
        """Start the background health loop (idempotent): it respawns
        crashed/condemned workers and heartbeats idle ones so a shard
        hung *between* commands is caught without any caller waiting on
        it.  ``configs`` feed the restart-path ``recover`` (specialized
        models the journaled descriptors cannot rebuild)."""
        if self._watchdog is None:
            self._watchdog = FabricWatchdog(
                self,
                interval_s=interval_s,
                heartbeat_deadline_s=heartbeat_deadline_s,
                configs=configs,
            )
            self._watchdog.start()
        return self._watchdog

    def stop_watchdog(self) -> None:
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None

    def kill(self, shard_id: str) -> None:
        """SIGKILL the worker (chaos drills).  The mirror keeps the
        state as of the last acknowledged command; :meth:`restart`
        resumes from it."""
        worker = self._worker(shard_id)
        with self._health_mutex:
            # deliberate kill: condemn without charging the breaker
            worker.condemned = True
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
        self._reclaim(worker)

    def restart(
        self,
        shard_id: str,
        recover: bool = True,
        configs: Optional[Mapping[str, Any]] = None,
    ) -> List[str]:
        """Respawn a worker from its mirror and replay its WAL.

        Returns the recovered stream names (``ShardNode.recover``:
        streams fenced by a migration away are skipped, and ``configs``
        supplies ingest configurations the journaled descriptor cannot
        rebuild -- specialized models).
        """
        with self._restart_lock:
            worker = self._worker(shard_id)
            with self._health_mutex:
                worker.condemned = True
            if worker.process.is_alive():
                worker.process.kill()
            worker.process.join()
            self._reclaim(worker)
            worker.close_queues()
            fresh = self._spawn(shard_id, worker.mirror)
            fresh.wire = worker.wire  # traffic totals are monotonic per shard
            fresh.faults = worker.faults  # so is the fault ledger
            fresh.faults["worker_restarts"] += 1
            self._workers[shard_id] = fresh
            _emit_event(
                "worker.restart",
                shard=shard_id,
                restarts=fresh.faults["worker_restarts"],
            )
            if recover:
                return self.client(shard_id).recover(configs=configs)
            return []

    def shutdown(self) -> None:
        """Stop every worker (graceful command, then kill) and close
        the queues.  Idempotent."""
        self.stop_watchdog()
        for shard_id, worker in list(self._workers.items()):
            if worker.process.is_alive():
                try:
                    worker.request_q.put(
                        Request(corr_id=worker.next_corr, op="shutdown")
                    )
                    worker.next_corr += 1
                except Exception:
                    pass
                worker.process.join(timeout=5)
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join()
            self._reclaim(worker)
            worker.close_queues()
        if self._pool is not None:
            # the leak check: anything still leased at teardown was
            # neither gathered nor reclaimed -- record it loudly
            self.leaked_segments.extend(self._pool.close())

    def __enter__(self) -> "FabricSupervisor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


class FabricWatchdog:
    """The supervisor's background health loop (one daemon thread).

    Every ``interval_s`` it sweeps the fleet:

    * a dead or condemned worker (crashed on its own, or deadline-killed
      by a client) is respawned through
      :meth:`FabricSupervisor.ensure_alive` -- mirror+WAL recovery,
      backoff, breaker and all;
    * an *idle* worker is heartbeated with a short-deadline ``ping``, so
      a shard hung between commands (wedged GC, stuck syscall) is
      detected and restarted even when no caller is waiting on it.

    The heartbeat only runs when the worker's lock is free and it has
    no in-flight commands: replies are strictly FIFO, so a ping behind
    a busy round would just measure the round -- and a worker moving
    its own traffic is evidently alive.  Division of labor: *clients*
    enforce deadlines and condemn; the watchdog *restarts*.
    """

    def __init__(
        self,
        supervisor: FabricSupervisor,
        interval_s: float = 0.5,
        heartbeat_deadline_s: Optional[float] = None,
        configs: Optional[Mapping[str, Any]] = None,
    ):
        self._supervisor = supervisor
        self._interval_s = float(interval_s)
        #: None -> the fabric's control-kind deadline
        self._heartbeat_deadline_s = heartbeat_deadline_s
        self._configs = configs
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="fabric-watchdog", daemon=True
        )
        #: restarts this watchdog performed (observability for drills)
        self.restarts = 0

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=30.0)

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            for shard_id in self._supervisor.shard_ids():
                if self._stop.is_set():
                    return
                try:
                    self._check(shard_id)
                except ShardFailed:
                    continue  # breaker tripped: stop poking this shard
                except Exception:
                    continue  # one shard's probe must never kill the loop

    def _check(self, shard_id: str) -> None:
        supervisor = self._supervisor
        try:
            worker = supervisor._worker(shard_id)
        except KeyError:
            return  # torn down under us
        if supervisor._health[shard_id].state == "failed":
            return
        if worker.condemned or not worker.process.is_alive():
            if supervisor.ensure_alive(shard_id, configs=self._configs):
                self.restarts += 1
                _emit_event("watchdog.respawn", shard=shard_id)
            return
        # idle heartbeat: non-blocking lock + empty pipeline, or skip
        if not worker.lock.acquire(blocking=False):
            return
        try:
            if worker.pending:
                return
            try:
                supervisor.client(shard_id).ping(
                    deadline_s=self._heartbeat_deadline_s
                )
            except (DeadlineExceeded, WorkerCrashed):
                # the failed ping condemned the incarnation; respawn it
                if supervisor.ensure_alive(shard_id, configs=self._configs):
                    self.restarts += 1
                    _emit_event("watchdog.respawn", shard=shard_id)
        finally:
            worker.lock.release()
