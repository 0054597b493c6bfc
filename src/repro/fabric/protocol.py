"""Request/reply envelopes for the fabric's worker processes.

The wire discipline between a :class:`~repro.fabric.client.ShardClient`
(in the supervisor process) and its shard worker is deliberately tiny:

* every command travels as one :class:`Request` carrying a correlation
  id, an operation name, and its keyword arguments as one
  ``repro.fabric.codec.encode`` payload;
* every command produces exactly one :class:`Reply` echoing the
  correlation id, carrying either an encoded value or a marshalled
  error, plus the encoded *store delta* -- the shard store collections
  the command changed, so the supervisor's mirror tracks the worker's
  durable state (see ``docs/SHARDING.md``);
* a worker processes requests strictly in order, so replies are FIFO
  per shard and a client that pipelines N requests gathers N replies in
  submission order -- no reordering, no windowing.

**Where an op is declared:** once, as a row of :data:`OPS`.  The
worker's generic dispatch (``repro.fabric.worker``), the ``ShardClient``
method generated for it (``repro.fabric.client``), deadlines, the
readonly delta skip and the message table of ``docs/SHARDING.md`` all
read that row.  Adding an op is one row plus the ``ShardNode`` method of
the same name (the single source of its parameter list);
``tests/test_fabric_ops.py`` fails if either half is missing.

Version skew between a client and a worker (e.g. a supervisor restarted
onto newer code while old workers linger) is refused up front: a worker
rejects any request whose ``version`` is not its own
:data:`PROTOCOL_VERSION` with a :class:`ProtocolError` instead of
guessing at the payload's shape.

Errors cross the boundary by value.  :func:`encode_error` prefers
pickling the exception itself (so ``KeyError``/``MigrationError``/
``StaleEpochError`` re-raise client-side with their original type and
arguments); exceptions that refuse to pickle fall back to a marshalled
``(module, type, message)`` triple that :func:`raise_remote`
reconstructs, or wraps in :class:`RemoteShardError` when the type
cannot be rebuilt.  Either way the worker-side traceback travels along
as text and is attached to the raised exception as
``remote_traceback``.
"""

from __future__ import annotations

import pickle
import traceback
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.obs.metrics import register_counters

#: bumped whenever the envelope or any codec payload shape changes
#: (v2: shared-memory data plane -- bulk payload fields may carry a
#: segment descriptor instead of inline bytes, and ``store_delta`` is a
#: blob envelope of doc-level collection deltas; v3: query-request
#: payloads carry the QoS fields ``priority``/``deadline_s`` used for
#: deadline-aware verification batch formation; v4: query-request
#: payloads may carry an optional ``trace`` context, replies may carry
#: worker-side ``spans``; v5: the five per-section observability ops
#: are gone; ``counters`` is the one snapshot op; v6: a request payload
#: is exactly the op's keyword arguments -- ``open_stream`` /
#: ``ingest_stream`` kwargs flattened in, ``defer_delta`` moved to the
#: envelope -- and ``migrate_out`` / ``finish_migration`` answer a
#: pickled triple / a bare epoch; v7: ``ingest_stream`` and the
#: ``source`` codec are gone; v8: every payload -- a request's keyword
#: arguments, a reply's value, a store delta -- is one protocol-5 pickle
#: whose stream and out-of-band buffers are its parts; no kind tags;
#: v9: answers carry no accuracy grade -- ``QueryAnswer.metrics`` is
#: gone and a ``MultiStreamAnswer`` slice is a bare ``QueryResult``;
#: v10: a ``StreamCheckpoint`` has no ``durable`` flag -- only durable
#: sessions checkpoint; v11: the table holds only ``ShardNode`` verbs --
#: the loop's own rows (goodbye and the fault drills) are gone, and a
#: ``None`` on the request queue is the goodbye; v12: request payloads
#: are always inline -- only a reply's parts may be shm descriptors)
PROTOCOL_VERSION = 12

#: the client-side wire counters every shard surfaces in the ``cost``
#: section of its ``counters()`` document (summable across shards;
#: in-process ShardNodes report them as zeros so the two fabric modes
#: stay key-compatible).
#: Registered into the shared kind registry (``COUNTER_KINDS``) here,
#: the owning module.
WIRE_COUNTER_KEYS = register_counters(
    "sum",
    "wire_bytes_sent",
    "wire_bytes_received",
    "shm_bytes",
    "delta_docs_shipped",
    "delta_skipped_readonly",
)

#: the fault-tolerance counters every shard surfaces in the same
#: section (same key-parity rule as :data:`WIRE_COUNTER_KEYS`:
#: in-process ShardNodes report zeros).  ``worker_restarts`` and
#: ``deadline_exceeded`` are tracked per shard by the supervisor;
#: ``retries`` and ``partial_answers`` are router-side and land in the
#: fleet total only (see ``docs/RESILIENCE.md``).
FAULT_COUNTER_KEYS = register_counters(
    "sum",
    "worker_restarts",
    "deadline_exceeded",
    "retries",
    "partial_answers",
)


@dataclass(frozen=True)
class Op:
    """One row of :data:`OPS`: all the wire knows about one op.

    ``kind`` is its deadline kind, a key of :data:`DEFAULT_DEADLINES`:
    queries and control chatter must fail fast (they block
    scatter-gather rounds), ingest moves real data, recovery/migration
    legs replay WALs and ship snapshots.  A ``readonly`` op
    cannot move the durable store: the worker skips the store-delta
    sweep and the client counts it in ``delta_skipped_readonly``.
    Every op is the ``ShardNode`` method of its name.
    """

    kind: str
    readonly: bool = False


#: the op vocabulary, closed: each wire op is declared here, once
OPS: Dict[str, Op] = {
    # inspection
    "ping": Op("control", readonly=True),
    "streams": Op("control", readonly=True),
    "live_streams": Op("control", readonly=True),
    "fenced": Op("control", readonly=True),
    "handle_info": Op("control", readonly=True),
    "counters": Op("control", readonly=True),
    # stream lifecycle and ingest
    "open_stream": Op("ingest"),
    "append": Op("ingest"),
    # serving
    "query": Op("query", readonly=True),
    "query_batch": Op("query", readonly=True),
    # durability
    "checkpoint": Op("ingest"),
    "recover": Op("slow"),
    # the migration steps, in call order (target, source, target, source)
    "import_precheck": Op("control", readonly=True),
    "migrate_out": Op("slow"),
    "import_stream": Op("slow"),
    "finish_migration": Op("ingest"),
}

#: default per-kind deadlines (seconds); override per supervisor via
#: ``FabricSupervisor(deadlines={"query": 5.0, ...})``
DEFAULT_DEADLINES: Dict[str, float] = {
    "control": 30.0,
    "query": 60.0,
    "ingest": 120.0,
    "slow": 600.0,
}


def deadline_kind(op: str) -> str:
    """The deadline kind of one op of the table."""
    return OPS[op].kind


class ProtocolError(RuntimeError):
    """A request the worker cannot honor (version skew, unknown op)."""


class DeadlineExceeded(RuntimeError):
    """A command's reply did not arrive within its deadline.

    The worker is *condemned* on the spot: killed, its orphan reply
    segments unlinked, and its client refuses further traffic until
    ``FabricSupervisor.restart``/``ensure_alive`` respawns it from the
    mirror+WAL.  Like :class:`WorkerCrashed`, the expired command's
    effects never reached the mirror, so it never happened durably --
    the caller may retry it against the restarted worker.
    """


class ShardFailed(RuntimeError):
    """The crash-loop circuit breaker tripped: the shard racked up N
    consecutive failures without an intervening healthy reply and the
    supervisor stopped restarting it.  ``FabricSupervisor.reset_failed``
    re-arms the breaker after the underlying cause is fixed."""


class WorkerCrashed(RuntimeError):
    """The shard worker died before replying.

    The command's effects are not reflected in the supervisor's store
    mirror (deltas ship with the reply), so after a restart the shard
    recovers to its state as of the last *acknowledged* command --
    at-most-once semantics: an unacknowledged command simply never
    happened durably, and the caller may retry it.
    """


class RemoteShardError(RuntimeError):
    """A worker-side failure whose original exception type could not be
    reconstructed client-side."""


@dataclass(frozen=True)
class Request:
    """One command envelope: supervisor -> worker."""

    corr_id: int
    op: str
    #: the op's keyword arguments as one ``codec.encode`` envelope
    #: (None: no arguments)
    payload: Optional[Dict[str, Any]] = None
    version: int = PROTOCOL_VERSION
    #: a non-final leg of one pipelined round on its shard: the worker
    #: ships no store delta with this reply, the round's last leg does
    defer_delta: bool = False


@dataclass(frozen=True)
class Reply:
    """One command's outcome: worker -> supervisor.

    ``value`` is the answer as one ``codec.encode`` envelope (None for
    an error).  ``store_delta`` is one envelope too, of the list of
    per-collection delta documents -- doc-level ``"cdelta"`` change
    sets when the mirror shares the collection's baseline, whole-collection
    ``"cfull"`` snapshots otherwise (see
    :meth:`repro.storage.docstore.Collection.delta_snapshot`);
    ``store_drops`` lists collections the command removed.  Read-only
    commands and deferred scatter legs ship no delta at all; errors
    ship the delta too -- a strict checkpoint that fails halfway still
    moved durable state, and the mirror must track the worker's truth,
    not the caller's wish.

    ``spans`` (v4) carries the worker-side trace spans the command
    produced -- plain dicts (``repro.obs.trace``), shipped only when
    the request was sampled, absorbed into the supervisor-side sink so
    one exported trace stitches across the process boundary.
    """

    corr_id: int
    ok: bool
    value: Any = None
    error: Optional[Dict[str, Any]] = None
    store_delta: Optional[Dict[str, Any]] = None
    store_drops: Tuple[str, ...] = ()
    spans: Tuple[Dict[str, Any], ...] = ()


@dataclass(frozen=True)
class StreamHandleInfo:
    """A stream handle's wire-safe summary.

    Live :class:`~repro.core.system.StreamHandle` objects hold the
    engine, the ingestor, and the accumulated table -- worker-local
    state that must not cross the process boundary.  Lifecycle commands
    (open/ingest/handle inspection) return this summary instead; it is
    also what :meth:`ShardNode.handle_info` returns in-process, so the
    two fabric modes stay comparable field by field.
    """

    stream: str
    live: bool
    restored: bool
    watermark_s: float
    rows: int
    duration_s: float
    fps: float


def encode_error(exc: BaseException) -> Dict[str, Any]:
    """Marshal a worker-side exception for the reply envelope."""
    out: Dict[str, Any] = {
        "type": type(exc).__name__,
        "module": type(exc).__module__,
        "message": str(exc),
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    }
    try:
        payload = pickle.dumps(exc)
        pickle.loads(payload)  # must survive the round trip, not just dumps
        out["pickled"] = payload
    except Exception:
        pass
    return out


def raise_remote(error: Dict[str, Any]) -> None:
    """Re-raise a marshalled worker-side exception client-side."""
    exc: BaseException
    payload = error.get("pickled")
    if payload is not None:
        try:
            exc = pickle.loads(payload)
        except Exception:
            payload = None
    if payload is None:
        exc = _rebuild(error)
    try:
        exc.remote_traceback = error.get("traceback")  # type: ignore[attr-defined]
    except Exception:
        pass
    raise exc


def _rebuild(error: Dict[str, Any]) -> BaseException:
    """Best-effort reconstruction of an unpicklable exception."""
    try:
        module = __import__(error["module"], fromlist=[error["type"]])
        cls = getattr(module, error["type"])
        if isinstance(cls, type) and issubclass(cls, BaseException):
            return cls(error["message"])
    except Exception:
        pass
    return RemoteShardError(
        "%s.%s: %s" % (error.get("module"), error.get("type"), error.get("message"))
    )
