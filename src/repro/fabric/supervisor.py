"""The supervisor side of the worker fabric (see ``repro.fabric.worker``
for the map of its three modules): :class:`FabricSupervisor` spawns,
mirrors, condemns and restarts the worker processes through its
:class:`_Worker` handles.  Division of labor: clients
(``repro.fabric.client``) enforce deadlines and condemn; this module
reclaims, backs off, trips the breaker and respawns -- on demand, when
a caller (the router's retry) asks for the shard again.
"""

from __future__ import annotations

import ctypes
import itertools
import multiprocessing
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.fabric import shm as shm_plane
from repro.fabric.client import ShardClient
from repro.fabric.protocol import (
    DEFAULT_DEADLINES,
    WIRE_COUNTER_KEYS,
    ProtocolError,
    ShardFailed,
    deadline_kind,
)
from repro.fabric.worker import _reply_segment_name, _worker_main
from repro.obs.events import emit as _emit_event
from repro.storage.docstore import DocumentStore

#: distinguishes supervisor instances in segment names (pid alone is
#: not enough: tests spawn several supervisors per process)
_SUPERVISOR_SEQ = itertools.count()

try:
    #: glibc's "return freed heap to the OS"; other libcs have none
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError, TypeError):
    _malloc_trim = None


def _default_context():
    """Fork where available (fast, inherits imports); spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


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

    The data plane: a reply whose encoded parts total at least
    ``shm_threshold`` bytes travels through a per-command,
    deterministically named shared segment that the client reads once
    and unlinks.  Requests, smaller replies, a host that cannot serve
    shared memory and a failed allocation inline through the queues,
    bit-identically.

    Self-healing (see ``docs/RESILIENCE.md``): every command carries a
    per-op-kind reply deadline (``deadlines`` overrides the
    ``protocol.DEFAULT_DEADLINES`` table); expiry *condemns* the worker
    -- killed on the spot, orphan reply segments unlinked, clients
    refused -- and raises :class:`~repro.fabric.protocol.DeadlineExceeded`.
    :meth:`ensure_alive` is the one respawn door (the router's retries
    call it), with exponential backoff and a crash-loop breaker that
    marks a shard ``FAILED`` (:class:`~repro.fabric.protocol.ShardFailed`)
    after ``max_consecutive_failures`` failures with no healthy reply
    in between.

    One thread drives a supervisor, its clients and any router over
    them: the thread that built it.  Every verb called from another
    thread raises :class:`~repro.fabric.protocol.ProtocolError` before
    it touches a worker.
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
        **system_kwargs,
    ):
        if not shard_ids:
            raise ValueError("a fabric needs at least one shard worker")
        if len(set(shard_ids)) != len(shard_ids):
            raise ValueError("duplicate shard ids: %s" % list(shard_ids))
        #: (ident, name) of the one thread allowed to drive this fabric
        self._owner = (threading.get_ident(), threading.current_thread().name)
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
        self._health: Dict[str, _ShardHealth] = {
            shard_id: _ShardHealth() for shard_id in shard_ids
        }
        #: every reply segment of this fabric is named under
        #: ``{_prefix}-``
        self._prefix = "fab%x-%d" % (os.getpid(), next(_SUPERVISOR_SEQ))
        self._incarnations = itertools.count()
        self._workers: Dict[str, _Worker] = {}
        for shard_id in shard_ids:
            mirror = None
            if stores is not None:
                mirror = stores.get(shard_id)
            self._workers[shard_id] = self._spawn(
                shard_id, mirror if mirror is not None else DocumentStore()
            )

    # -- the data plane ------------------------------------------------------
    def _reclaim(self, worker: _Worker) -> None:
        """Reclaim a dead worker's data-plane remains: unlink any orphan
        reply segment a command in flight left behind (the worker sealed
        the reply, then died or was killed before it was gathered).
        Runs at failure-*detection* time (``_condemn``), not just at
        restart -- an orphan must not outlive the outage's start."""
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
        # with (or resurrect) its dead predecessor's reply segments; none
        # on a host without shared memory, where every reply inlines
        reply_prefix = ""
        if shm_plane.shm_available():
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
        # a forked worker starts with a copy of every page this process
        # holds, freed-but-unreturned heap included: hand that back first,
        # so a worker's footprint does not depend on what the router freed
        if _malloc_trim is not None:
            _malloc_trim(0)
        process.start()
        _emit_event("worker.spawn", shard=shard_id, worker_pid=process.pid)
        return _Worker(process, request_q, reply_q, mirror, reply_prefix)

    def _check_thread(self) -> None:
        """Refuse a caller on any thread but the owner's: the serving
        tier is single-threaded (``docs/RESILIENCE.md``, "Concurrency
        model"), and a second thread between one command's submit and
        its gather would break the per-worker reply FIFO."""
        if threading.get_ident() != self._owner[0]:
            raise ProtocolError(
                "this fabric is driven by thread %r (ident %d); thread %r "
                "(ident %d) may not call it"
                % (
                    self._owner[1],
                    self._owner[0],
                    threading.current_thread().name,
                    threading.get_ident(),
                )
            )

    def _worker(self, shard_id: str) -> _Worker:
        """The shard's live incarnation: the lookup every verb goes
        through, so it is where the owner-thread check runs."""
        self._check_thread()
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
        self._worker(shard_id)  # validate
        record = self._health[shard_id]
        return {
            "state": record.state,
            "consecutive_failures": record.consecutive_failures,
            "last_error": record.last_error,
        }

    def deadline_for(self, op: str) -> float:
        """The reply deadline (seconds) one op gets on this fabric."""
        return self._deadlines[deadline_kind(op)]

    def _stop(self, worker: _Worker) -> None:
        """Write an incarnation off: clients refuse it from now on, it
        is killed if still running (a hung worker must not keep mutating
        past its deadline), and its data-plane remains and queues are
        reclaimed."""
        worker.condemned = True
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
        self._reclaim(worker)
        for q in (worker.request_q, worker.reply_q):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass

    def _condemn(self, worker: _Worker, shard_id: str, why: str) -> None:
        """Write a worker incarnation off at failure-*detection* time --
        its orphan reply segments go now, not at some later restart --
        and count one failure toward the shard's crash-loop breaker."""
        if worker.condemned:
            return
        record = self._health[shard_id]
        if record.state != "failed":
            record.consecutive_failures += 1
            record.last_error = why
        self._stop(worker)
        _emit_event("worker.condemn", shard=shard_id, why=why)

    def _note_healthy(self, shard_id: str) -> None:
        """A gathered reply proves the worker responsive: reset its
        failure streak (the breaker counts *consecutive* failures)."""
        record = self._health[shard_id]
        if record.state != "failed":
            record.consecutive_failures = 0

    def ensure_alive(
        self,
        shard_id: str,
        configs: Optional[Mapping[str, Any]] = None,
    ) -> bool:
        """Respawn the shard's worker if it is dead or condemned.

        The self-healing entry point (router retries funnel here): no-op
        on a healthy worker, otherwise :meth:`restart` behind exponential
        backoff, and a crash-loop circuit breaker that marks the shard
        ``FAILED`` (raising :class:`ShardFailed`, here and on every later
        call) after ``max_consecutive_failures`` failures with no healthy
        reply in between.  Returns True when a restart happened.
        """
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
        cause = None
        if record.consecutive_failures < self.max_consecutive_failures:
            if record.consecutive_failures > 1:
                time.sleep(
                    min(
                        self._backoff_max_s,
                        self._backoff_base_s
                        * (2.0 ** (record.consecutive_failures - 1)),
                    )
                )
            try:
                self.restart(shard_id, configs=configs)
                return True
            except Exception as exc:
                record.consecutive_failures += 1
                record.last_error = str(exc)
                if record.consecutive_failures < self.max_consecutive_failures:
                    raise
                cause = exc
        record.state = "failed"
        _emit_event(
            "breaker.trip",
            shard=shard_id,
            failures=record.consecutive_failures,
            last_error=record.last_error,
        )
        raise ShardFailed(
            "shard %r marked FAILED: %d consecutive failures without a "
            "healthy reply (last: %s)"
            % (shard_id, record.consecutive_failures, record.last_error)
        ) from cause

    def reset_failed(self, shard_id: str) -> None:
        """Re-arm a tripped crash-loop breaker (after fixing the cause);
        the next :meth:`ensure_alive` may restart the shard again."""
        self._worker(shard_id)  # validate
        record = self._health[shard_id]
        record.state = "healthy"
        record.consecutive_failures = 0
        record.last_error = None
        _emit_event("breaker.rearm", shard=shard_id)

    def kill(self, shard_id: str) -> None:
        """SIGKILL the worker (chaos drills) without charging the
        breaker.  The mirror keeps the state as of the last acknowledged
        command; :meth:`restart` resumes from it."""
        self._stop(self._worker(shard_id))

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
        worker = self._worker(shard_id)
        self._stop(worker)
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
        """Stop every worker (the ``None`` goodbye, then kill) and
        close the queues.  Idempotent."""
        self._check_thread()
        for worker in self._workers.values():
            if worker.process.is_alive():
                try:
                    worker.request_q.put(None)
                except Exception:
                    pass
                worker.process.join(timeout=5)
            self._stop(worker)

    def __enter__(self) -> "FabricSupervisor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

