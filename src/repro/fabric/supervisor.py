"""The supervisor side of the worker fabric (see ``repro.fabric.worker``
for the map of its three modules): :class:`FabricSupervisor` spawns,
mirrors, condemns and restarts the worker processes through its
:class:`_Worker` handles, and :class:`FabricWatchdog` is the background
health loop over it.  Division of labor: clients
(``repro.fabric.client``) enforce deadlines and condemn; this module
reclaims, backs off, trips the breaker and respawns.
"""

from __future__ import annotations

import ctypes
import itertools
import multiprocessing
import os
import random
import threading
import time
from collections import deque
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.fabric import shm as shm_plane
from repro.fabric.client import ShardClient
from repro.fabric.protocol import (
    DEFAULT_DEADLINES,
    WIRE_COUNTER_KEYS,
    DeadlineExceeded,
    Request,
    ShardFailed,
    WorkerCrashed,
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
        # a forked worker starts with a copy of every page this process
        # holds, freed-but-unreturned heap included: hand that back first,
        # so a worker's footprint does not depend on what the router freed
        if _malloc_trim is not None:
            _malloc_trim(0)
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
