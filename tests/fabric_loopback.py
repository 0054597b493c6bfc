"""An in-process loopback transport for the worker fabric, on a virtual clock.

``FabricSupervisor(..., mp_context=Loopback(clock))`` spawns each shard
worker as a :class:`LoopbackProcess`: no fork and no thread.  A request
put on its queue is served at once by
``repro.fabric.worker.WorkerState.serve_one`` -- the step the forked
worker loop runs -- so it crosses the real ``codec.encode`` /
``decode``, ``ShmSink`` and ``ShmReader`` (``shm_threshold=1`` still
makes real segments), against a ``DocumentStore`` rebuilt from a
pickled copy of the supervisor's snapshot: the mirror still advances
only on an acknowledged reply.  The worker's own span sink is swapped
in around each step, so the test's sink is never clobbered.

Time is virtual.  :func:`loopback_fabric` substitutes a
:class:`VirtualClock` for the ``time`` that ``repro.fabric.client``
(reply deadlines) and ``repro.fabric.supervisor`` (restart backoff)
read; waiting for a reply advances the clock instead of sleeping, so a
30 s stall costs nothing and a deadline fires exactly when the clock
passes it.

Faults are events of the transport, armed on a worker's process
(:func:`process_of`) and landing on the next command:

* :meth:`LoopbackProcess.stall` -- the command executes, and its reply
  becomes visible ``seconds`` later (past a deadline: condemned);
* :meth:`LoopbackProcess.slow` -- every command takes ``seconds``;
* :meth:`LoopbackProcess.drop_replies` -- the next ``count`` commands
  execute, but their replies are lost;
* :meth:`LoopbackProcess.crash_before_reply` -- the process dies with
  the reply sealed (its segment created) but never enqueued;
* :meth:`LoopbackProcess.crash_after_journal` -- the process dies right
  after the next WAL append of a stream, before the chunk is applied
  or acknowledged.

A death (these two, ``kill()``, or the ``None`` goodbye) releases what
process death releases: the mappings of replies it never handed off.
What the supervisor must reclaim -- orphaned reply segments, unlinked
by name -- is left to the supervisor, and
:func:`assert_no_leaked_segments` checks at teardown that it did.

The drills that need a real process tree (SIGKILL mid-transfer, a
real hang) arm a forked worker instead, through :func:`armed`.
"""

import contextlib
import itertools
import os
import pickle
import queue
from collections import deque

import pytest

from repro.fabric import client as client_module
from repro.fabric import supervisor as supervisor_module
from repro.fabric.supervisor import FabricSupervisor
from repro.fabric.worker import WorkerState, _worker_main
from repro.obs.trace import SpanSink, get_sink, install_sink

#: loopback processes get distinct fake pids, as respawned workers do
_PIDS = itertools.count(1)

_TEST_PROCESS = os.getpid()

#: where POSIX shared-memory segments appear as files (Linux)
_SHM_DIR = "/dev/shm"


class VirtualClock:
    """What the fabric's client and supervisor read as ``time``."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += max(0.0, seconds)


class _Died(BaseException):
    """The process died mid-command: unwinds past ``serve_one``'s
    ``except Exception``, as a real death skips the reply."""


class LoopbackQueue:
    """One direction of a loopback worker's wire.  On the request queue
    a put is served at once by the consuming process; on the reply
    queue each reply waits for the clock to reach the instant it
    becomes visible."""

    def __init__(self, clock: VirtualClock):
        self._clock = clock
        #: set on a request queue by the process that consumes it
        self.consumer = None
        #: (visible_at, reply, sink) on a reply queue, FIFO
        self.held = deque()

    def put(self, item) -> None:
        if self.consumer is None:
            self.held.append((self._clock.now, item, None))  # a reply, sent now
        else:
            self.consumer.deliver(item)

    def get(self, timeout: float):
        """The next reply if it becomes visible within ``timeout`` (the
        clock moves to that instant), else ``queue.Empty`` once the
        clock has moved by ``timeout``."""
        if self.held and self.held[0][0] <= self._clock.now + timeout:
            visible_at, reply, sink = self.held.popleft()
            self._clock.now = max(self._clock.now, visible_at)
            if sink is not None:
                sink.close_handoff()
            return reply
        self._clock.now += timeout
        raise queue.Empty

    def close(self) -> None:
        pass

    def cancel_join_thread(self) -> None:
        pass


class LoopbackProcess:
    """A shard worker served in this process, one request per put."""

    def __init__(self, clock, shard_id, request_q, reply_q, *rest):
        self._clock = clock
        # a process boundary copies its arguments
        self._args = (shard_id,) + pickle.loads(pickle.dumps(rest))
        request_q.consumer = self
        self._replies = reply_q
        self._spans = SpanSink()
        self.pid = next(_PIDS)
        self.exitcode = None
        #: the worker's state while the process lives
        self.worker = None
        #: the instant the worker finishes the commands it was given
        self._busy_until = 0.0
        self._stall_s = self._slow_s = 0.0
        self._drop_replies = 0
        self._crash_before_reply = False

    @contextlib.contextmanager
    def _worker_sink(self):
        previous = get_sink()
        install_sink(self._spans)
        try:
            yield
        finally:
            install_sink(previous)

    # -- the mp.Process surface the supervisor uses ---------------------------
    def start(self) -> None:
        with self._worker_sink():
            self.worker = WorkerState(*self._args)

    def is_alive(self) -> bool:
        return self.worker is not None

    def kill(self) -> None:
        if self.is_alive():
            self._exit(-9)

    def join(self, timeout=None) -> None:
        pass

    # -- the worker loop, one turn per request --------------------------------
    def deliver(self, request) -> None:
        if not self.is_alive():
            return  # nobody reads a dead process's queue
        if request is None:
            self._exit(0)
            return
        now = self._clock.now
        self._busy_until = max(self._busy_until, now) + self._slow_s
        with self._worker_sink():
            try:
                reply, sink = self.worker.serve_one(request)
            except _Died:
                self._exit(1)
                return
        if self._crash_before_reply or self._drop_replies:
            if sink is not None:
                sink.close_handoff()
            if self._crash_before_reply:
                self._exit(1)
            else:
                self._drop_replies -= 1
            return
        self._busy_until += self._stall_s
        self._stall_s = 0.0
        self._replies.held.append((self._busy_until, reply, sink))
        if self._busy_until <= now and sink is not None:
            sink.close_handoff()  # handed off as it is enqueued

    def _exit(self, code: int) -> None:
        """What process death releases: the mappings of replies not yet
        handed off (those not yet visible were never sent).  Their
        segments stay for the supervisor to reclaim."""
        self.worker = None
        self.exitcode = code
        held = self._replies.held
        for _, _, sink in held:
            if sink is not None:
                sink.close_handoff()
        while held and held[-1][0] > self._clock.now:
            held.pop()

    # -- fault events ----------------------------------------------------------
    def stall(self, seconds: float) -> None:
        """The next command executes, then its reply is ``seconds`` late."""
        self._stall_s = float(seconds)

    def slow(self, seconds: float) -> None:
        """Every later command takes ``seconds`` (0 turns it off)."""
        self._slow_s = float(seconds)

    def drop_replies(self, count: int = 1) -> None:
        """The next ``count`` commands execute; their replies are lost."""
        self._drop_replies = int(count)

    def crash_before_reply(self) -> None:
        """The process dies after the next command seals its reply."""
        self._crash_before_reply = True

    def crash_after_journal(self, stream: str) -> None:
        """The process dies right after the next WAL append of
        ``stream``, before the chunk is applied or acknowledged."""
        journal = self.worker.node.system.handle(stream).ingestor.journal
        append_chunk = journal.append_chunk

        def append_then_die(chunk, watermark_s=None):
            append_chunk(chunk, watermark_s)
            raise _Died(stream)

        journal.append_chunk = append_then_die


class Loopback:
    """The ``mp_context`` of a loopback fabric."""

    def __init__(self, clock: VirtualClock):
        self.clock = clock

    def Queue(self) -> LoopbackQueue:
        return LoopbackQueue(self.clock)

    def Process(self, target, args, name=None, daemon=None) -> LoopbackProcess:
        assert target is _worker_main, target
        return LoopbackProcess(self.clock, *args)


@contextlib.contextmanager
def loopback_fabric(shard_ids, **kwargs):
    """A ``FabricSupervisor`` over loopback workers, on a fresh virtual
    clock the fabric's client and supervisor read while it lives."""
    clock = VirtualClock()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(client_module, "time", clock)
        patch.setattr(supervisor_module, "time", clock)
        with FabricSupervisor(
            shard_ids, mp_context=Loopback(clock), **kwargs
        ) as supervisor:
            yield supervisor


def assert_no_leaked_segments(supervisor) -> None:
    """The teardown leak check, run after ``supervisor.shutdown()``: no
    shared-memory segment named under the supervisor's prefix survives.
    Every reply segment was read and unlinked by its client, or
    unlinked by name when its worker was condemned.  Checks nothing
    on a host without ``/dev/shm``."""
    if not os.path.isdir(_SHM_DIR):
        return
    prefix = supervisor._prefix + "-"
    leaked = sorted(name for name in os.listdir(_SHM_DIR) if name.startswith(prefix))
    assert leaked == [], "segments outlived the fabric: %s" % leaked


def process_of(supervisor, shard_id) -> LoopbackProcess:
    """The loopback process serving ``shard_id`` now (fault events are
    armed here; a restart swaps in a fresh one)."""
    return supervisor._worker(shard_id).process


def armed(sentinel) -> bool:
    """True once, in a forked worker, after the test created the file
    ``sentinel``: the worker that sees it removes it, so a respawned
    successor is not armed.  The real-process drills monkeypatch a
    worker-side function to consult this before the supervisor forks;
    it is always False in the test's own process."""
    if os.getpid() == _TEST_PROCESS:
        return False
    try:
        os.unlink(sentinel)
    except FileNotFoundError:
        return False
    return True
