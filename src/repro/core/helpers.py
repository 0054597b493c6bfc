"""One-call forked helpers: independent work on every usable CPU.

Two callers split work that is a pure function of state this process
already holds: :meth:`~repro.core.tuning.ParameterTuner.tune` sweeps
its models (:func:`sweep_shares`), and a multi-stream append round
(:func:`~repro.core.streaming.push_round`) runs each stream's cluster
half.  Either way this process keeps one share and forks one
:class:`Helper` per other share, *after* it built everything the work
reads, so nothing is shipped in; a helper pickles one reply to a pipe
and leaves through ``os._exit``, and is reaped before the call returns.

This module is the only place ``src/`` forks outside the worker tier.
It forks only from a single-threaded process (:func:`fork_width`): a
fork copies the calling thread alone, so a lock another thread holds
-- a ``multiprocessing`` queue's feeder, say -- would stay held in the
child forever.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import threading
import time
import traceback
from typing import Any, Callable, List, Optional, Sequence

from repro.obs.events import emit


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask); 1 on a host
    that cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return 1


def fork_width(items: int) -> int:
    """Workers a split over ``items`` independent items may use:
    min(usable CPUs, items), or 1 -- run in-process -- on a host without
    ``os.fork`` or while another thread is alive."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(usable_cpus(), items)


def sweep_shares(sweep: Callable[[int], list], names: Sequence[str]) -> List[list]:
    """``[sweep(i) for i in range(len(names))]``, split round-robin over
    :func:`fork_width` workers: the tuner's model sweep.

    This process is worker 0 and runs its share itself; every other
    worker is a :class:`Helper` emitting ``tuner.helper`` with the
    ``models`` (``names``) it swept.  One worker runs the plain loop.
    A helper's exception re-raises here with its type and message; a
    helper that dies without a reply raises ``RuntimeError``.  However
    this returns or raises, every helper has been reaped.
    """
    count = len(names)
    workers = fork_width(count)
    if workers < 2:
        return [sweep(i) for i in range(count)]
    results: List[list] = [[] for _ in range(count)]
    helpers: List[Helper] = []
    try:
        for w in range(1, workers):
            share = range(w, count, workers)
            helpers.append(Helper(
                lambda share=share: [sweep(i) for i in share],
                "tuner.helper", models=[names[i] for i in share],
            ))
        for i in range(0, count, workers):
            results[i] = sweep(i)
        for w, helper in enumerate(helpers, start=1):
            for i, rows in zip(range(w, count, workers), helper.collect()):
                results[i] = rows
    finally:
        for helper in helpers:
            helper.stop()
    return results


class Helper:
    """One forked process running ``work()`` once.

    The helper writes one pickle to its pipe -- ``("ok", value, wall_s)``
    or ``("error", exception, traceback text, wall_s)`` -- and leaves
    through ``os._exit``: no ``atexit`` hook, ``finally`` or buffered
    stream of the parent runs twice.  The parent reaps it with
    ``os.wait4`` and emits ``event`` with the helper's pid, ``labels``
    (what it worked on), its own wall seconds, its ``ru_maxrss`` and
    ``ru_minflt`` and its exit code.
    """

    def __init__(self, work: Callable[[], Any], event: str, **labels):
        self.event = event
        self.labels = labels
        here = _current_cpu()
        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(read_fd)
            _helper_main(work, write_fd, here)  # never returns
        os.close(write_fd)
        #: open until the helper is reaped
        self._read_fd: Optional[int] = read_fd

    def _describe(self) -> str:
        return "%s %d (%s)" % (
            self.event.replace(".", " "),
            self.pid,
            "; ".join("%s: %s" % (k, ", ".join(map(str, v))) for k, v in self.labels.items()),
        )

    def collect(self) -> Any:
        """The helper's value; raises what it raised."""
        chunks = []
        while True:
            chunk = os.read(self._read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
        exit_code, usage = self._reap()
        # a helper exits 0 only after its whole reply is written
        reply = pickle.loads(b"".join(chunks)) if exit_code == 0 and chunks else None
        self._record(exit_code, usage, reply[-1] if reply else None)
        if reply is None:
            raise RuntimeError(
                "%s exited with status %d without a reply"
                % (self._describe(), exit_code)
            )
        if reply[0] == "error":
            raise reply[1] from RuntimeError(
                "in %s:\n%s" % (self._describe(), reply[2])
            )
        return reply[1]

    def stop(self) -> None:
        """Kill and reap the helper unless it was already reaped."""
        if self._read_fd is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self._record(*self._reap(), None)

    def _reap(self):
        """Close the pipe and wait for the helper: its exit code
        (negative: the signal that ended it) and resource usage."""
        os.close(self._read_fd)
        self._read_fd = None
        _, status, usage = os.wait4(self.pid, 0)
        return os.waitstatus_to_exitcode(status), usage

    def _record(self, exit_code: int, usage, wall_s: Optional[float]) -> None:
        # minflt counts the helper's copy-on-write faults on the pages
        # it shares with this process, plus its own fresh pages
        emit(
            self.event,
            pid=self.pid,
            **{key: list(values) for key, values in self.labels.items()},
            wall_s=wall_s,
            maxrss_mb=usage.ru_maxrss / 1024.0,
            minflt=usage.ru_minflt,
            exit_code=exit_code,
        )


def _current_cpu() -> Optional[int]:
    """The CPU this process runs on (Linux: ``/proc/self/stat``), or
    None where that cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _leave_cpu(cpu: Optional[int]) -> None:
    """Keep a just-forked helper off its parent's CPU.

    A child starts on its parent's CPU, and the scheduler may take
    longer to move one of them than a helper lives: the two would
    share one CPU for the whole call while another sits idle.
    """
    if cpu is None or not hasattr(os, "sched_setaffinity"):
        return
    others = os.sched_getaffinity(0) - {cpu}
    if others:
        try:
            os.sched_setaffinity(0, others)
        except OSError:  # the mask is only a placement hint
            pass


def _helper_main(
    work: Callable[[], Any], write_fd: int, parent_cpu: Optional[int]
) -> None:
    """Body of a forked helper: move off ``parent_cpu``, run ``work``,
    write one reply, exit.

    The cyclic collector stays off: the helper lives for one call, and
    a collection would walk (and copy-on-write fault) every object
    inherited from the parent.
    """
    exit_code = 1
    try:
        gc.disable()
        _leave_cpu(parent_cpu)
        started = time.perf_counter()
        try:
            reply = pickle.dumps(("ok", work(), time.perf_counter() - started))
        except BaseException as exc:  # noqa: BLE001 -- re-raised by the parent
            text = traceback.format_exc()
            wall_s = time.perf_counter() - started
            try:
                reply = pickle.dumps(("error", exc, text, wall_s))
            except Exception:  # an exception that does not pickle
                reply = pickle.dumps((
                    "error", RuntimeError("%s: %s" % (type(exc).__name__, exc)),
                    text, wall_s,
                ))
        view = memoryview(reply)
        while view:
            view = view[os.write(write_fd, view):]
        exit_code = 0
    finally:
        os._exit(exit_code)
