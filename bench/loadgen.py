"""Closed- and open-loop load generation on one thread.

The open loop fires each operation at its scheduled due time whether
or not the system kept up, and times it *from the due time*: a stall
therefore shows as queue wait on every operation that was due while it
lasted, which a closed loop (next request only after the previous
reply) hides.  Clock and sleep are injectable so the accounting is
tested against a fake clock.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, List, Sequence, Tuple, Union

#: an operation thunk: calls the program and returns either a bool or a
#: zero-argument checker the loop runs *after* stamping the end time,
#: so verifying an answer is never part of its latency
Thunk = Callable[[], Union[bool, Callable[[], bool]]]
#: one scheduled operation: (due offset in seconds, kind, thunk)
ScheduledOp = Tuple[float, str, Thunk]


@dataclass
class LoadReport:
    """What a loop measured.  All times are seconds."""

    #: per kind: latency from the due time (open loop) or service time
    latency: Dict[str, List[float]] = field(default_factory=dict)
    #: per kind: service time alone (end - actual start)
    service: Dict[str, List[float]] = field(default_factory=dict)
    #: how late each operation started (open loop only)
    lateness: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    #: how far behind its schedule the generator was when it finished
    backlog_end: float = 0.0

    def _add(self, kind: str, latency: float, service: float) -> None:
        self.latency.setdefault(kind, []).append(latency)
        self.service.setdefault(kind, []).append(service)


_NO_SPAN = contextlib.nullcontext()


def no_span(kind: str, index: int) -> ContextManager:
    """The default ``around``: operations run bare (tracing off)."""
    return _NO_SPAN


def _call(fn: Thunk):
    """Run one operation; a raised or refused operation is a failure."""
    try:
        return fn()
    except Exception:
        return False


def _settle(outcome) -> bool:
    """Resolve a thunk's outcome (run its deferred answer check)."""
    if callable(outcome):
        return bool(_call(outcome))
    return bool(outcome)


def run_closed_loop(
    ops: Sequence[Tuple[str, Thunk]],
    clock: Callable[[], float] = time.perf_counter,
    around: Callable[[str, int], ContextManager] = no_span,
) -> LoadReport:
    """One client, back to back.  ``wall`` sums service times only, so
    whatever the thunk's caller does between operations is excluded."""
    report = LoadReport()
    for i, (kind, fn) in enumerate(ops):
        start = clock()
        with around(kind, i):
            outcome = _call(fn)
        took = clock() - start
        report.attempted += 1
        report.wall += took
        if _settle(outcome):
            report._add(kind, took, took)
        else:
            report.failed += 1
    return report


def run_open_loop(
    schedule: Sequence[ScheduledOp],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    around: Callable[[str, int], ContextManager] = no_span,
) -> LoadReport:
    """Fire ``schedule`` (sorted by due time) on one paced thread.

    A failed operation records no latency: it counts as missing every
    latency figure, and shows in ``failed`` instead.
    """
    report = LoadReport()
    origin = clock()
    end = 0.0
    for i, (due, kind, fn) in enumerate(schedule):
        now = clock() - origin
        if now < due:
            with around("idle", i):
                sleep(due - now)
            now = clock() - origin
        start = max(now, due)
        report.lateness.append(start - due)
        with around(kind, i):
            outcome = _call(fn)
        end = clock() - origin
        report.attempted += 1
        if _settle(outcome):
            report._add(kind, end - due, end - start)
        else:
            report.failed += 1
    report.wall = end
    if schedule:
        report.backlog_end = max(0.0, report.lateness[-1])
    return report


def paced(rate_per_s: float, duration_s: float, start_s: float = 0.0) -> List[float]:
    """Due offsets of a fixed-rate arrival process over a window."""
    n = int(round(rate_per_s * duration_s))
    return [start_s + i / rate_per_s for i in range(n)]
