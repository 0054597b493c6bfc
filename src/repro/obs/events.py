"""Bounded structured event log for fabric lifecycle forensics.

Fault *counters* (PR 8) say how often something went wrong; the event
log says **what happened, in order** -- the trail a human replays after
a failover.  Supervisor, router, migration, and the front door emit
here: worker spawn/condemn/restart, deadline expiry,
breaker trip/re-arm, migration phases, backpressure rejections.

Every event carries a monotonic timestamp (``t_mono_s``, for intervals
within one process), a wall timestamp (``t_wall_s``, for lining up
against external logs), and -- when in flight -- the shard id and the
request's correlation/trace id.  The log is a bounded in-memory ring
(oldest events drop first) with an optional always-appending JSONL
sink for post-mortem capture.

Components take an ``events`` parameter defaulting to the process-wide
:func:`default_events` log, so tests can install an isolated log while
production code shares one trail.

This module is an import leaf: it must not import anything from the
rest of ``repro``.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Any, Dict, List, Optional

__all__ = [
    "EventLog",
    "default_events",
    "emit",
    "set_default_events",
]


class EventLog:
    """Bounded ring of structured lifecycle events + optional JSONL sink."""

    def __init__(self, capacity: int = 2048, jsonl_path: Optional[str] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._ring: deque = deque(maxlen=capacity)
        self._seq = 0
        self.jsonl_path = jsonl_path
        self._fh = open(jsonl_path, "a") if jsonl_path else None

    def emit(
        self,
        kind: str,
        shard: Optional[str] = None,
        corr_id: Optional[int] = None,
        trace_id: Optional[str] = None,
        **fields: Any,
    ) -> Dict[str, Any]:
        """Record one event; returns the event dict."""
        self._seq += 1
        event: Dict[str, Any] = {
            "seq": self._seq,
            "kind": kind,
            "t_mono_s": time.monotonic(),
            "t_wall_s": time.time(),
        }
        if shard is not None:
            event["shard"] = shard
        if corr_id is not None:
            event["corr_id"] = corr_id
        if trace_id is not None:
            event["trace_id"] = trace_id
        for key, value in fields.items():
            if value is not None:
                event[key] = value
        self._ring.append(event)
        if self._fh is not None:
            self._fh.write(json.dumps(event, sort_keys=True) + "\n")
            self._fh.flush()
        return event

    def events(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """The ring's events (oldest first), optionally one kind."""
        if kind is None:
            return list(self._ring)
        return [event for event in self._ring if event["kind"] == kind]

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __len__(self) -> int:
        return len(self._ring)


_DEFAULT = EventLog()


def default_events() -> EventLog:
    return _DEFAULT


def set_default_events(log: Optional[EventLog] = None) -> EventLog:
    """Replace the process-wide event log (tests, JSONL capture)."""
    global _DEFAULT
    _DEFAULT = log if log is not None else EventLog()
    return _DEFAULT


def emit(kind: str, **fields: Any) -> Dict[str, Any]:
    """Emit into the process-wide log (see :meth:`EventLog.emit`)."""
    return _DEFAULT.emit(kind, **fields)
