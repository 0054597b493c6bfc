"""The benchmark's own spans: recorded at layer boundaries from outside
the program, kept in memory, written out as Chrome-trace JSON.

A span is (name, layer, start, end, parent, request id).  A layer's
*self time* is its spans' duration minus the part covered by their
child spans, so nested layers never count the same interval twice.
The program's own tracer (``repro.obs.trace``) stays off; these spans
exist only in the traced pass and only in the benchmark's process.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from typing import Callable, Dict, List, Optional

#: span record field indexes (lists, not objects: begin/end sit on hot paths)
NAME, LAYER, START, END, PARENT, REQUEST = range(6)


class SpanRecorder:
    """In-memory span store with a call stack (one thread)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.active = False
        self.request: Optional[int] = None
        #: spans are recorded in this process only: forked shard workers
        #: inherit the wrapped functions and must run them bare
        self.pid = os.getpid()

    @property
    def in_operation(self) -> bool:
        """Inside a harness-opened operation span?  Boundary spans are
        recorded only there, so whatever the harness does between timed
        operations (building the oracle, checking answers) leaves no spans."""
        return self.active and bool(self._stack)

    def begin(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, layer, self.clock(), None, parent, self.request])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        # an exception may have unwound past inner spans: close them too
        while self._stack and self._stack.pop() != index:
            pass

    @contextlib.contextmanager
    def span(self, name: str, layer: str, request: Optional[int] = None):
        """A span opened by the harness itself (the root of one
        operation); nested boundary spans inherit ``request``."""
        if not self.active:
            yield
            return
        previous = self.request
        if request is not None:
            self.request = request
        index = self.begin(name, layer)
        try:
            yield
        finally:
            self.end(index)
            self.request = previous

    # -- analysis ----------------------------------------------------------
    def closed(self) -> List[list]:
        return [s for s in self.spans if s[END] is not None]

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer."""
        return self_times(self.spans)

    def root_seconds(self) -> float:
        """Total duration of root spans (those without a parent)."""
        return sum(s[END] - s[START] for s in self.closed() if s[PARENT] < 0)

    def chrome_trace(self) -> Dict:
        """Chrome-trace / Perfetto JSON (complete "X" events, microseconds)."""
        spans = self.closed()
        origin = min((s[START] for s in spans), default=0.0)
        events = [
            {
                "name": s[NAME],
                "cat": s[LAYER],
                "ph": "X",
                "ts": (s[START] - origin) * 1e6,
                "dur": (s[END] - s[START]) * 1e6,
                "pid": self.pid,
                "tid": 0,
                "args": {"request": s[REQUEST], "parent": s[PARENT]},
            }
            for s in spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> int:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
        return len(self.spans)


def self_times(spans: List[list]) -> Dict[str, float]:
    """Per-layer self time of a span list: each span's duration minus
    the summed duration of its direct children (children of one span
    never overlap on a single thread)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[END] is not None and s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    out: Dict[str, float] = {}
    for i, s in enumerate(spans):
        if s[END] is None:
            continue
        out[s[LAYER]] = out.get(s[LAYER], 0.0) + (s[END] - s[START]) - covered[i]
    return out
