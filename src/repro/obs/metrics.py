"""Metrics: log-bucket latency histograms and counter-key kinds.

Two things live here:

1. **The kind registry** -- the single place a counter key declares its
   merge semantics (``sum`` vs ``gauge``).  ``COUNTER_KINDS`` in
   :mod:`repro.serve.service` *is* ``kind_registry("counters")`` -- the
   same live dict -- so keys registered by their owning modules
   (``repro.fabric.protocol`` for the wire/fault keys,
   ``repro.serve.frontdoor`` for admission keys) appear in every
   existing reference the moment those modules import.  The cache's
   stat kinds use a separate namespace because they include merge kinds
   (``level``, ``derived``) that serving counters must never carry.

2. **:class:`LatencyHistogram` + :class:`MetricsRegistry`** -- fixed
   log-bucket latency histograms (p50/p95/p99 computed exactly from the
   bucket counts, mergeable shard-wise by summing buckets, wire-safe
   via ``to_dict``/``from_dict``) plus the registry every layer records
   into.  Buckets grow by ``2**(1/8)`` (~9% max relative error),
   covering 1 us to 100 s; observations outside clamp into the edge
   buckets.

This module is an import leaf: it must not import anything from the
rest of ``repro``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "LatencyHistogram",
    "MetricsRegistry",
    "counter_kinds",
    "kind_registry",
    "register_counters",
    "register_keys",
]

# ---------------------------------------------------------------------------
# kind registry
# ---------------------------------------------------------------------------

_KIND_REGISTRIES: Dict[str, Dict[str, str]] = {}


def kind_registry(namespace: str) -> Dict[str, str]:
    """The live kind dict for ``namespace`` (created on first use).

    Callers hold a reference to the *same* mutable dict, so keys
    registered after the reference was taken still appear in it --
    which is what lets ``repro.serve.service.COUNTER_KINDS`` stay a
    plain importable (and monkeypatchable) dict while its entries are
    declared at the modules that own them.
    """
    return _KIND_REGISTRIES.setdefault(namespace, {})


def register_keys(namespace: str, kind: str, *keys: str) -> Tuple[str, ...]:
    """Register ``keys`` under ``namespace`` with one merge ``kind``.

    Returns the keys as a tuple so owning modules can keep publishing
    their key lists (``WIRE_COUNTER_KEYS = register_counters(...)``).
    Re-registering a key with the same kind is a no-op; a conflicting
    kind raises ``ValueError`` -- a key declares its merge semantics
    exactly once, at the module that owns it.
    """
    registry = kind_registry(namespace)
    for key in keys:
        existing = registry.get(key)
        if existing is not None and existing != kind:
            raise ValueError(
                "key %r in namespace %r is already registered as %r; "
                "refusing to re-register it as %r"
                % (key, namespace, existing, kind)
            )
        registry[key] = kind
    return tuple(keys)


def register_counters(kind: str, *keys: str) -> Tuple[str, ...]:
    """Declare serving-counter keys: ``sum`` (work) or ``gauge`` (level)."""
    if kind not in ("sum", "gauge"):
        raise ValueError(
            "counter kind must be 'sum' or 'gauge', got %r" % (kind,)
        )
    return register_keys("counters", kind, *keys)


def counter_kinds() -> Dict[str, str]:
    """The live serving-counter kind dict (``COUNTER_KINDS``)."""
    return kind_registry("counters")


# ---------------------------------------------------------------------------
# latency histograms
# ---------------------------------------------------------------------------

#: bucket upper edges grow by this factor; 2**(1/8) keeps the maximum
#: relative quantile error ~9%
GROWTH = 2.0 ** 0.125
MIN_LATENCY_S = 1e-6
MAX_LATENCY_S = 100.0
_LOG_GROWTH = math.log(GROWTH)
NUM_BUCKETS = (
    int(math.ceil(math.log(MAX_LATENCY_S / MIN_LATENCY_S) / _LOG_GROWTH)) + 1
)


class LatencyHistogram:
    """Fixed log-bucket latency histogram (seconds).

    Merges by summing bucket counts, so per-shard histograms combine
    into fleet histograms without losing quantile fidelity -- the
    histogram analogue of the ``sum`` counter kind.  Quantiles are
    computed from the buckets with linear interpolation inside the
    landing bucket and clamped to the observed min/max, so p50/p95/p99
    are exact up to the declared bucket width.
    """

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self):
        self.counts: List[int] = [0] * NUM_BUCKETS
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = 0.0

    # -- recording -----------------------------------------------------------
    @staticmethod
    def bucket_index(seconds: float) -> int:
        if seconds <= MIN_LATENCY_S:
            return 0
        index = int(math.log(seconds / MIN_LATENCY_S) / _LOG_GROWTH) + 1
        return min(index, NUM_BUCKETS - 1)

    @staticmethod
    def bucket_bounds(index: int) -> Tuple[float, float]:
        """[lower, upper) edges of bucket ``index`` in seconds."""
        if index <= 0:
            return (0.0, MIN_LATENCY_S)
        return (
            MIN_LATENCY_S * GROWTH ** (index - 1),
            MIN_LATENCY_S * GROWTH ** index,
        )

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        if seconds < 0.0 or seconds != seconds:  # negative or NaN
            return
        self.counts[self.bucket_index(seconds)] += 1
        self.count += 1
        self.sum += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    # -- quantiles -----------------------------------------------------------
    def percentile(self, p: float) -> float:
        """The p-th percentile (p in [0, 100]) from the bucket counts."""
        if self.count == 0:
            return float("nan")
        if p <= 0.0:
            return self.min
        if p >= 100.0:
            return self.max
        target = (p / 100.0) * self.count
        cumulative = 0
        for index, n in enumerate(self.counts):
            if not n:
                continue
            if cumulative + n >= target:
                lo, hi = self.bucket_bounds(index)
                fraction = (target - cumulative) / n
                value = lo + fraction * (hi - lo)
                return min(max(value, self.min), self.max)
            cumulative += n
        return self.max

    def percentiles(
        self, ps: Sequence[float] = (50.0, 95.0, 99.0)
    ) -> Tuple[float, ...]:
        return tuple(self.percentile(p) for p in ps)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def summary(self) -> Dict[str, float]:
        """The load-report / cost-summary projection of this histogram."""
        p50, p95, p99 = self.percentiles()
        return {
            "count": float(self.count),
            "mean_s": self.mean,
            "min_s": self.min if self.count else float("nan"),
            "max_s": self.max if self.count else float("nan"),
            "p50_s": p50,
            "p95_s": p95,
            "p99_s": p99,
        }

    # -- merge + wire --------------------------------------------------------
    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        for index, n in enumerate(other.counts):
            if n:
                self.counts[index] += n
        self.count += other.count
        self.sum += other.sum
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        return self

    def to_dict(self) -> Dict[str, Any]:
        """Wire-safe sparse encoding (JSON/msgpack-friendly)."""
        return {
            "buckets": {
                str(i): n for i, n in enumerate(self.counts) if n
            },
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "LatencyHistogram":
        hist = cls()
        for key, n in dict(payload.get("buckets", {})).items():
            index = int(key)
            if 0 <= index < NUM_BUCKETS:
                hist.counts[index] = int(n)
        hist.count = int(payload.get("count", sum(hist.counts)))
        hist.sum = float(payload.get("sum", 0.0))
        if hist.count:
            minimum = payload.get("min")
            maximum = payload.get("max")
            hist.min = float(minimum) if minimum is not None else 0.0
            hist.max = float(maximum) if maximum is not None else 0.0
        return hist


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class MetricsRegistry:
    """Per-component latency histograms, by name (counters live in the
    kind registry above and in each component's own ledger).

    Always-on and cheap -- recording a histogram point is one log and a
    few dict/list operations.  Snapshots are plain dicts (histograms in
    their wire encoding) so they cross the fabric wire unchanged and
    merge shard-wise with :meth:`merge_snapshots`.
    """

    def __init__(self):
        self._histograms: Dict[str, LatencyHistogram] = {}

    # -- recording -----------------------------------------------------------
    def histogram(self, name: str) -> LatencyHistogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = LatencyHistogram()
        return hist

    def observe(self, name: str, seconds: float) -> None:
        self.histogram(name).observe(seconds)

    # -- reading -------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        return {
            "histograms": {
                name: hist.to_dict()
                for name, hist in self._histograms.items()
            },
        }

    @staticmethod
    def merge_snapshots(
        snapshots: Iterable[Mapping[str, Any]],
    ) -> Dict[str, Any]:
        """Fleet view of per-shard snapshots: histograms merge by bucket
        counts.  Any other section (older snapshots carried always-empty
        ``counters``/``gauges``) is ignored."""
        histograms: Dict[str, LatencyHistogram] = {}
        for snapshot in snapshots:
            for name, payload in snapshot.get("histograms", {}).items():
                incoming = LatencyHistogram.from_dict(payload)
                existing = histograms.get(name)
                if existing is None:
                    histograms[name] = incoming
                else:
                    existing.merge(incoming)
        return {
            "histograms": {
                name: hist.to_dict() for name, hist in histograms.items()
            },
        }

    @staticmethod
    def summarize(snapshot: Mapping[str, Any]) -> Dict[str, Dict[str, float]]:
        """Histogram summaries (count/mean/p50/p95/p99) of a snapshot."""
        return {
            name: LatencyHistogram.from_dict(payload).summary()
            for name, payload in sorted(
                snapshot.get("histograms", {}).items()
            )
        }
