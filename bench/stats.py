"""Statistics the benchmark reports with: the percentile rule, medians
with quartiles, run-to-run spread, and the ``--compare`` verdicts.

Pure functions over lists of floats, so the self-tests can drive them
with hand-made samples.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

import numpy as np

#: the percentiles a timing may be reported at, lowest first
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: a percentile is only reported with at least this many samples beyond it
MIN_BEYOND = 10


def samples_needed(p: float) -> int:
    """Fewest samples for which percentile ``p`` has MIN_BEYOND beyond it."""
    return int(np.ceil(round(MIN_BEYOND * 100.0 / (100.0 - p), 6)))


def highest_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with >= MIN_BEYOND of ``n`` samples
    beyond it (None below 20 samples, where even the median has fewer)."""
    best = None
    for p in PERCENTILE_LADDER:
        if n >= samples_needed(p):
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def over_passes(passes: Sequence[Sequence[float]], p: float) -> float:
    """Percentile ``p`` of a latency family measured in several passes.

    When every pass alone supports ``p`` the result is the median of
    the per-pass percentiles, so one pass hit by a host stall cannot
    move it; otherwise the passes are pooled.
    """
    passes = [list(x) for x in passes if len(x)]
    if not passes:
        raise ValueError("no samples")
    if all(len(x) >= samples_needed(p) for x in passes):
        return statistics.median(percentile(x, p) for x in passes)
    return percentile([v for x in passes for v in x], p)


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def summarize(values: Sequence[float]) -> Dict[str, float]:
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


# -- compare ---------------------------------------------------------------

def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    delta = (new - base) / abs(base)
    return delta if better == "lower" else -delta


def _all_better(base: Sequence[float], new: Sequence[float], better: str) -> bool:
    if better == "lower":
        return max(new) < min(base)
    return min(new) > max(base)


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> str:
    """One metric x workload comparison under its own bound.

    ``unresolved`` (not ``unchanged``) when the run-to-run spread of
    either side exceeds the bound, unless every run of one side beats
    every run of the other.
    """
    moved = worse_by(statistics.median(base), statistics.median(new), better)
    noisy = max(spread(base), spread(new)) > bound
    if noisy:
        if _all_better(base, new, better):
            return "better"
        if _all_better(new, base, better) and moved > bound:
            return "REGRESSED"
        return "unresolved"
    if moved > bound:
        return "REGRESSED"
    if moved < -bound:
        return "better"
    return "unchanged"


def exact_verdict(base: Sequence, new: Sequence) -> str:
    """Exact-count metrics must read the same on every run of both sides."""
    return "identical" if len({repr(v) for v in list(base) + list(new)}) == 1 else "DIFFERS"
