"""Formatting experiment outputs as the paper's tables/series."""

from __future__ import annotations

from typing import Dict, List, Sequence


def format_table(rows: List[Dict], columns: Sequence[str], title: str = "") -> str:
    """Render dict rows as a fixed-width text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    widths = {
        c: max(len(c), max(len(_fmt(r.get(c))) for r in rows)) for c in columns
    }
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for r in rows:
        lines.append("  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 100:
            return "%.0f" % value
        if abs(value) >= 1:
            return "%.1f" % value
        return "%.3f" % value
    return str(value)


def factor(value: float) -> str:
    """Render an improvement factor the way the paper does (e.g. 58x)."""
    return "%.0fx" % value
