#!/usr/bin/env python
"""Closed-loop multi-tenant load generator for the front door (PR 9).

Drives mixed open/append/query traffic from N tenants through a
:class:`~repro.serve.frontdoor.FrontDoor` at per-tenant target rates,
against either fabric mode, and reports achieved QPS + p50/p95/p99
wall latency per tenant against each tenant's *declared* SLO:

    PYTHONPATH=src python scripts/loadgen.py --mode inproc --duration 4
    PYTHONPATH=src python scripts/loadgen.py --mode worker --duration 6
    PYTHONPATH=src python scripts/loadgen.py --check   # CI smoke gate

Each tenant is a closed loop: it issues its next operation no earlier
than its pacing interval (1 / target QPS) after the previous one
*completed*, so a slow or throttled service lowers achieved QPS instead
of piling up an unbounded backlog -- the standard closed-loop load
model.  Rejections (:class:`AdmissionRejected`) count against achieved
QPS and are tallied by reason; only admitted operations contribute
latency samples.

``--check`` exits non-zero unless the skewed two-tenant preset shows
the declared QoS behaviour: the high-priority interactive tenant's p99
meets its SLO while the over-driven bulk tenant is throttled.  The CI
``loadgen-smoke`` job runs exactly that.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.cnn.zoo import cheap_cnn  # noqa: E402
from repro.core.config import FocusConfig  # noqa: E402
from repro.obs.metrics import LatencyHistogram  # noqa: E402
from repro.obs.trace import (  # noqa: E402
    DEFAULT_SAMPLE_RATE,
    configure_tracing,
    disable_tracing,
    export_chrome_trace,
    get_sink,
    install_sink,
)
from repro.serve.frontdoor import (  # noqa: E402
    AdmissionRejected,
    FrontDoor,
    TenantBudget,
)
from repro.video.synthesis import generate_observations  # noqa: E402

STREAMS = ("auburn_c", "jacksonh")
STREAM_FPS = 30.0
SYNTH_DURATION_S = 600.0
CLUSTER_THRESHOLD = 0.4
INDEX_K = 10
CHUNK_ROWS = 512


def chunk_feed(table) -> List[Any]:
    """Frame-aligned sequential chunks: live pushes must preserve
    stream time order, so splits never land mid-frame."""
    n = len(table)
    frames = table.frame_idx
    bounds = [0]
    while bounds[-1] < n:
        stop = min(bounds[-1] + CHUNK_ROWS, n)
        while stop < n and frames[stop] == frames[stop - 1]:
            stop += 1
        bounds.append(stop)
    return [table.slice(a, b) for a, b in zip(bounds, bounds[1:])]


@dataclass
class TenantSpec:
    """One load-generating tenant: its declared budget plus the offered
    load (target ops/s and the query/append mix) it tries to push."""

    name: str
    budget: TenantBudget
    target_qps: float
    #: probability an op is a query (the rest are appends)
    query_weight: float = 1.0
    classes: Sequence[int] = (1, 2)


@dataclass
class _TenantLoop:
    spec: TenantSpec
    next_fire: float
    #: admitted-op wall latency -- the same fixed log-bucket histogram
    #: the metrics registry uses, so quantiles come from one code path
    #: and memory stays bounded however long the run
    hist: LatencyHistogram = field(default_factory=LatencyHistogram)
    admitted: int = 0
    rejected: Dict[str, int] = field(
        default_factory=lambda: {"rate": 0, "inflight": 0, "backpressure": 0}
    )
    rng: Any = None


def default_tenants() -> List[TenantSpec]:
    """The skewed two-tenant preset: an interactive tenant comfortably
    inside its budget vs a bulk tenant offering ~4x its declared rate
    (so the door must throttle it)."""
    return [
        TenantSpec(
            name="interactive",
            budget=TenantBudget(
                qps=50.0, max_inflight=4, priority=0, slo_p99_ms=750.0
            ),
            target_qps=12.0,
            query_weight=1.0,
            classes=(1, 2),
        ),
        TenantSpec(
            name="bulk",
            budget=TenantBudget(
                qps=8.0, burst=4.0, max_inflight=2, priority=3,
                slo_p99_ms=None,
            ),
            target_qps=35.0,
            query_weight=0.6,
            classes=(1, 2, 3),
        ),
    ]


def build_service(mode: str, config: FocusConfig, feeds) -> Tuple[Any, Any]:
    """(service, supervisor-or-None): a fleet with STREAMS pre-opened
    and a seed chunk ingested, in-process or worker-process shards.
    ``feeds`` is the per-stream chunk queue; the seed chunk is popped
    off the front."""
    from repro.fabric import FabricRouter, FabricSupervisor, ShardNode

    shard_ids = ["shard-0", "shard-1"]
    supervisor = None
    if mode == "worker":
        supervisor = FabricSupervisor(shard_ids)
        shards = supervisor.clients()
    else:
        shards = [ShardNode(sid) for sid in shard_ids]
    router = FabricRouter(shards)
    for name in STREAMS:
        router.open_stream(
            name,
            fps=STREAM_FPS,
            config=config,
            index_mode="materialized",
            durable=False,
        )
        router.append(name, feeds[name].pop(0))
    return router, supervisor


def _percentile_ms(hist: LatencyHistogram, q: float) -> float:
    """A histogram quantile in milliseconds (NaN when empty)."""
    return hist.percentile(q) * 1e3


def run_loadgen(
    mode: str = "inproc",
    duration_s: float = 4.0,
    tenants: Optional[List[TenantSpec]] = None,
    seed: int = 0,
    trace_out: Optional[str] = None,
    trace_sample_rate: float = DEFAULT_SAMPLE_RATE,
) -> Dict[str, Any]:
    """Run the closed loop; returns the per-tenant SLO report.

    Report fields per tenant (see ``docs/QOS.md``): ``priority``,
    ``target_qps`` (offered), ``qps_budget`` (declared), ``achieved_qps``
    (admitted ops/s), ``admitted``, ``rejected`` (by reason),
    ``p50_ms``/``p95_ms``/``p99_ms`` (admitted-op wall latency),
    ``slo_p99_ms`` (declared target or None) and ``slo_ok``.

    ``trace_out`` enables request tracing at ``trace_sample_rate`` for
    the run and exports the collected spans (frontdoor -> router
    scatter -> worker dispatch, stitched across processes) as a
    Chrome-trace-event JSON file Perfetto can open.
    """
    tenants = tenants if tenants is not None else default_tenants()
    if trace_out:
        install_sink()  # a fresh sink: only this run's spans export
        configure_tracing(trace_sample_rate)
    config = FocusConfig(
        model=cheap_cnn(1), k=INDEX_K, cluster_threshold=CLUSTER_THRESHOLD
    )
    feeds = {
        name: chunk_feed(
            generate_observations(name, SYNTH_DURATION_S, STREAM_FPS)
        )
        for name in STREAMS
    }
    service, supervisor = build_service(mode, config, feeds)
    door = FrontDoor(
        service, {spec.name: spec.budget for spec in tenants}
    )
    try:
        t0 = time.monotonic()
        loops = [
            _TenantLoop(
                spec=spec,
                next_fire=t0,
                rng=np.random.default_rng(seed + i),
            )
            for i, spec in enumerate(tenants)
        ]
        deadline = t0 + duration_s
        while True:
            now = time.monotonic()
            if now >= deadline:
                break
            due = [lp for lp in loops if lp.next_fire <= now]
            if not due:
                time.sleep(
                    min(
                        min(lp.next_fire for lp in loops) - now,
                        deadline - now,
                    )
                )
                continue
            # earliest-scheduled first; ties broken by declared priority
            loop = min(
                due, key=lambda lp: (lp.next_fire, lp.spec.budget.priority)
            )
            stream = STREAMS[loop.rng.integers(0, len(STREAMS))]
            # an append when the stream's feed ran dry becomes a query
            is_query = (
                loop.rng.random() < loop.spec.query_weight
                or not feeds[stream]
            )
            started = time.monotonic()
            try:
                if is_query:
                    clazz = int(
                        loop.spec.classes[
                            loop.rng.integers(0, len(loop.spec.classes))
                        ]
                    )
                    door.query_all(loop.spec.name, clazz)
                else:
                    # chunks must land in stream time order: pop only
                    # once admitted (a rejected append re-offers it)
                    door.append(loop.spec.name, stream, feeds[stream][0])
                    feeds[stream].pop(0)
                loop.admitted += 1
                loop.hist.observe(time.monotonic() - started)
            except AdmissionRejected as exc:
                loop.rejected[exc.reason] += 1
            # closed loop: pace from completion, never early
            loop.next_fire = max(
                loop.next_fire + 1.0 / loop.spec.target_qps, time.monotonic()
            )
        elapsed = time.monotonic() - t0
    finally:
        if supervisor is not None:
            supervisor.shutdown()
        if trace_out:
            disable_tracing()

    report: Dict[str, Any] = {
        "mode": mode,
        "duration_s": round(elapsed, 3),
        "streams": list(STREAMS),
        "tenants": {},
    }
    if trace_out:
        report["trace_events"] = export_chrome_trace(
            get_sink().drain(), trace_out
        )
        report["trace_out"] = trace_out
    for loop in loops:
        spec = loop.spec
        p99 = _percentile_ms(loop.hist, 99)
        slo = spec.budget.slo_p99_ms
        report["tenants"][spec.name] = {
            "priority": spec.budget.priority,
            "target_qps": spec.target_qps,
            "qps_budget": spec.budget.qps,
            "achieved_qps": round(loop.admitted / elapsed, 2),
            "admitted": loop.admitted,
            "rejected": dict(loop.rejected),
            "p50_ms": round(_percentile_ms(loop.hist, 50), 2),
            "p95_ms": round(_percentile_ms(loop.hist, 95), 2),
            "p99_ms": round(p99, 2),
            "slo_p99_ms": slo,
            "slo_ok": bool(p99 <= slo) if slo is not None else None,
        }
    return report


def check_report(report: Dict[str, Any]) -> List[str]:
    """The smoke gate's assertions over the skewed preset; returns the
    list of violations (empty means the QoS story held)."""
    problems: List[str] = []
    interactive = report["tenants"].get("interactive")
    bulk = report["tenants"].get("bulk")
    if interactive is None or bulk is None:
        return ["report is missing the interactive/bulk preset tenants"]
    if interactive["admitted"] == 0:
        problems.append("interactive tenant had no admitted ops")
    if interactive["slo_ok"] is False:
        problems.append(
            "interactive p99 %.1fms blew its %.1fms SLO"
            % (interactive["p99_ms"], interactive["slo_p99_ms"])
        )
    total_rejected = sum(bulk["rejected"].values())
    if total_rejected == 0:
        problems.append(
            "bulk tenant offered %.1f qps over an %.1f qps budget but was "
            "never throttled" % (bulk["target_qps"], bulk["qps_budget"])
        )
    if bulk["achieved_qps"] > bulk["qps_budget"] * 1.5:
        problems.append(
            "bulk tenant achieved %.1f qps, well over its %.1f qps budget"
            % (bulk["achieved_qps"], bulk["qps_budget"])
        )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode", choices=("inproc", "worker"), default="inproc",
        help="in-process ShardNodes or worker-process shards",
    )
    parser.add_argument("--duration", type=float, default=4.0,
                        help="wall seconds of load per run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true",
                        help="print the full report as JSON")
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the skewed preset's QoS story holds "
             "(high-priority SLO met, bulk tenant throttled)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="enable request tracing for the run and export the spans "
             "as Chrome-trace-event JSON (open in ui.perfetto.dev)",
    )
    parser.add_argument(
        "--trace-sample-rate", type=float, default=DEFAULT_SAMPLE_RATE,
        help="sampling rate when --trace-out is set (default %(default)s; "
             "the first eligible request is always sampled)",
    )
    args = parser.parse_args(argv)

    report = run_loadgen(
        mode=args.mode, duration_s=args.duration, seed=args.seed,
        trace_out=args.trace_out, trace_sample_rate=args.trace_sample_rate,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("[loadgen] mode=%s elapsed=%.1fs" % (args.mode, report["duration_s"]))
        for name, t in sorted(report["tenants"].items()):
            print(
                "  %-12s p%d  offered %5.1f/s  achieved %5.1f/s  "
                "p50 %7.1fms  p99 %7.1fms  slo %s  rejected %s"
                % (
                    name, t["priority"], t["target_qps"], t["achieved_qps"],
                    t["p50_ms"], t["p99_ms"],
                    "ok" if t["slo_ok"] else ("n/a" if t["slo_ok"] is None else "MISS"),
                    sum(t["rejected"].values()),
                )
            )
    if args.trace_out:
        print(
            "[loadgen] exported %d trace events to %s"
            % (report.get("trace_events", 0), args.trace_out)
        )
    if args.check:
        problems = check_report(report)
        for problem in problems:
            print("[loadgen] CHECK FAILED: %s" % problem)
        if problems:
            return 1
        print("[loadgen] check ok: SLO held for interactive, bulk throttled")
    return 0


if __name__ == "__main__":
    sys.exit(main())
