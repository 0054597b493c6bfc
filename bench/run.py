#!/usr/bin/env python3
"""The repo's benchmark.

    python3 bench/run.py --seed 12                     # every workload, interleaved rounds
    python3 bench/run.py --seed 12 --workload serve_queries
    python3 bench/run.py --seed 12 --trace --out bench/out/run.json
    python3 bench/run.py --compare bench/out/a.json bench/out/b.json

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1   # one round

With ``--seconds`` the process runs *one round* of one workload -- the
form ``BENCHMARK.json`` declares -- and ends with one JSON result line.
Without it, it runs the whole protocol: every round in a fresh
subprocess of this same file, rounds of different workloads
interleaved, medians and quartiles over the rounds, then (``--trace``)
one traced round per workload.  Every metric is printed by name with
its unit, every answer is checked against the single-node one-shot
oracle, and any mismatch makes the exit code non-zero.

The only inputs are the flags above: no environment variable changes
what is measured.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# run as a script, sys.path[0] is bench/ itself: its module names
# (trace, check, ...) must not shadow the standard library's
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from bench import metrics as registry  # noqa: E402
from bench import stats  # noqa: E402

OUT_DIR = os.path.join(ROOT, "bench", "out")
#: rounds per workload in the full protocol
ROUNDS = {
    "archive_index": 3,
    "live_ingest_durable": 5,
    "serve_queries": 3,
    "mixed_fleet_workers": 3,
}
MIN_PASSES = 3
#: a round whose generator ran later than this (p95) is re-run, once
LATE_BOUND_S = 0.25


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def calibration_s() -> float:
    """A fixed numpy + dict loop: flags a slow host, changes nothing.
    (Elementwise numpy only: a BLAS call would time the library's
    thread pool, which stalls for 100 ms when the other CPU is busy.)"""
    vector = np.arange(20000, dtype=np.float64) / 1e4
    took = []
    for _ in range(5):
        started = time.perf_counter()
        table: Dict[int, int] = {}
        for i in range(20000):
            table[i % 97] = table.get(i % 97, 0) + i
        for _ in range(100):
            int(np.argmin(vector * vector - vector))
        took.append(time.perf_counter() - started)
    return statistics.median(took)


# -- one round ----------------------------------------------------------------

def run_round(workload: str, seed: int, seconds: float, traced: bool) -> Dict:
    """One round in this process: passes until ``seconds`` are measured."""
    from bench.trace import SpanRecorder
    try:
        from bench.workloads import (
            WORKLOADS, PassRecord, backend_counters, peak_rss_mb, reset_peak_rss)
    except ImportError as exc:
        raise SystemExit("bench: the program under test is not importable here (%s)" % exc)

    recorder = SpanRecorder()
    calibration = calibration_s()
    load = WORKLOADS[workload](seed, recorder)
    passes: List[PassRecord] = []

    def one_pass(read_counters: bool = False) -> Optional[Dict[str, float]]:
        record = PassRecord()
        reset_peak_rss()
        started = time.perf_counter()
        state = load.setup()
        record.setup_s = time.perf_counter() - started
        try:
            load.run(state, record)
            record.scalars["peak_rss_mb"] = peak_rss_mb()  # workers still alive
            counters = backend_counters(*load.backends(state)) if read_counters else None
        finally:
            load.teardown(state)
        del state
        gc.collect()  # between passes, never inside one
        passes.append(record)
        return counters

    if not traced:
        # the first pass only warms the process (it runs ~40 % slower than
        # the rest: first-touch page faults, allocator growth) and is not
        # reported; every answer of it is still checked
        one_pass()
        measured = 0.0
        while len(passes) <= MIN_PASSES or measured < seconds:
            one_pass()
            measured += passes[-1].measured_s
        values = load.fold(passes[1:])
    else:
        from bench import boundaries, layers

        # a pass with the benchmark's spans on between two without: the
        # first warms the process, the ratio of the other two is the
        # tracing overhead the traced numbers are read with
        one_pass()
        uninstall = boundaries.install(recorder)
        recorder.active = True
        try:
            counters = one_pass(read_counters=True)
        finally:
            recorder.active = False
            uninstall()
        one_pass()
        spanned, plain = passes[1], passes[2]
        values = load.fold(passes[1:])
        replayed = layers.battery(load.tables, load.configs, load.index_mode, seed)
        # retries are counted wherever a worker fabric ran: pass and replay
        counters["fabric.worker.retries"] += replayed.pop("fabric.worker.retries")[0]
        values.update(replayed)
        values.update({k: (v, 1) for k, v in counters.items()})
        values.update(layers.trace_shares(recorder, spanned.measured_s))
        values.update({
            "bench.trace_overhead_x": (spanned.measured_s / plain.measured_s, 1),
            "video.generate_s": (load.generate_s, 1),
            "video.rows": (float(load.rows), 1),
            "bench.calibration_s": (calibration, 5),
            "bench.reference_s": (load.reference_s, 1),
        })
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (workload, seed))
        recorder.write_chrome_trace(trace_path)

    exact = passes[0].exact
    identical = all(p.exact == exact for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wanted = registry.expected(workload, traced)
    missing = sorted(set(wanted) - set(values))
    extra = sorted(set(values) - set(wanted))
    if missing or extra:
        raise SystemExit(
            "%s: metrics out of step with bench/metrics.py (missing %s, undeclared %s)"
            % (workload, missing, extra)
        )
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "cpu_count": usable_cpus(),
        "passes": len(passes) - 1,
        "measured_s": sum(p.measured_s for p in passes[1:]),
        "calibration_s": calibration,
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "exact": exact,
        "exact_identical_across_passes": identical,
        "metrics": {
            name: {"value": values[name][0], "unit": registry.BY_NAME[name].unit, "n": values[name][1]}
            for name in wanted
        },
    }


def print_round(doc: Dict) -> None:
    print(
        "# %s  seed=%d  passes=%d  measured=%.1fs  cpus=%d  attempted=%d  failed=%d"
        % (doc["workload"], doc["seed"], doc["passes"], doc["measured_s"],
           doc["cpu_count"], doc["attempted"], doc["failed"])
    )
    for name, m in doc["metrics"].items():
        print("%-46s %16.4f %-7s n=%d" % (name, m["value"], m["unit"], m["n"]))
    for key, value in doc["exact"].items():
        print("%-46s %s" % ("exact." + key, value))


def result_line(doc: Dict) -> str:
    """The contract's last line: exactly the manifest's metrics."""
    names = registry.declared(traced=bool(doc["trace"]))
    return json.dumps({
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {
            n: {"value": doc["metrics"][n]["value"], "unit": doc["metrics"][n]["unit"]}
            for n in names
        },
    })


def stop_helpers() -> None:
    """Reap multiprocessing's shared-memory tracker: nothing this
    process started may outlive it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main_round(args) -> int:
    doc = run_round(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    stop_helpers()
    print_round(doc)
    print(result_line(doc), flush=True)
    return 0 if doc["correct"] else 1


# -- the full protocol ----------------------------------------------------------

def spawn_round(workload: str, seed: int, seconds: float, traced: bool, tag: str) -> Dict:
    """One round in a fresh subprocess (clean RSS, no allocator carry-over)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "round-%s-%s.json" % (workload, tag))
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)), "--out", path,
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if not os.path.exists(path):
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit("round %s/%s failed to report (exit %d)" % (workload, tag, done.returncode))
    with open(path) as fh:
        doc = json.load(fh)
    os.remove(path)
    return doc


def summarize_rounds(rounds: List[Dict]) -> Dict[str, Dict]:
    out: Dict[str, Dict] = {}
    for name in rounds[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rounds]
        entry = stats.summarize(values)
        entry.update(unit=rounds[0]["metrics"][name]["unit"], values=values)
        out[name] = entry
    return out


def print_summary(workload: str, summary: Dict[str, Dict]) -> None:
    print("\n== %s ==" % workload)
    print("%-46s %14s %14s %14s %-7s %s" % ("metric", "median", "q1", "q3", "unit", "rounds"))
    for name, s in summary.items():
        print("%-46s %14.4f %14.4f %14.4f %-7s %d"
              % (name, s["median"], s["q1"], s["q3"], s["unit"], s["n"]))


def main_protocol(args) -> int:
    workloads = [args.workload] if args.workload else list(registry.WORKLOADS)
    seconds = float(registry.RUN_SECONDS)
    rounds: Dict[str, List[Dict]] = {w: [] for w in workloads}
    rerun = 0
    correct = True
    for r in range(max(ROUNDS[w] for w in workloads)):
        for w in workloads:  # interleaved: a slow host phase lands on all
            if r >= ROUNDS[w]:
                continue
            doc = spawn_round(w, args.seed, seconds, False, "r%d" % r)
            late = doc["metrics"].get("bench.late_p95_ms")
            if late and late["value"] / 1e3 > LATE_BOUND_S:
                rerun += 1
                doc = spawn_round(w, args.seed, seconds, False, "r%d-again" % r)
            print("[round %d] %-22s passes=%d failed=%d/%d  %.1fs measured"
                  % (r + 1, w, doc["passes"], doc["failed"], doc["attempted"], doc["measured_s"]),
                  flush=True)
            correct = correct and doc["correct"]
            rounds[w].append(doc)
    result = {
        "meta": {
            "seed": args.seed, "seconds": seconds, "cpu_count": usable_cpus(),
            "rounds_rerun_for_lateness": rerun, "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "workloads": {},
    }
    for w in workloads:
        exact = [r["exact"] for r in rounds[w]]
        same = all(e == exact[0] for e in exact)
        correct = correct and same
        summary = summarize_rounds(rounds[w])
        print_summary(w, summary)
        print("%-46s %s" % ("exact (identical over %d rounds: %s)" % (len(exact), same), exact[0]))
        result["workloads"][w] = {
            "summary": summary, "exact": exact[0], "exact_identical": same,
            "attempted": sum(r["attempted"] for r in rounds[w]),
            "failed": sum(r["failed"] for r in rounds[w]),
        }
    if args.trace:
        for w in workloads:
            doc = spawn_round(w, args.seed, seconds, True, "traced")
            correct = correct and doc["correct"]
            traced_only = {
                n: m for n, m in doc["metrics"].items() if registry.BY_NAME[n].traced
            }
            print("\n== %s (traced pass: layers) ==" % w)
            for name, m in traced_only.items():
                print("%-46s %16.4f %-7s" % (name, m["value"], m["unit"]))
            print("chrome trace: bench/out/trace-%s-seed%d.json" % (w, args.seed))
            result["workloads"][w]["traced"] = traced_only
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
        print("\nwrote %s" % args.out)
    print("\n%s" % ("all answers matched the oracle" if correct else "MISMATCH: see failed counts above"))
    return 0 if correct else 1


# -- compare ------------------------------------------------------------------

def main_compare(base_path: str, new_path: str) -> int:
    with open(base_path) as fh:
        base = json.load(fh)
    with open(new_path) as fh:
        new = json.load(fh)
    bad = unresolved = 0
    for w in registry.WORKLOADS:
        b, n = base["workloads"].get(w), new["workloads"].get(w)
        if not b or not n:
            continue
        print("\n== %s ==" % w)
        print("%-26s %-30s %-30s %8s  %s"
              % ("metric", "base median [q1, q3]", "new median [q1, q3]", "worse by", "verdict"))
        for name, bs in b["summary"].items():
            metric = registry.BY_NAME[name]
            ns = n["summary"].get(name)
            if ns is None or metric.kind != "e2e":
                continue
            if metric.exact:
                result = stats.exact_verdict(bs["values"], ns["values"])
            else:
                result = stats.verdict(bs["values"], ns["values"], metric.better, metric.bound)
            moved = stats.worse_by(bs["median"], ns["median"], metric.better)
            bad += result in ("REGRESSED", "DIFFERS")
            unresolved += result == "unresolved"
            print("%-26s %-30s %-30s %+7.1f%%  %s (bound %.0f%%)" % (
                name,
                "%.4g [%.4g, %.4g]" % (bs["median"], bs["q1"], bs["q3"]),
                "%.4g [%.4g, %.4g]" % (ns["median"], ns["q1"], ns["q3"]),
                100 * moved, result, 100 * metric.bound,
            ))
        same = b["exact"] == n["exact"]
        bad += not same
        print("%-26s %s" % ("answer digest + counts", "identical" if same else "DIFFERS"))
    print("\n%d regressed or differing, %d unresolved" % (bad, unresolved))
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--workload", choices=list(registry.WORKLOADS))
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float,
                        help="run one round of --workload measuring this long")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return main_compare(*args.compare)
    if args.seconds is not None:
        if not args.workload:
            parser.error("--seconds runs one round and needs --workload")
        return main_round(args)
    return main_protocol(args)


if __name__ == "__main__":
    raise SystemExit(main())
