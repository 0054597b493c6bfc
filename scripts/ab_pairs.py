#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload.

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload archive_index

The pairs protocol a claimed gain is judged by (``bench/README.md``,
the choosing-metrics guide, section 8) as one command.  Pair ``i`` runs
seed ``seed0 + i`` once in each checkout -- parent first on even pairs,
change first on odd ones -- by shelling out to *that checkout's own*
``python3 bench/run.py --workload W --seed N --seconds S``.  This script
measures nothing itself: it reads the rounds' ``--out`` files (written
to a temporary directory, never into a checkout) and prints every
metric per pair, then each side's median with quartiles, the change's
wins / ties / losses, and whether the medians differ by more than the
parent's own inter-quartile range.

Exit code 1 when a round fails, or when ``exact.*`` or either ``sim_*``
metric differs between the two sides within a seed (a
behaviour-preserving change may move none of them).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List

SIDES = ("parent", "change")
MUST_MATCH = ("sim_ingest_cheaper_x", "sim_query_faster_x")


def run_round(checkout: str, workload: str, seed: int, seconds: float, out: str) -> Dict:
    done = subprocess.run(
        ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--out", out],
        cwd=checkout, stdout=subprocess.DEVNULL,
    )
    if done.returncode != 0:
        raise SystemExit("%s: bench/run.py exited %d at seed %d" % (checkout, done.returncode, seed))
    with open(out) as handle:
        return json.load(handle)


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def higher_is_better(name: str, unit: str, declared: Dict[str, str]) -> bool:
    # declared metrics say so in BENCHMARK.json; of the scoped ones,
    # rates are better higher and everything else is a cost
    return declared.get(name, "higher" if unit.endswith("/s") else "lower") == "higher"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--seed0", type=int, default=21)
    args = parser.parse_args(argv)
    checkouts = dict(zip(SIDES, (os.path.abspath(args.parent_dir), os.path.abspath(args.change_dir))))
    with open(os.path.join(checkouts["change"], "BENCHMARK.json")) as handle:
        declared = {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}

    series: Dict[str, Dict[str, List[float]]] = {}
    units: Dict[str, str] = {}
    mismatches: List[str] = []
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        for pair in range(args.pairs):
            seed = args.seed0 + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            rounds = {
                side: run_round(checkouts[side], args.workload, seed, args.seconds,
                                os.path.join(tmp, "%s-%d.json" % (side, seed)))
                for side in order
            }
            print("# pair %d  seed=%d  order=%s" % (pair + 1, seed, ",".join(order)))
            for name, cell in rounds["parent"]["metrics"].items():
                other = rounds["change"]["metrics"].get(name)
                if other is None:
                    continue
                units[name] = cell["unit"]
                sides = series.setdefault(name, {side: [] for side in SIDES})
                sides["parent"].append(cell["value"])
                sides["change"].append(other["value"])
                print("%-28s %14.4f -> %14.4f %s" % (name, cell["value"], other["value"], cell["unit"]))
                if name in MUST_MATCH and cell["value"] != other["value"]:
                    mismatches.append("seed %d: %s" % (seed, name))
            if rounds["parent"]["exact"] != rounds["change"]["exact"]:
                mismatches.append("seed %d: exact.*" % seed)
                print("exact.* DIFFERS\n  parent %s\n  change %s" % (
                    rounds["parent"]["exact"], rounds["change"]["exact"]))
            sys.stdout.flush()

    print("\n# %s  %d pairs  --seconds %g  seeds %d-%d: median [q1, q3], parent -> change" % (
        args.workload, args.pairs, args.seconds, args.seed0, args.seed0 + args.pairs - 1))
    for name, sides in series.items():
        sign = 1.0 if higher_is_better(name, units[name], declared) else -1.0
        wins = sum(sign * c > sign * p for p, c in zip(sides["parent"], sides["change"]))
        ties = sum(c == p for p, c in zip(sides["parent"], sides["change"]))
        (p1, pm, p3), (c1, cm, c3) = quartiles(sides["parent"]), quartiles(sides["change"])
        change_pct = (cm - pm) / pm * 100.0 if pm else 0.0
        print("%-28s %11.4f [%.4f, %.4f] -> %11.4f [%.4f, %.4f] %-6s %+6.1f%%  "
              "change wins %d ties %d losses %d  gap %s parent IQR" % (
                  name, pm, p1, p3, cm, c1, c3, units[name], change_pct,
                  wins, ties, len(sides["parent"]) - wins - ties,
                  ">" if abs(cm - pm) > p3 - p1 else "<="))
    if mismatches:
        print("\nFAIL: must-not-move values differ: %s" % "; ".join(mismatches))
        return 1
    print("\nexact.* and sim_* identical within every seed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
