#!/usr/bin/env python3
"""Compare seed-1 benchmark rounds with their committed answers.

    python3 scripts/check_golden_rounds.py            # all four workloads
    python3 scripts/check_golden_rounds.py --workload serve_queries
    python3 scripts/check_golden_rounds.py --write    # regenerate the file

Runs ``python3 bench/run.py --workload W --seed 1 --seconds 2 --out F``
for each workload (its ``--out`` file goes to a temporary directory) and
compares every ``exact.*`` value and both ``sim_*`` metrics with
``tests/golden/seed1_rounds.json``.  Floats compare exactly: these
values are deterministic functions of the seed, so any difference is a
changed answer.  Exit code 1 lists every differing value.

A change that moves an answer on purpose regenerates the file with
``--write`` and names every moved value in ``CHANGES.md``.  Run it
once more under generic CPU dispatch (``OPENBLAS_CORETYPE=Prescott``
and ``NPY_DISABLE_CPU_FEATURES``) to show that no committed value
depends on a SIMD or BLAS kernel.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "seed1_rounds.json")
WORKLOADS = ("archive_index", "live_ingest_durable", "serve_queries", "mixed_fleet_workers")
SIM_METRICS = ("sim_ingest_cheaper_x", "sim_query_faster_x")
SEED = 1
SECONDS = 2


def run_round(workload: str, out: str) -> Dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--out", out],
        cwd=ROOT, stdout=subprocess.DEVNULL,
    )
    if done.returncode != 0:
        raise SystemExit("bench/run.py exited %d on %s" % (done.returncode, workload))
    with open(out) as handle:
        return json.load(handle)


def answers(round_doc: Dict) -> Dict:
    """The values of one round that may not move: ``exact.*`` and the
    two simulated-cost ratios."""
    return {
        "exact": round_doc["exact"],
        **{name: round_doc["metrics"][name]["value"] for name in SIM_METRICS},
    }


def differences(expected: Dict, got: Dict, prefix: str = "") -> List[str]:
    """Every key path whose value differs (or exists on one side only)."""
    out = []
    for key in sorted(set(expected) | set(got)):
        path = prefix + key
        if key not in expected or key not in got:
            out.append("%s: only in %s" % (path, "the round" if key in got else "the file"))
        elif isinstance(expected[key], dict) and isinstance(got[key], dict):
            out.extend(differences(expected[key], got[key], path + "."))
        elif expected[key] != got[key]:
            out.append("%s: file %r, round %r" % (path, expected[key], got[key]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="check only this workload (repeatable)")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the file from this checkout's rounds")
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as handle:
            golden = json.load(handle)
    failed = []
    with tempfile.TemporaryDirectory() as scratch:
        for workload in workloads:
            got = answers(run_round(workload, os.path.join(scratch, workload + ".json")))
            if args.write:
                golden[workload] = got
                print("%-22s written" % workload)
                continue
            diff = differences(golden.get(workload, {}), got)
            print("%-22s %s" % (workload, "identical" if not diff else "DIFFERS"))
            for line in diff:
                print("    " + line)
            failed.extend(diff)
    if args.write:
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w") as handle:
            json.dump({w: golden[w] for w in WORKLOADS if w in golden}, handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
