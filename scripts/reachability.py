#!/usr/bin/env python3
"""Which consumer of ``src/repro`` reaches which function.

    python3 scripts/reachability.py                  # writes docs/REACHABILITY.md
    python3 scripts/reachability.py --out /tmp/r.md

Runs every consumer of the package under ``sys.setprofile`` -- the four
``bench/`` workloads, the eight ``examples/``, the paper-figure tests in
``benchmarks/``, the scripts CI runs, then the tier-1 suite for the
"tests only" column -- and diffs the functions they called against an
``ast`` inventory of every ``def`` under ``src/repro``.  The report has
one row per module (lines reached per consumer kind) and one line per
function no consumer reaches, with the decision taken for it
(:data:`DECISIONS`).  Exits 1 when such a function has no decision.

Stdlib only.  About five minutes on a 2-vCPU host, so it is not a CI
job: rerun it after a change that adds, deletes or rewires functions.

How the trace is taken:

* a function is keyed by (file, first line); ``co_firstlineno`` is the
  first decorator's line, which is what the inventory records too
  (``co_qualname`` would be simpler, but Python 3.9 lacks it);
* worker processes inherit the hook across ``fork`` and leave through
  ``os._exit``, so each process appends to its own line-buffered file;
* pytest-benchmark displaces the hook while it times, so pytest runs
  with ``--benchmark-disable``.
"""

from __future__ import annotations

import argparse
import ast
import collections
import fnmatch
import os
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
DEFAULT_OUT = os.path.join(ROOT, "docs", "REACHABILITY.md")

Key = Tuple[str, int]

#: consumer kinds, in report order; "tests" only feeds "tests only"
KINDS = ("workload", "example", "figure", "ci")

PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable"]

#: (kind, name, argv after ``python3``); ``{tmp}`` is a scratch directory
CONSUMERS: Tuple[Tuple[str, str, List[str]], ...] = tuple(
    ("workload", w, ["bench/run.py", "--workload", w, "--seed", "1",
                     "--seconds", "2", "--trace", "1"])
    for w in ("archive_index", "live_ingest_durable", "serve_queries",
              "mixed_fleet_workers")
) + tuple(
    ("example", e, ["examples/%s.py" % e])
    for e in ("quickstart", "live_ingest", "multi_camera_service",
              "news_monitoring", "sharded_fleet", "surveillance_review",
              "tradeoff_explorer", "traffic_investigation")
) + (
    ("figure", "benchmarks/", PYTEST + ["benchmarks"]),
    ("ci", "loadgen --check", ["scripts/loadgen.py", "--check", "--duration", "4"]),
    ("ci", "loadgen trace export", ["scripts/loadgen.py", "--mode", "worker",
                                    "--duration", "3", "--trace-out",
                                    "{tmp}/loadgen_trace.json",
                                    "--trace-sample-rate", "1.0", "--json"]),
    ("ci", "readme quickstart", ["scripts/check_readme_quickstart.py"]),
    ("tests", "tier-1", PYTEST),
)

_FAULT = "stays: a fault path (no consumer crashes, kills or stalls a worker)"
_FAILOVER = (
    "stays: the failover path (a fault path); its last consumer was the"
    " retired MTTR drill, which returns when ROADMAP 1(a) ports it to `bench/`"
)
_SCALAR = "stays: the scalar reference tests compare the batched draw against"
_WORKER_MIGRATION = "stays: migration over a worker leg, which no consumer performs"
_EVAL = "stays: figure-harness helper, decided when eval/ is reworked"
_FLEET_GRADE = "stays: the cross-stream grade (evidence-weighted fleet precision and recall) the grade tests pin"

#: ``module:qualname`` pattern -> the decision for a function no
#: consumer reaches (first match wins).  Protocol stubs and ``__repr__``
#: are decided without an entry.
DECISIONS: Tuple[Tuple[str, str], ...] = (
    # fault paths: crash, restart, breaker
    ("storage/faults.py:*", "stays: fault injection, the engine of the crash-point and chaos suites"),
    ("fabric/supervisor.py:FabricSupervisor.kill", _FAULT),
    ("fabric/supervisor.py:FabricSupervisor.ensure_alive", _FAILOVER),
    ("fabric/supervisor.py:FabricSupervisor.restart", _FAILOVER),
    ("fabric/supervisor.py:FabricSupervisor._condemn", _FAILOVER),
    ("fabric/shard.py:ShardNode.recover", _FAILOVER),
    ("fabric/client.py:ShardClient.ensure_alive", _FAILOVER),
    ("fabric/router.py:FabricRouter._failover", _FAILOVER),
    ("fabric/supervisor.py:FabricSupervisor.reset_failed", _FAULT),
    ("fabric/supervisor.py:FabricSupervisor.alive", _FAULT),
    ("fabric/supervisor.py:FabricSupervisor.health*", _FAULT),
    ("fabric/supervisor.py:FabricSupervisor.__e*", "stays: `with FabricSupervisor(...)` guarantees shutdown; tests use it"),
    ("fabric/supervisor.py:FabricSupervisor.store", "stays: the parent-side mirror a restart respawns from (a fault path)"),
    ("fabric/protocol.py:*", "stays: a worker-side error crossing the wire (a fault path)"),
    ("fabric/shm.py:unlink_segment", "stays: unlinks a condemned worker's orphan reply segments (a fault path)"),
    ("fabric/router.py:FabricRouter.recover", _FAULT),
    ("fabric/router.py:FabricRouter.append_many.replay", "stays: the at-most-once replay of a retried append (a fault path)"),
    ("core/streaming.py:_RoundSession._go_serial", "stays: sends a round's stream back to plain push after a helper failure or a journal fault (a fault path)"),
    ("core/helpers.py:Helper._describe", "stays: names a failed helper in the error its caller sees (a fault path)"),
    ("fabric/router.py:FabricRouter._empty_answer", "stays: the partial answer when every leg of a request is lost (a fault path)"),
    ("fabric/shard.py:ShardNode.ensure_alive", "stays: `ShardLeg` member; an in-process leg has nothing to respawn"),
    ("fabric/shard.py:ShardNode.ping", "stays: op-table verb served in-process, for parity with a worker leg"),
    ("fabric/shard.py:ShardNode.fenced", "stays: op-table verb served in-process, for parity with a worker leg"),
    ("storage/journal.py:fenced_streams", "stays: reads the migration fences the `fenced` op reports"),
    ("storage/journal.py:chunk_digest", "stays: the reader's checksum of one stored chunk payload, which the WAL tests hold the write path's checksums to"),
    # scalar references
    ("cnn/model.py:ClassifierModel.topk_list", _SCALAR),
    ("cnn/noise.py:ConfusionModel.sample_slots", _SCALAR),
    # paths no consumer configures
    ("core/index.py:_ClusterStore._ranked", "stays: a lazy index's entries carry no ranked tokens; only the index tests read a lazy index's entries"),
    ("core/index.py:TopKIndex.entries", "stays: iterates a materialized index's entries; the index tests audit them"),
    ("fabric/client.py:ShardClient.store", _WORKER_MIGRATION),
    ("storage/docstore.py:DocumentStore.__reduce__", _WORKER_MIGRATION),
    ("fabric/placement.py:PlacementTable.streams", "stays: the placed streams, the table's listing verb"),
    # read-side API a user or an operator calls
    ("baselines/*", "stays: the Ingest-all / Query-all API the Section 6 comparison is stated in"),
    ("cnn/costs.py:GPUSpec.images_per_second", "stays: states the K80 anchor (77 images/s) the cost model is calibrated to"),
    ("cnn/features.py:FeatureExtractor.class_prototype", "stays: one class's prototype, which the feature-geometry tests read"),
    ("cnn/zoo.py:vgg16", "stays: the costly end of the zoo; `model_by_name` rebuilds it at recovery"),
    ("core/costmodel.py:GPULedger.*", "stays: the ledger's per-category totals, merge and reset, which the cost tests audit"),
    ("core/metrics.py:SegmentMetrics.f1", "stays: accuracy summary (F1) the metrics tests check"),
    ("core/metrics.py:Grade.aggregate", _FLEET_GRADE),
    ("core/metrics.py:_weighted", _FLEET_GRADE),
    ("core/metrics.py:StreamAccuracy.min_*", "stays: worst-class accuracy the metrics tests check"),
    ("core/query.py:QueryResult.latency_seconds", "stays: an engine answer's GPU-time latency on N GPUs (Section 6.1)"),
    ("core/streaming.py:StreamIngestor.clusters", "stays: the session's clustering, which the live-equals-one-shot tests compare"),
    ("fabric/router.py:FabricRouter.streams", "stays: the placed streams, the router's listing verb"),
    ("fabric/router.py:FabricRouter.counters", "stays: a router observability surface (docs/OBSERVABILITY.md)"),
    ("fabric/router.py:FabricRouter.metrics_snapshot", "stays: a router observability surface (docs/OBSERVABILITY.md)"),
    ("obs/events.py:*", "stays: reading and redirecting the event log (docs/OBSERVABILITY.md)"),
    ("obs/trace.py:*", "stays: span inspection and JSONL dump / load (docs/OBSERVABILITY.md, scripts/trace_export.py)"),
    ("serve/cache.py:*", "stays: verdict-cache inspection and eviction bookkeeping the cache tests drive"),
    ("serve/frontdoor.py:*", "stays: front-door surface documented in docs/QOS.md"),
    ("serve/service.py:MultiStreamAnswer.*", "stays: answer accessors (the degraded marker)"),
    ("storage/docstore.py:Collection.*", "stays: `StoredCollection` surface and index inspection"),
    ("video/profiles.py:stream_names", "stays: lists the Table 1 streams (exported from `repro.video`)"),
    ("video/synthesis.py:SceneGenerator.distribution", "stays: synthesis accessors the Section 2.2 statistics tests read"),
    ("video/tracks.py:*", "stays: synthesis accessors the Section 2.2 statistics tests read"),
    ("eval/*", _EVAL),
)


# -- tracing (runs inside each consumer's process) ----------------------------

def _install_hook(outdir: str) -> None:
    """Record the first call of every code object under ``src/repro``
    into ``outdir/<pid>.txt`` as ``relpath<TAB>first line`` lines."""
    prefix = PACKAGE + os.sep
    seen: Dict[int, object] = {}  # id -> code: holding the code pins its id
    files: Dict[int, object] = {}

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if id(code) in seen:
            return
        seen[id(code)] = code
        path = os.path.abspath(code.co_filename)
        if not path.startswith(prefix):
            return
        pid = os.getpid()
        out = files.get(pid)
        if out is None:
            out = files[pid] = open(
                os.path.join(outdir, "%d.txt" % pid), "a", buffering=1
            )
        out.write("%s\t%d\n" % (path[len(prefix):], code.co_firstlineno))

    threading.setprofile(hook)
    sys.setprofile(hook)


def _trace(outdir: str, argv: List[str]) -> int:
    """Run ``python3 argv...`` in this process under the hook."""
    import runpy

    _install_hook(outdir)
    try:
        if argv[:2] == ["-m", "pytest"]:
            import pytest

            sys.path[0] = ROOT  # as `python3 -m pytest` from the root
            return int(pytest.main(argv[2:]))
        script = os.path.join(ROOT, argv[0])
        sys.argv = [script] + argv[1:]
        sys.path[0] = os.path.dirname(script)
        runpy.run_path(script, run_name="__main__")
        return 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.setprofile(None)


def _reached(outdir: str) -> Set[Key]:
    keys: Set[Key] = set()
    for name in os.listdir(outdir):
        with open(os.path.join(outdir, name)) as fh:
            for line in fh:
                path, _, first = line.rstrip("\n").partition("\t")
                if first.isdigit():  # a process killed mid-line
                    keys.add((path, int(first)))
    return keys


def run_consumers(tmp: str) -> Dict[str, Set[Key]]:
    """kind -> the functions its consumers reached."""
    by_kind: Dict[str, Set[Key]] = collections.defaultdict(set)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for i, (kind, name, argv) in enumerate(CONSUMERS):
        outdir = os.path.join(tmp, "trace-%02d" % i)
        os.makedirs(outdir)
        command = [sys.executable, os.path.abspath(__file__), "--trace", outdir, "--"]
        started = time.perf_counter()
        proc = subprocess.run(
            command + [a.format(tmp=tmp) for a in argv],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            universal_newlines=True,
        )
        reached = _reached(outdir)
        by_kind[kind] |= reached
        print(
            "%-8s %-22s exit %d %6.0f s %5d functions"
            % (kind, name, proc.returncode, time.perf_counter() - started, len(reached)),
            file=sys.stderr,
        )
        if proc.returncode:
            print(proc.stderr[-2000:], file=sys.stderr)
    return by_kind


# -- the inventory ---------------------------------------------------------------

class Function:
    """One ``def`` under ``src/repro``: its first line (the first
    decorator's) and the lines it owns -- its span minus the spans of
    the defs nested in it."""

    def __init__(self, module: str, qualname: str, node, in_protocol: bool):
        self.module = module
        self.qualname = qualname
        self.first = min([d.lineno for d in node.decorator_list] + [node.lineno])
        self.last = node.end_lineno
        self.lines = 0
        self.protocol_stub = in_protocol and _is_stub(node)

    @property
    def key(self) -> Key:
        return (self.module, self.first)

    @property
    def name(self) -> str:
        return "%s:%s" % (self.module, self.qualname)


def _is_stub(node) -> bool:
    """A body of ``...``, after an optional docstring."""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return (
        len(body) == 1 and isinstance(body[0], ast.Expr)
        and getattr(body[0].value, "value", None) is Ellipsis
    )


def _is_protocol(node: ast.ClassDef) -> bool:
    return any(
        getattr(base, "id", getattr(base, "attr", None)) == "Protocol"
        for base in node.bases
    )


def _walk(node, module: str, scope: str, in_protocol: bool, out: List[Function]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(Function(module, scope + child.name, child, in_protocol))
            _walk(child, module, scope + child.name + ".", False, out)
        elif isinstance(child, ast.ClassDef):
            _walk(child, module, scope + child.name + ".", _is_protocol(child), out)
        else:
            _walk(child, module, scope, in_protocol, out)


def inventory() -> List[Function]:
    functions: List[Function] = []
    for dirpath, dirnames, filenames in os.walk(PACKAGE):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, filename)
            module = os.path.relpath(path, PACKAGE).replace(os.sep, "/")
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            found: List[Function] = []
            _walk(tree, module, "", False, found)
            # each line belongs to its innermost def: outer spans first,
            # inner ones overwrite
            owner: Dict[int, Function] = {}
            for fn in sorted(found, key=lambda f: f.first - f.last):
                for line in range(fn.first, fn.last + 1):
                    owner[line] = fn
            for fn in owner.values():
                fn.lines += 1
            functions += found
    return functions


# -- the report ------------------------------------------------------------------

def decision(fn: Function) -> str:
    if fn.protocol_stub:
        return "stays: a `Protocol` declaration, never called"
    if fn.qualname.rpartition(".")[2] == "__repr__":
        return "stays: a debugging aid"
    for pattern, text in DECISIONS:
        if fnmatch.fnmatchcase(fn.name, pattern):
            return text
    return "**undecided**"


def statuses(functions: List[Function], by_kind: Dict[str, Set[Key]]) -> Dict[Key, str]:
    """Per function: "consumer", "tests only" or "never"."""
    consumer = set().union(*(by_kind.get(kind, set()) for kind in KINDS))
    tests = by_kind.get("tests", set())
    return {
        fn.key: "consumer" if fn.key in consumer
        else "tests only" if fn.key in tests else "never"
        for fn in functions
    }


def render(functions: List[Function], by_kind: Dict[str, Set[Key]]) -> str:
    status = statuses(functions, by_kind)
    columns = KINDS + ("tests only", "never")
    rows: Dict[str, collections.Counter] = {}
    for fn in sorted(functions, key=lambda f: (f.module, f.first)):
        row = rows.setdefault(fn.module, collections.Counter())
        row["lines"] += fn.lines
        for kind in KINDS:
            if fn.key in by_kind.get(kind, ()):
                row[kind] += fn.lines
        if status[fn.key] != "consumer":
            row[status[fn.key]] += fn.lines
    total: collections.Counter = collections.Counter()
    for row in rows.values():
        total.update(row)

    out = [
        "# Reachability of `src/repro`",
        "",
        "Generated by `python3 scripts/reachability.py` (about five minutes;",
        "not a CI job). Do not edit by hand: decisions live in the script's",
        "`DECISIONS` table.",
        "",
        "Every consumer below ran under `sys.setprofile`. A function is",
        "*reached* by a consumer when that consumer called it at least once.",
        "A function's lines are its own body's (a nested function counts for",
        "itself); statements at module or class level are not counted. A",
        "function can be reached by several kinds of consumer, so those",
        "columns overlap; *tests only* and *never* do not.",
        "",
        "| kind | consumer | command |",
        "|---|---|---|",
    ]
    for kind, name, argv in CONSUMERS:
        command = " ".join(argv).replace("{tmp}", "$TMPDIR")
        out.append("| %s | %s | `python3 %s` |" % (kind, name, command))
    out += [
        "",
        "## Lines reached, per module",
        "",
        "| module | lines | " + " | ".join(columns) + " |",
        "|---|" + "---:|" * (len(columns) + 1),
    ]
    for module, row in sorted(rows.items()) + [("**total**", total)]:
        out.append("| %s | %d | %s |" % (
            module, row["lines"], " | ".join(str(row[c]) for c in columns)))
    out += [
        "",
        "Reached by a consumer: %d of %d lines. Tests only: %d. Never: %d." % (
            total["lines"] - total["tests only"] - total["never"],
            total["lines"], total["tests only"], total["never"]),
    ]
    for kind, heading in (("tests only", "Reached only by tests"),
                          ("never", "Reached by nothing")):
        fns = sorted(
            (f for f in functions if status[f.key] == kind),
            key=lambda f: (f.module, f.first),
        )
        out += [
            "",
            "## %s: %d functions, %d lines" % (
                heading, len(fns), sum(f.lines for f in fns)),
            "",
            "| function | lines | decision |",
            "|---|---:|---|",
        ]
        out += ["| `%s` | %d | %s |" % (f.name, f.lines, decision(f)) for f in fns]
    return "\n".join(out) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument("--trace", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("command", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.trace:
        return _trace(args.trace, args.command)
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        by_kind = run_consumers(tmp)
    functions = inventory()
    with open(args.out, "w") as fh:
        fh.write(render(functions, by_kind))
    print("wrote %s" % os.path.relpath(args.out, ROOT), file=sys.stderr)
    status = statuses(functions, by_kind)
    undecided = [
        f.name for f in functions
        if status[f.key] != "consumer" and decision(f) == "**undecided**"
    ]
    for name in undecided:
        print("undecided: %s" % name, file=sys.stderr)
    return 1 if undecided else 0


if __name__ == "__main__":
    sys.exit(main())
