"""The package import graph is the one ``docs/ARCHITECTURE.md`` declares.

Every ``import`` under ``src/repro`` (function-level ones too) is read
with ``ast`` and folded to package -> package edges; the "Layers" table
of the architecture doc must list exactly those edges.  A new
dependency between packages is therefore a one-row doc change made on
purpose, never a drive-by import.
"""

import ast
import importlib.util
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "repro")


def imported_modules(path):
    """Every absolute ``repro.*`` module ``path`` imports, at any depth."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "%s: relative import" % path
            names = [node.module]
        else:
            continue
        for name in names:
            if name.startswith("repro."):
                yield name


def modules():
    """(dotted name, path) of every module under ``src/repro``."""
    for dirpath, _, filenames in os.walk(PACKAGE):
        for filename in filenames:
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                rel = os.path.relpath(path, PACKAGE)[: -len(".py")]
                parts = ["repro"] + rel.split(os.sep)
                if parts[-1] == "__init__":
                    parts.pop()
                yield ".".join(parts), path


def package_edges():
    """package -> the other packages its modules import (the root
    package's ``__init__``, which re-exports the public surface, aside)."""
    edges = {}
    for name, path in modules():
        parts = name.split(".")
        if len(parts) < 2:
            continue
        targets = edges.setdefault(parts[1], set())
        targets.update(target.split(".")[1] for target in imported_modules(path))
        targets.discard(parts[1])
    return edges


def declared_edges():
    path = os.path.join(ROOT, "docs", "ARCHITECTURE.md")
    lines = open(path).read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| package |"))
    out = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        package, imports = [c.strip() for c in line.strip("|").split("|")][:2]
        out[package.strip("`")] = set(re.findall(r"`(\w+)`", imports))
    return out


def test_package_edges_are_the_declared_layers():
    assert package_edges() == declared_edges()


def test_serve_never_imports_the_facade():
    """``core -> serve`` stays because ``core.system`` composes the
    service; the cycle is package-level only as long as no serve
    module imports ``repro.core.system`` back."""
    for name, path in modules():
        if name.startswith("repro.serve"):
            assert "repro.core.system" not in set(imported_modules(path)), name


def module_imports(name):
    return set(imported_modules(dict(modules())[name]))


def test_packing_is_a_leaf():
    assert module_imports("repro.storage.packing") == set()


def test_clustering_packs_without_the_journal():
    """The clusterer's checkpoint head needs two functions, not the WAL."""
    imports = module_imports("repro.core.clustering")
    assert "repro.storage.packing" in imports
    assert "repro.storage.journal" not in imports


def test_src_starts_no_thread_and_takes_no_lock():
    """The serving tier is single-threaded (docs/RESILIENCE.md,
    "Concurrency model"): ``threading`` is read for thread identity only."""
    banned = {"Thread", "Lock", "RLock", "Event", "Condition", "Semaphore", "Timer"}
    found = []
    for name, path in modules():
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                uses = [node.attr] if getattr(node.value, "id", None) == "threading" else []
            elif isinstance(node, ast.ImportFrom):
                uses = [node.module] + [a.name for a in node.names if node.module == "threading"]
            elif isinstance(node, ast.Import):
                uses = [a.name for a in node.names]
            else:
                continue
            found += [
                (name, use) for use in uses
                if use in banned or use.split(".")[0] in ("concurrent", "_thread")
            ]
    assert found == []


def test_the_worker_loop_serves_only_the_op_table():
    """Fault drills are events of the tests' transports: the worker
    loop never sleeps or exits on anyone's orders, and no op arms one."""
    from repro.fabric.protocol import OPS

    with open(dict(modules())["repro.fabric.worker"]) as fh:
        tree = ast.parse(fh.read())
    calls = {
        (node.func.value.id, node.func.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
    }
    assert ("time", "sleep") not in calls
    assert ("os", "_exit") not in calls
    assert [op for op in OPS if op.startswith("inject_")] == []


def test_the_frame_substrate_is_gone():
    assert importlib.util.find_spec("repro.detect") is None
    assert importlib.util.find_spec("repro.video.frames") is None
