"""``scripts/reachability.py`` keys functions the way the trace sees them,
and ``docs/REACHABILITY.md`` stays in step with the package.

The trace records ``(file, co_firstlineno)`` of each code object called;
the ``ast`` inventory must produce the very same key for every ``def``,
or a reached function reads as unreached.  The committed report must
name a decision for every function no consumer reaches, and list the
modules the package has now.
"""

import collections
import fnmatch
import importlib
import importlib.util
import inspect
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
_spec = importlib.util.spec_from_file_location(
    "reachability", os.path.join(ROOT, "scripts", "reachability.py")
)
reachability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachability)

INVENTORY = reachability.inventory()
PACKAGES = sorted({fn.module.split("/")[0] for fn in INVENTORY if "/" in fn.module})


def resolve(fn):
    """The code object ``fn`` names, or None when its qualname does not
    lead to one (a nested def, a name bound twice)."""
    obj = importlib.import_module(
        "repro." + fn.module[: -len(".py")].replace("/", ".").replace(".__init__", "")
    )
    for part in fn.qualname.split("."):
        obj = (vars(obj) if inspect.isclass(obj) else obj.__dict__).get(part)
        obj = getattr(obj, "fget", None) or getattr(obj, "__func__", None) or obj
        if obj is None:
            return None
    return getattr(inspect.unwrap(obj), "__code__", None)


@pytest.mark.parametrize("package", PACKAGES)
def test_inventory_keys_are_the_traced_keys(package):
    names = collections.Counter(fn.name for fn in INVENTORY)
    checked = 0
    for fn in INVENTORY:
        if fn.module.startswith(package + "/") and names[fn.name] == 1:
            code = resolve(fn)
            if code is not None:
                assert code.co_firstlineno == fn.first, fn.name
                checked += 1
    assert checked


def test_each_line_belongs_to_one_def():
    by_module = collections.defaultdict(list)
    for fn in INVENTORY:
        by_module[fn.module].append(fn)
    for module, fns in by_module.items():
        spanned = set().union(*(range(f.first, f.last + 1) for f in fns))
        assert sum(f.lines for f in fns) == len(spanned), module
        assert all(f.lines > 0 for f in fns), module


def test_a_line_torn_by_a_killed_process_is_skipped(tmp_path):
    (tmp_path / "11.txt").write_text("core/query.py\t28\ncore/system.py\t4")
    (tmp_path / "12.txt").write_text("core/query.py\t28\ncore/sys")
    assert reachability._reached(str(tmp_path)) == {
        ("core/query.py", 28), ("core/system.py", 4),
    }


def report_rows(heading):
    """(function, decision) rows of one function table in the report."""
    with open(os.path.join(ROOT, "docs", "REACHABILITY.md")) as fh:
        text = fh.read()
    section = text.split("## " + heading, 1)[1].split("\n## ", 1)[0]
    return [
        (cells[0].strip("` "), cells[2].strip())
        for cells in (line.strip("|").split("|") for line in section.splitlines())
        if cells[0].strip().startswith("`")
    ]


def test_the_report_decides_every_unreached_function():
    rows = report_rows("Reached only by tests") + report_rows("Reached by nothing")
    assert rows
    assert not [name for name, decision in rows if "undecided" in decision]
    for name, decision in report_rows("Reached by nothing"):
        assert "Protocol" in decision or "debugging aid" in decision, name


def test_every_decision_names_a_function():
    names = [fn.name for fn in INVENTORY]
    stale = [
        pattern for pattern, _ in reachability.DECISIONS
        if not fnmatch.filter(names, pattern)
    ]
    assert stale == []


def test_the_report_lists_the_modules_the_package_has():
    with open(os.path.join(ROOT, "docs", "REACHABILITY.md")) as fh:
        section = fh.read().split("## Lines reached, per module", 1)[1]
    listed = {
        line.split("|")[1].strip()
        for line in section.split("\n## ", 1)[0].splitlines()
        if line.startswith("| ") and line.split("|")[1].strip().endswith(".py")
    }
    assert listed == {fn.module for fn in INVENTORY}
