"""Every repository path the docs name exists.

A doc that points at a deleted script or file sends its reader
nowhere.  Three kinds of reference are resolved:

* a relative markdown link, against the doc's own directory;
* a path whose first component is a top-level directory of the
  repository (``scripts/reachability.py``, ``tests/test_obs.py``),
  against the root;
* an upper-case root file (``ROADMAP.md``, ``BENCHMARK.json``), against
  the root; a glob such as ``FOO_*.json`` must match at least one file.

Package-relative names (``core/index.py``) are not checked: the docs
also use them to tell the history of deleted modules.  The pages under
``docs/history/`` record what is gone, and ``bench/``'s own README is
edited only together with the benchmark, so neither is scanned.
"""

import glob
import os
import re

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))

DOCS = ["README.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"] + sorted(
    os.path.relpath(path, ROOT) for path in glob.glob(os.path.join(ROOT, "docs", "*.md"))
)

TOP_LEVEL = {
    entry for entry in os.listdir(ROOT)
    if os.path.isdir(os.path.join(ROOT, entry)) and entry != ".git"
}

LINK = re.compile(r"\]\(([^)\s]+)\)")
ROOTED = re.compile(r"[\w.*-]+(?:/[\w.*-]*)+")
UPPER_FILE = re.compile(r"(?<![\w/.-])[A-Z][A-Z0-9_*]*\.(?:md|json)\b")


def named_paths(doc, text):
    """Repository-relative paths (globs allowed) that ``text``, the body
    of ``doc``, names."""
    here = os.path.dirname(doc)
    for target in LINK.findall(text):
        target = target.split("#")[0]
        if target and "://" not in target:
            yield os.path.normpath(os.path.join(here, target))
    text = LINK.sub("]", text)
    for token in ROOTED.findall(text):
        if token.split("/")[0] in TOP_LEVEL:
            yield token.rstrip(".")
    for token in UPPER_FILE.findall(text):
        # a sibling doc by its bare name, else a root file
        sibling = os.path.join(here, token)
        yield sibling if here and glob.glob(os.path.join(ROOT, sibling)) else token


def test_named_paths_resolve_links_rooted_paths_and_root_files():
    text = (
        "see [the guide](QOS.md#budgets) and [home](../README.md), run\n"
        "`python3 scripts/loadgen.py --check`, read ROADMAP.md, SHARDING.md\n"
        "and FOO_*.json; not https://example.org/x.md, $TMPDIR/out.json,\n"
        "core/index.py or actions/checkout@v4"
    )
    assert sorted(named_paths("docs/X.md", text)) == [
        "FOO_*.json", "README.md", "ROADMAP.md", "docs/QOS.md",
        "docs/SHARDING.md", "scripts/loadgen.py",
    ]


@pytest.mark.parametrize("doc", DOCS)
def test_every_named_path_exists(doc):
    with open(os.path.join(ROOT, doc)) as fh:
        text = fh.read()
    missing = sorted({
        path for path in named_paths(doc, text)
        if not glob.glob(os.path.join(ROOT, path))
    })
    assert missing == [], "%s names paths that do not exist" % doc
