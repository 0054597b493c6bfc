"""Benchmark configuration.

Each benchmark regenerates one table or figure of the paper and checks
its *shape*: who wins, by roughly what factor, and where crossovers
fall.  Absolute numbers come from the simulated substrate;
``scripts/generate_experiments_md.py`` writes them next to the paper's
into an EXPERIMENTS.md it generates (the file is not checked in).

Underlying experiment runs are cached in-process (repro.eval.runner),
so pytest-benchmark's timing loop measures the orchestration cost while
the assertions see one consistent set of results.
"""

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once
