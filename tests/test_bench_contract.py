"""The benchmark runs on the program: its workloads pass, and the names its
tracer patches and its counts read exist, traced as well as untraced.

``perfbench/tracing.py`` wraps each ``BOUNDARIES`` path, a name as a calling
module sees it (``zips.induced_filtration``), and reads hits and misses off
the ``lru_cache`` of every ``MEMOIZED`` span.  ``perfbench/run.py`` counts
the calls of each ``COUNTED`` function and ``FIELD_OPS`` method.  Each
boundary and memo is resolved here on a fresh import of the package.  A
traced run of every workload must exit 0: its untraced and traced passes
start from a fresh import, so it fails when a ``COUNTED`` or ``FIELD_OPS``
name stops resolving, when an item fails, when a counted span's calls differ
from cProfile's, when the two cProfile passes differ, or when the memo's hits
disagree with its ``cache_info``.  The benchmark's modules are loaded by path
and not modified.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


@pytest.fixture
def tracing():
    name = "_bench_contract_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def _ours():
    return [m for m in sys.modules if m == "hilbhasse" or m.startswith("hilbhasse.")]


@pytest.fixture
def fresh_package(tracing):
    """The package and every module a boundary names, imported anew as a new
    process would; the modules the other tests imported are put back after."""
    saved = {m: sys.modules.pop(m) for m in _ours()}
    try:
        for owner in {path.split(".")[0] for _, path in tracing.BOUNDARIES}:
            importlib.import_module(f"hilbhasse.{owner}")
        yield sys.modules["hilbhasse"]
    finally:
        for m in _ours():
            del sys.modules[m]
        sys.modules.update(saved)


def test_every_boundary_resolves(tracing, fresh_package):
    assert tracing.BOUNDARIES
    for span, path in tracing.BOUNDARIES:
        owner, attr = tracing._resolve(fresh_package, path)
        assert callable(getattr(owner, attr, None)), (span, path)


def test_memoized_spans_wrap_an_lru_cache(tracing, fresh_package):
    memoized = [(span, path) for span, path in tracing.BOUNDARIES if span in tracing.MEMOIZED]
    assert {span for span, _ in memoized} == tracing.MEMOIZED
    for span, path in memoized:
        memo = getattr(*tracing._resolve(fresh_package, path))
        assert hasattr(memo, "cache_clear") and hasattr(memo, "cache_info"), (span, path)
    memo = fresh_package.linalg.induced_filtration
    assert hasattr(memo, "cache_clear") and hasattr(memo, "cache_info")
    assert fresh_package.zips.induced_filtration is memo


@pytest.mark.parametrize("workload", ["sweep", "sample", "orbits", "cells"])
def test_every_workload_passes_traced(workload):
    # about a second of passes; the spans go to the gitignored .perfbench/
    argv = [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", "1"]
    run = subprocess.run(argv, cwd=PERFBENCH.parent, capture_output=True, text=True,
                         env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
