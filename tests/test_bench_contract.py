"""The benchmark runs on the program: its workloads pass, and the names its
tracer patches and its counts read exist.

``perfbench/tracing.py`` wraps each ``BOUNDARIES`` path, a name as a calling
module sees it (``zips.induced_filtration``), and reads hits and misses off
the ``lru_cache`` of every ``MEMOIZED`` span.  ``perfbench/run.py`` counts
the calls of each ``COUNTED`` function and ``FIELD_OPS`` method.  A name that
stops being bound would break a traced run, so each is resolved here on a
fresh import of the package, and one untraced pass of every workload must
pass.  The benchmark's modules are loaded by path and not modified.
"""

import importlib
import importlib.util
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


@pytest.fixture
def bench_run():
    """``perfbench/run.py``, loaded by path.  It puts ``perfbench/`` on
    sys.path and imports ``calibrate``, ``tracing`` and ``workloads`` from
    there; those, sys.path and the package the other tests imported are put
    back after."""
    name, path = "_bench_contract_run", list(sys.path)
    saved = {m: sys.modules.pop(m) for m in _ours()}
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        for m in _ours() + [name, "calibrate", "tracing", "workloads"]:
            sys.modules.pop(m, None)
        sys.modules.update(saved)
        sys.path[:] = path


def test_every_workload_passes_once_untraced(bench_run):
    hb = bench_run.fresh_import()
    for prefix, get in bench_run.COUNTED:
        assert callable(get(hb)), prefix
    for op in bench_run.FIELD_OPS:
        assert callable(getattr(hb.field.FieldElem, op, None)), op
    for name, workload in bench_run.WORKLOADS.items():
        run = workload(1, 1).run_pass(hb)
        assert (run.items > 0, run.failed) == (True, 0), name
