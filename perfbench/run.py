"""Benchmark for hilbhasse: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports the package from ``src/``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it, prefixed ``#``, describe the
inputs, the host and the spread seen within the run.

``--trace 0`` times the workload untraced for about ``--seconds`` and prints
the end-to-end metrics.  Their times are scaled to a reference host speed,
measured by a fixed kernel run between stretches of work (see
``calibrate``); the unscaled pass rate is printed in the ``#`` lines.
``--trace 1`` alternates fixed-size passes without and with spans at every
module boundary for about half of ``--seconds``, runs two more under cProfile
for exact call counts, and prints the per-layer metrics of the last traced
pass, unscaled.  The spans are written to ``.perfbench/`` at the repository
root.

The program is single-threaded and has no queues, so no layer waits for
another and there is no waiting metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("field", "linalg", "weyl", "schubert", "zips", "zipgroup", "cli")
# Set-up repetitions before each pass: F_256's tables take about a second,
# the rest milliseconds.
SETUP_REPS = {"sample": 1}
SETUP_REPS_DEFAULT = 3

FIELD_OPS = ("__add__", "__neg__", "__sub__", "__rsub__", "__mul__", "inverse",
             "__truediv__", "__rtruediv__", "__pow__", "frobenius")
# (metric prefix, function whose cProfile count is its ``.calls``)
COUNTED = [
    ("linalg.from_vectors", lambda hb: hb.linalg.Subspace.from_vectors),
    ("linalg.contains", lambda hb: hb.linalg.Subspace.contains),
    ("linalg.wedge_of_lines", lambda hb: hb.linalg.wedge_of_lines),
    ("zips.check_equivalence", lambda hb: hb.zips.check_equivalence),
    ("schubert.stratum_label", lambda hb: hb.schubert.stratum_label),
    ("schubert.order_on_stratum", lambda hb: hb.schubert.vanishing_order_on_stratum),
    ("schubert.order_at_point", lambda hb: hb.schubert.vanishing_order_at_point),
]


def fresh_import():
    """Import the package as a new process would, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "hilbhasse" or m.startswith("hilbhasse.")]:
        del sys.modules[name]
    importlib.import_module("hilbhasse")
    return SimpleNamespace(**{m: importlib.import_module(f"hilbhasse.{m}") for m in MODULES})


def setup(fields, reps: int, setups: list):
    """Set up ``reps`` times as a new process would: import the package and
    build every FieldCtx the workload uses.  Appends (import seconds, build
    seconds) to ``setups`` and returns the last import's modules."""
    for _ in range(reps):
        gc.collect()
        t0 = time.perf_counter()
        hb = fresh_import()
        t1 = time.perf_counter()
        ctxs = [hb.field.FieldCtx(p, k) for p, k in fields]
        t2 = time.perf_counter()
        del ctxs
        setups.append((t1 - t0, t2 - t1))
    origin = Path(hb.cli.__file__).resolve()
    if SRC not in origin.parents:
        raise RuntimeError(f"hilbhasse was imported from {origin}, not from {SRC}")
    return hb


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def timed_run(wl, seconds: int, reps: int, setups: list, notes: list):
    """Run passes for up to about ``seconds``, each after ``reps`` fresh
    set-ups, so that set-up is sampled across the run and every pass starts
    from a fresh import.  Set-up times are appended to ``setups`` in
    reference seconds.

    On a shared 2-core host the speed of the process drifts by a fifth or
    more, in phases from about a second to tens of minutes, and CPU time
    drifts with it; best-of-N times are no cure, since the host also has rare
    fast moments.  So the calibration kernel runs before the first pass,
    after every pass and at every pause a pass makes, and the times of each
    stretch in between, set-ups included, are divided by the host's slowdown
    around it (see ``calibrate``).  Where items have latencies of their own,
    rate and latency percentiles come from the items' median scaled
    latencies, else from the median scaled pass rate.  The unscaled pass rate
    is printed alongside.
    """
    passes, rates, scaled_passes, outside = [], [], [], []
    speed = calibrate.HostSpeed()
    speed.sample()
    start = time.perf_counter()
    # At least three passes; another only if it should end within ``seconds``.
    while len(passes) < 3 or (time.perf_counter() - start) * (1 + 1 / len(passes)) <= seconds:
        raw_setups = []
        p = wl.run_pass(setup(wl.fields, reps, raw_setups), pause=speed.sample)
        speed.sample()
        if not passes:
            # Peak memory of set-up and one pass, before the harness holds
            # the latencies of a varying number of passes.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes.append(p)
        first = len(speed.gaps) - 1 - len(p.segments)
        slow = [speed.slowdown(first + j) for j in range(len(p.segments))]
        setups += [(i / slow[0], b / slow[0]) for i, b in raw_setups]
        scaled, at = [], 0
        for (n, _), s in zip(p.segments, slow):
            scaled += [x / s for x in p.latencies_ms[at:at + n]]
            at += n
        scaled_s = sum(w / s for (_, w), s in zip(p.segments, slow))
        rates.append(p.items / scaled_s)
        scaled_passes.append(scaled)
        outside.append(scaled_s - sum(scaled) / 1e3)
    raw = [p.items / p.wall for p in passes]
    if wl.per_item_latency:
        # Every pass repeats the same items, so each item's latency is its
        # median over passes: a stall of the host hits one pass's item, while
        # the program's own slow events, such as a collection pause after a
        # fixed number of allocations, recur in every pass and stay.  A
        # typical pass takes the sum of these plus the median time spent
        # outside items.
        per_item = [statistics.median(column) for column in zip(*scaled_passes)]
        items_per_s = passes[0].items / (sum(per_item) / 1e3 + statistics.median(outside))
        cuts = statistics.quantiles(per_item, n=100)
        p50, p99 = cuts[49], cuts[98]
        beyond = f"{sum(1 for x in per_item if x > p99)} of {len(per_item)} items"
    else:
        items_per_s = statistics.median(rates)
        p50 = p99 = 1e3 / items_per_s
        beyond = "none: one latency, each element's share of its pass"
    notes.append(f"passes: {len(passes)}, wall {sum(p.wall for p in passes):.2f} s, "
                 f"spread (IQR/median) of pass rates {100 * spread(raw):.1f}% unscaled, "
                 f"{100 * spread(rates):.1f}% scaled")
    notes.append(speed.describe())
    notes.append(f"median pass rate {statistics.median(raw):.2f} 1/s unscaled, "
                 f"{statistics.median(rates):.2f} 1/s scaled")
    notes.append(f"item latency: {len(passes[0].latencies_ms)} items per pass, "
                 f"beyond p99: {beyond}")
    metrics = {
        "items_per_s": (items_per_s, "1/s"),
        "item_p50_ms": (p50, "ms"),
        "item_p99_ms": (p99, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return passes, metrics


def traced_pass(wl, hb):
    tracer = tracing.Tracer()
    undo = tracing.instrument(hb, tracer)
    try:
        return wl.run_pass(hb, tracer=tracer), tracer
    finally:
        undo()


def trace_run(wl, hb, workload: str, seed: int, seconds: int, notes: list):
    # Untraced and traced passes alternate, so a slow phase of the host hits
    # both; the overhead is the difference of their medians, each pass scaled
    # by the host's slowdown around it.  Passes here make no calibration
    # pauses, which would land inside spans.
    untraced, traced, untraced_scaled, traced_scaled = [], [], [], []
    speed = calibrate.HostSpeed()
    speed.sample()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds / 2:
        untraced.append(wl.run_pass(hb))
        speed.sample()
        p, tracer = traced_pass(wl, hb)
        traced.append(p)
        speed.sample()
        n = len(speed.gaps)  # the untraced pass is stretch n - 3, the traced n - 2
        untraced_scaled.append(untraced[-1].wall / speed.slowdown(n - 3))
        traced_scaled.append(p.wall / speed.slowdown(n - 2))
    summary = tracer.summary()

    memo = hb.linalg.induced_filtration
    runs = []
    for _ in range(2):
        record = []
        counts = tracing.count_calls(lambda: record.append(wl.run_pass(hb)), SRC)
        info = memo.cache_info()
        runs.append((counts, (info.hits, info.misses), record[0]))
    (counts, (hits, misses), _), (counts2, memo2, _) = runs
    repeatable = counts == counts2 and (hits, misses) == memo2
    notes.append(f"cProfile passes give identical counts: {repeatable}")

    def count_of(fn):
        return counts.get(tracing.code_key(fn), 0)

    consistent = True
    metrics = {
        "field.elem_ops": (sum(count_of(getattr(hb.field.FieldElem, op)) for op in FIELD_OPS),
                           "count"),
        "field.coerce_calls": (count_of(hb.field.FieldElem._coerce), "count"),
    }
    for prefix, get in COUNTED:
        calls = count_of(get(hb))
        span = summary.get(prefix, {})
        if span.get("calls", 0) != calls:
            consistent = False
            notes.append(f"{prefix}: {span.get('calls', 0)} spans but {calls} profiled calls")
        metrics[f"{prefix}.calls"] = (calls, "count")
        metrics[f"{prefix}.s"] = (span.get("s", 0.0), "s")
        metrics[f"{prefix}.errors"] = (span.get("errors", 0), "count")
    memo_span = summary.get("linalg.induced_filtration", {})
    if memo_span.get("calls", 0) != hits + misses or memo_span.get("hits", 0) != hits:
        consistent = False
        notes.append("linalg.induced_filtration: span hits/calls differ from cache_info")
    metrics.update({
        "linalg.induced_filtration.calls": (hits + misses, "count"),
        "linalg.induced_filtration.hits": (hits, "count"),
        "linalg.induced_filtration.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                                                "frac"),
        "linalg.induced_filtration.miss_s": (memo_span.get("miss_s", 0.0), "s"),
    })

    def span(name, key="s"):
        return summary.get(name, {}).get(key, 0.0)

    for name in ("zips.enumerate_zips", "zips.from_json", "zipgroup.enumerate_G",
                 "zipgroup.enumerate_E", "zipgroup.orbits", "zipgroup.bruhat_census",
                 "weyl.all_weyl_elems"):
        metrics[f"{name}.s"] = (span(name), "s")
    metrics["zips.check_equivalence.self_s"] = (span("zips.check_equivalence", "self_s"), "s")
    metrics["zipgroup.orbits.self_s"] = (span("zipgroup.orbits", "self_s"), "s")
    metrics["cli.self_s"] = (span("cli.main", "self_s"), "s")
    untraced_s, traced_s = statistics.median(untraced_scaled), statistics.median(traced_scaled)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    notes.append(f"trace: median of {len(traced)} pairs, scaled: untraced pass "
                 f"{untraced_s:.3f} s, traced pass {traced_s:.3f} s, "
                 f"{len(tracer.spans)} spans in the last")

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed,
                                "summary": summary, **tracer.dump()}))
    notes.append(f"spans written to {path.relative_to(ROOT)}")
    passes = untraced + traced + [r[2] for r in runs]
    return passes, metrics, repeatable and consistent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hilbhasse" / "__init__.py").is_file():
        sys.stderr.write(f"error: no hilbhasse package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload](args.seed, args.seconds)
    reps = SETUP_REPS.get(args.workload, SETUP_REPS_DEFAULT)
    notes = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}",
             f"host: python {platform.python_version()}, nproc {os.cpu_count()}",
             *wl.describe(),
             "waiting: none; single-threaded with no queues, so no wait metric"]
    setups = []
    if args.trace:
        hb = setup(wl.fields, 3 * reps, setups)
        passes, metrics, ok = trace_run(wl, hb, args.workload, args.seed,
                                        args.seconds, notes)
    else:
        passes, metrics = timed_run(wl, args.seconds, reps, setups, notes)
        ok = True
    import_s = statistics.median(i for i, _ in setups)
    build_s = statistics.median(b for _, b in setups)
    notes.append(f"setup{'' if args.trace else ', scaled'}: median of {len(setups)}: "
                 f"import {import_s:.4f} s + FieldCtx "
                 f"{[f'F_{p ** k}' for p, k in wl.fields]} {build_s:.4f} s")
    if args.trace:
        metrics["setup.import_s"] = (import_s, "s")
        metrics["field.ctx_build_s"] = (build_s, "s")
    else:
        metrics["setup_s"] = (statistics.median(i + b for i, b in setups), "s")
    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics["error_frac"] = (failed / attempted, "frac")
    for line in notes:
        print(f"# {line}")
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in sorted(metrics.items())}}))
    return 0 if ok and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
