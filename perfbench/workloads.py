"""The four benchmark workloads, each with its inputs and an independent oracle.

A workload runs *passes* that repeat the same items in the same order.  Every
pass of ``sweep``, ``orbits`` and ``cells`` is one fresh CLI run: it starts
with a cold ``induced_filtration`` memo, and the CLI builds its own
``FieldCtx``.  A ``sample`` pass is the whole seeded stream of zip-check
requests, started cold.  The oracles never
reuse the program's answer to judge itself: expected values come from closed
forms, from the inputs the benchmark planted, or from bytes stored at the
seed commit.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import signal
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected"


@dataclass
class Pass:
    items: int
    failed: int
    latencies_ms: list
    # (latencies, seconds) of each stretch between two calibration pauses;
    # one stretch for a pass that never pauses.
    segments: list

    @property
    def wall(self) -> float:
        return sum(seconds for _, seconds in self.segments)


def cold_start(hb):
    """Start as a fresh process would: empty memo, garbage collected."""
    memo = hb.linalg.induced_filtration
    memo.cache_clear()
    gc.collect()
    info = memo.cache_info()
    if info.hits or info.misses or info.currsize:
        raise RuntimeError(f"induced_filtration memo is not cold: {info}")


def run_cli(hb, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = hb.cli.main(argv)
    return rc, out.getvalue()


class Stretches:
    """Splits a pass into timed stretches by calling ``pause`` between them,
    after every ``every`` items; the time spent in ``pause`` is in no
    stretch.  Without ``pause`` the pass is one stretch."""

    def __init__(self, pause, every: int = 0):
        self.pause, self.every = pause, every
        self.done = []  # (items, seconds)
        self.items = self.at = 0
        self.t0 = time.perf_counter()

    def item(self) -> None:
        """Call after each item."""
        self.items += 1
        if self.pause is not None and self.items % self.every == 0:
            self.split()

    def split(self) -> None:
        self.done.append((self.items - self.at, time.perf_counter() - self.t0))
        self.pause()
        self.at = self.items
        self.t0 = time.perf_counter()

    @contextlib.contextmanager
    def every_seconds(self, seconds: float):
        """Split about every ``seconds`` from a SIGALRM handler, for a pass
        whose work is one long call with no items to count."""
        if self.pause is None:
            yield
            return

        def handler(signum, frame):
            self.split()
            signal.setitimer(signal.ITIMER_REAL, seconds)

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def close(self) -> list:
        self.done.append((self.items - self.at, time.perf_counter() - self.t0))
        return self.done


@contextlib.contextmanager
def timed_calls(module, attr, record, after=None):
    """Replace ``module.attr`` by a wrapper appending (seconds, result) for
    every call, then calling ``after``; the per-item latency of a batch CLI
    run."""
    fn = getattr(module, attr)
    clock = time.perf_counter

    def wrapper(*args):
        t0 = clock()
        result = fn(*args)
        record.append((clock() - t0, result))
        if after is not None:
            after()
        return result

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, fn)


class Sweep:
    """Exhaustive ``verify-equivalence --p 3 --n 3`` through ``cli.main``:
    4,096 zips, elimination-bound and memo-hit-heavy (98% hits).

    F_2 with n = 4 (6,561 zips) takes 6.5 s a pass, too few passes per run
    to be steady on a shared host; F_3 with n = 3 keeps the same character.
    """

    name = "sweep"
    SEGMENT = 1024  # zips between calibration pauses, about 0.4 s
    per_item_latency = True
    fields = [(3, 1)]
    P, N = 3, 3

    def __init__(self, seed: int, seconds: int):
        # The sweep is exhaustive, so the seed selects nothing.  The expected
        # flags follow enumerate_zips' documented lexicographic order over
        # (Omega_1..Omega_n, C_1..C_n), each over the q+1 lines of a block.
        n = self.N
        self.expected = [tuple(idx[i] == idx[n + i] for i in range(n))
                         for idx in product(range(self.P + 1), repeat=2 * n)]
        self.argv = ["verify-equivalence", "--p", str(self.P), "--n", str(n)]

    def run_pass(self, hb, tracer=None, pause=None) -> Pass:
        cold_start(hb)
        record = []
        stretches = Stretches(pause, self.SEGMENT)
        with timed_calls(hb.cli, "check_equivalence", record, after=stretches.item):
            rc, out = run_cli(hb, self.argv)
            segments = stretches.close()
        total = len(self.expected)
        failed = sum(1 for (_, r), flags in zip(record, self.expected)
                     if not (r.consistent and r.flags == flags
                             and r.hasse_order == r.m_max == sum(flags)))
        failed += abs(total - len(record))
        if rc != 0 or out != f"{total}/{total} consistent\n":
            failed = total
        return Pass(total, min(failed, total), [1e3 * s for s, _ in record], segments)

    def describe(self) -> list[str]:
        return [f"input: F_{self.P}, n={self.N}, {len(self.expected)} zips per pass"]


class Sample:
    """Seeded random zips sent one at a time through the zip-check path
    (``json.loads`` -> ``zip_from_json_obj`` -> ``check_equivalence``).

    The benchmark plants the partial Hasse flags, so the expected order is
    known without asking the program.  The memo mostly misses here.
    """

    name = "sample"
    per_item_latency = True
    # (p, k, n, requests per pass).  n = 3 keeps a pass short enough to
    # repeat; fields of 13 and 16 elements keep the memo missing (about 6%
    # hits).  An F_256 request rebuilds the 256x256 tables, about a second,
    # so one rides along rather than a share.
    STREAM = [(13, 1, 3, 500), (2, 4, 3, 499), (2, 8, 3, 1)]
    SEGMENT = 100  # requests between calibration pauses, about 0.4 s
    fields = [(p, k) for p, k, _, _ in STREAM]

    def __init__(self, seed: int, seconds: int):
        # 1000 requests keep ten samples beyond the 99th percentile.
        rng = random.Random(seed)
        self.items = []
        for p, k, n, count in self.STREAM:
            # Stratified Hasse orders: every order 0..n appears equally often.
            self.items += [self._zip(rng, p, k, n, j % (n + 1)) for j in range(count)]
        rng.shuffle(self.items)

    @staticmethod
    def _zip(rng, p: int, k: int, n: int, order: int):
        q = p ** k
        flagged = set(rng.sample(range(n), order))

        def line(j):
            # Line j of a block: (1, t) with t the j-th element, or (0, 1).
            pair = (1, j) if j < q else (0, 1)
            if k == 1:  # prime field: plain ints, scaled by a random unit
                s = rng.randrange(1, p)
                return [pair[0] * s % p, pair[1] * s % p]
            return [[(x // p ** d) % p for d in range(k)] for x in pair]

        omega, conj = [], []
        for i in range(n):
            o = rng.randrange(q + 1)
            c = o if i in flagged else rng.choice([j for j in range(q + 1) if j != o])
            omega.append((o, line(o)))
            conj.append(line(c))
        text = json.dumps({"p": p, "k": k, "n": n, "perm": list(range(n)),
                           "omega": [pair for _, pair in omega], "conj": conj})
        key = (p, k, tuple(o for o, _ in omega))
        return text, tuple(i in flagged for i in range(n)), key

    def run_pass(self, hb, tracer=None, pause=None) -> Pass:
        cold_start(hb)
        zips = hb.zips
        clock = time.perf_counter
        lat, failed = [], 0
        stretches = Stretches(pause, self.SEGMENT)
        for i, (text, flags, _) in enumerate(self.items):
            if tracer is not None:
                tracer.request = i
            start = clock()
            try:
                report = zips.check_equivalence(zips.zip_from_json_obj(json.loads(text)))
            except Exception:  # a request that raises counts as failed
                report = None
            lat.append(1e3 * (clock() - start))
            failed += not (report is not None and report.consistent and report.flags == flags
                           and report.hasse_order == report.m_max == sum(flags))
            stretches.item()
        segments = stretches.close()
        return Pass(len(self.items), failed, lat, segments)

    def describe(self) -> list[str]:
        hist = {}
        for _, flags, _ in self.items:
            hist[sum(flags)] = hist.get(sum(flags), 0) + 1
        fields = {f"F_{p ** k}, n={n}": count for p, k, n, count in self.STREAM}
        distinct = len({key for _, _, key in self.items})
        return [f"input: {len(self.items)} zips per pass {fields}, hasse-order "
                f"histogram {dict(sorted(hist.items()))}, distinct omega {distinct}"]


class Orbits:
    """``orbits`` then ``census`` over F_3 with n = 2: integer-table products
    and union-find over |G|*|E| = 1152*648 actions, almost no linalg."""

    name = "orbits"
    SEGMENT_S = 0.4  # seconds between calibration pauses
    # One call partitions every element, so no element has a latency of its
    # own; each gets an equal share of its pass.
    per_item_latency = False
    fields = [(3, 1)]
    Q, N = 3, 2

    def __init__(self, seed: int, seconds: int):
        q, n = self.Q, self.N
        self.group_size = (q - 1) * (q * (q * q - 1)) ** n
        self.borel_size = (q - 1) * ((q - 1) * q) ** n
        self.expected_orbits = (EXPECTED / "orbits_p3_n2.tsv").read_text()
        self.expected_census = (EXPECTED / "census_p3_n2.tsv").read_text()
        self.args = ["--p", str(q), "--n", str(n)]

    def _census_law(self, text: str) -> bool:
        """Cell size = q^l(w) * |B| on every row; the cells cover |G|."""
        rows = [line.split("\t") for line in text.splitlines()[1:]]
        cells = rows[:-1]
        ok = len(cells) == 2 ** self.N
        for w, length, size, _ in cells:
            ok = ok and int(length) == w.count("-")
            ok = ok and int(size) == self.Q ** int(length) * self.borel_size
        return ok and rows[-1][:4] == ["total", str(self.group_size),
                                       "group", str(self.group_size)]

    def run_pass(self, hb, tracer=None, pause=None) -> Pass:
        cold_start(hb)
        stretches = Stretches(pause)
        with stretches.every_seconds(self.SEGMENT_S):
            rc_o, out_o = run_cli(hb, ["orbits"] + self.args)
            rc_c, out_c = run_cli(hb, ["census"] + self.args)
        stretches.items = self.group_size  # all partitioned by one call
        segments = stretches.close()
        wall = sum(t for _, t in segments)
        ok = (rc_o == 0 and rc_c == 0 and out_o == self.expected_orbits
              and out_c == self.expected_census and self._census_law(out_c))
        items = self.group_size
        return Pass(items, 0 if ok else items, [1e3 * wall / items] * items, segments)

    def describe(self) -> list[str]:
        return [f"input: F_{self.Q}, n={self.N}, |G|={self.group_size} elements per pass",
                "orbits partitions every element in one call, so each element's "
                "latency is its pass's share and item_p50_ms equals item_p99_ms"]


class Cells:
    """``strata-table --n 13`` plus the vanishing order of the Hasse section
    at every point of (P^1)^8 over F_2: the only workload that runs schubert."""

    name = "cells"
    SEGMENT = 3000  # strata and points between calibration pauses, about 0.5 s
    per_item_latency = True
    fields = [(2, 1)]
    STRATA_N, POINT_N = 13, 8

    def __init__(self, seed: int, seconds: int):
        self.all_signs = {"".join(s) for s in product("+-", repeat=self.STRATA_N)}
        # (1, t) for t in F_2, then (0, 1); the order at a point is the number
        # of factors at [0:1], where the first coordinate vanishes.
        reps = [(1, 0), (1, 1), (0, 1)]
        self.points = list(product(reps, repeat=self.POINT_N))
        self.argv = ["strata-table", "--n", str(self.STRATA_N)]

    def _bad_rows(self, rc: int, text: str) -> int:
        n = self.STRATA_N
        lines = text.splitlines()
        if rc != 0 or not lines or lines[0] != "w\tlength\tcodim\tord":
            return len(self.all_signs)
        seen, bad = set(), 0
        for line in lines[1:]:
            w, length, codim, order = line.split("\t")
            l_w = w.count("-")
            bad += not (w in self.all_signs and w not in seen and int(length) == l_w
                        and int(codim) == n - l_w and int(order) == n - l_w)
            seen.add(w)
        return bad + len(self.all_signs - seen)

    def run_pass(self, hb, tracer=None, pause=None) -> Pass:
        cold_start(hb)
        schubert = hb.schubert
        clock = time.perf_counter
        record = []
        stretches = Stretches(pause, self.SEGMENT)
        with timed_calls(hb.cli, "vanishing_order_on_stratum", record, after=stretches.item):
            rc, out = run_cli(hb, self.argv)
        ctx = hb.field.FieldCtx(2)
        h = schubert.hasse_section(ctx, self.POINT_N)
        lat = [1e3 * s for s, _ in record]
        failed = self._bad_rows(rc, out)
        for pairs in self.points:
            pt = schubert.PointP1n(ctx, pairs)
            start = clock()
            order = schubert.vanishing_order_at_point(h, pt)
            lat.append(1e3 * (clock() - start))
            failed += order != sum(1 for u, _ in pairs if u == 0)
            stretches.item()
        segments = stretches.close()
        items = len(self.all_signs) + len(self.points)
        return Pass(items, min(failed, items), lat, segments)

    def describe(self) -> list[str]:
        return [f"input: {len(self.all_signs)} strata at n={self.STRATA_N} and "
                f"{len(self.points)} points at n={self.POINT_N} over F_2 per pass"]


WORKLOADS = {w.name: w for w in (Sweep, Sample, Orbits, Cells)}
