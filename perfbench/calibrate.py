"""A fixed pure-Python kernel that measures how fast the host runs right now.

On a shared host the speed of a CPython process drifts by a fifth or more, in
phases from about a second to tens of minutes, and CPU time drifts with it, so
neither wall time nor CPU time of the workload alone repeats across runs.  The
harness runs this kernel between the workload's passes; its time, next to a
pass, tells how slow the host was during that pass, and the harness reports
times scaled to the speed at which the kernel takes ``REFERENCE_S``.

The kernel imports nothing from the program under test, so no change to the
program changes it.  Its mix follows the program's: small objects with
``__slots__`` and operator methods, integer table lookups, row reduction over
lists, and dict and set traffic on tuple keys.
"""

from __future__ import annotations

import gc
import statistics
import time

# The kernel's median time on a 2-core x86 host under CPython 3.11; a
# constant, so scaled times read in seconds of that host.
REFERENCE_S = 0.005
P = 31
_INV = [0] + [pow(a, P - 2, P) for a in range(1, P)]


class _Elem:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v

    def _coerce(self, other):
        return other if isinstance(other, _Elem) else _Elem(other % P)

    def __add__(self, other):
        return _Elem((self.v + self._coerce(other).v) % P)

    def __sub__(self, other):
        return _Elem((self.v - self._coerce(other).v) % P)

    def __mul__(self, other):
        return _Elem(self.v * self._coerce(other).v % P)

    def inverse(self):
        return _Elem(_INV[self.v])

    def __bool__(self):
        return self.v != 0


def _rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank, cols = 0, len(rows[0])
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][c].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


_MUL = [[a * b % P for b in range(P)] for a in range(P)]
_ADD = [[(a + b) % P for b in range(P)] for a in range(P)]


def _mm(x, y):
    """2x2 matrices as flat tuples of table indices."""
    mul, add = _MUL, _ADD
    return tuple(add[mul[x[2 * r]][y[c]]][mul[x[2 * r + 1]][y[2 + c]]]
                 for r in range(2) for c in range(2))


def kernel() -> int:
    """One unit of fixed work: the same operations on every call."""
    seen, memo = set(), {}
    total = 0
    mats = [(a, b, (a * 3 + 1) % P, (b * 5 + 2) % P) for a in range(12) for b in range(12)]
    index = {m: i for i, m in enumerate(mats)}
    for x in mats[:20]:
        for y in mats[::4]:
            total += index.get(_mm(x, y), -1)
    for s in range(6):
        rows = [[_Elem((i * 7 + j * j * 3 + s * (i + 1) * (j + 2)) % P) for j in range(10)]
                for i in range(8)]
        total += _rank(rows)
        for i in range(400):
            key = (s, i % 37, i % 11)
            memo[key] = memo.get(key, 0) + 1
            seen.add(key)
    return total + len(seen) + sum(memo.values())


_EXPECTED = kernel()


class HostSpeed:
    """Kernel times taken in the gaps between stretches of work."""

    REPS = 20  # kernel calls per gap, about 0.1 s

    def __init__(self):
        self.gaps: list[list[float]] = []

    def sample(self) -> None:
        """Time ``REPS`` kernel calls: once before the first pass, after every
        pass and at every pause within one."""
        # No collection runs inside the kernel: it frees what it allocates,
        # so the program's allocation count, and with it the program's own
        # collections, come out as if the kernel had not run.
        enabled = gc.isenabled()
        gc.disable()
        clock = time.perf_counter
        times = []
        try:
            for _ in range(self.REPS):
                t0 = clock()
                result = kernel()
                times.append(clock() - t0)
                if result != _EXPECTED:
                    raise RuntimeError("calibration kernel gave a different result")
        finally:
            if enabled:
                gc.enable()
        self.gaps.append(times)

    def slowdown(self, i: int) -> float:
        """How many times slower than the reference the host ran in stretch
        ``i``: the median kernel time in the gaps before and after it, over
        ``REFERENCE_S``.  A median, not a minimum: the host has rare moments
        far faster than its phase, and the minimum of a gap lands on them."""
        return statistics.median(self.gaps[i] + self.gaps[i + 1]) / REFERENCE_S

    def describe(self) -> str:
        medians = [statistics.median(g) for g in self.gaps]
        return (f"host speed: {len(self.gaps)} gaps of {self.REPS} kernel calls, gap medians "
                f"{1e3 * min(medians):.2f} to {1e3 * max(medians):.2f} ms, "
                f"reference {1e3 * REFERENCE_S:.2f} ms")
