"""Exact arithmetic in small finite fields F_{p^k} with the Frobenius map.

Elements are written on the polynomial basis 1, u, ..., u^(k-1), where u is a
root of a fixed monic irreducible modulus over F_p.  The modulus is chosen as
the lexicographically smallest irreducible candidate (coefficients compared
from the constant term up), so a context is reproducible across runs.

A context interns all its elements and precomputes index tables for
add/mul/neg/inv/frobenius, so arithmetic is a couple of list lookups; hot
loops elsewhere work on element indices through these tables directly.
The tables are built in index arithmetic with no Python call per entry: an
add row is an earlier row read through a base-p digit step, and mul/inv/frob
are read off exp/log tables of the lowest-index primitive element, whose
chain steps through a table of x -> x*g made with no polynomial product.
F_256 builds in about 10 ms.
Fields with more than ``TABLE_LIMIT`` elements are refused.  ``FieldCtx(p, k)``
returns one shared context per (p, k) for the life of the process, so the
tables are built once however many callers ask for the field.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence, Set
from itertools import product
from operator import attrgetter

TABLE_LIMIT = 256


class ContextMismatchError(ValueError):
    """Combining elements of different field contexts is a hard error."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(a: Sequence[int], monic: Sequence[int], p: int) -> list[int]:
    """Remainder of a by a monic divisor, coefficients low-degree first."""
    a = _poly_trim(list(a))
    d = len(monic) - 1
    while len(a) - 1 >= d and a:
        lead = a[-1]
        shift = len(a) - 1 - d
        for i, c in enumerate(monic):
            a[shift + i] = (a[shift + i] - lead * c) % p
        _poly_trim(a)
    return a


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Irreducibility is decided by trial division against every monic
    irreducible of degree 1 .. k//2, which is exhaustive at this scale; those
    divisors are found first, by the same test in increasing degree.
    """
    divisors: list[list[int]] = []
    for d in [*range(1, k // 2 + 1), k]:
        for low in product(range(p), repeat=d):
            if d > 1 and not low[0]:
                continue  # x divides it
            candidate = list(low) + [1]
            if all(_poly_rem(candidate, div, p) for div in divisors if 2 * len(div) - 2 <= d):
                if d == k:
                    return tuple(candidate)
                divisors.append(candidate)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldCtx:
    """The finite field F_{p^k}.

    A context owns its modulus, the interned element pool, the map from
    each element's ``coeffs`` tuple to the element, the arithmetic tables
    and the interned normalized pairs of the projective line.
    ``FieldCtx(p, k)`` hands out one shared instance per (p, k); contexts
    are never mutated after construction, so sharing is safe.
    Equality is identity: no two contexts describe the same field.
    """

    __slots__ = ("p", "k", "q", "modulus", "_hash", "_elems", "_by_coeffs",
                 "_add", "_mul", "_neg", "_inv", "_frob", "_primitive", "_lines")

    _shared: dict[tuple[int, int], "FieldCtx"] = {}

    def __new__(cls, p: int, k: int = 1):
        if type(p) is int and type(k) is int and (ctx := cls._shared.get((p, k))) is not None:
            return ctx  # built, so it passed every check below; a bool is no int here
        # isinstance takes a bool for an int: FieldCtx(3, True) would be F_3
        if isinstance(p, bool) or isinstance(k, bool):
            raise ValueError(f"p and k must be integers, not bools, got {p!r} and {k!r}")
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k!r}")
        # checked before primality and the modulus search, so it costs O(1);
        # 2^k > TABLE_LIMIT once k exceeds its bit length, so p^k stays small
        if isinstance(p, int) and (k > TABLE_LIMIT.bit_length() or p ** k > TABLE_LIMIT):
            raise ValueError(f"fields above {TABLE_LIMIT} elements are not "
                             f"supported, got {p}^{k}")
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"p must be a prime integer, got {p!r}")
        ctx = cls._shared.get((p, k))
        if ctx is None:
            ctx = super().__new__(cls)
            ctx.p, ctx.k, ctx.q = p, k, p ** k
            ctx.modulus = _smallest_irreducible(p, k)
            ctx._hash = hash((p, k, ctx.modulus))
            ctx._build_tables()
            # setdefault: racing threads all end up with the same instance
            ctx = cls._shared.setdefault((p, k), ctx)
        return ctx

    def __reduce__(self):
        # copies and unpickled contexts resolve to the shared instance
        return FieldCtx, (self.p, self.k)

    # -- construction of elements ------------------------------------------

    def __call__(self, value) -> "FieldElem":
        """Coerce an int (prime-subfield value) or coefficient sequence."""
        return self._elems[self.index_of(value)]

    def index_of(self, value) -> int:
        """The element index of ``value``, coerced as ``__call__`` does: an
        int is a prime-subfield value reduced mod p, a sequence holds at most
        k coefficients low-degree first (missing ones are 0), and an element
        must belong to this context.  A coefficient that is no int (a float,
        a Fraction, a str, None), a value that is no iterable (a bare
        float), a set or a mapping raises ValueError."""
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, FieldElem):
            if value._ctx is not self:
                raise ContextMismatchError("element belongs to a different field")
            return value._idx
        if isinstance(value, (list, tuple)):  # len() and reversed() need a sequence
            seq = value
        else:
            try:  # a set has no coefficient order, and a mapping's keys are no coefficients
                if isinstance(value, (Set, Mapping)):
                    raise TypeError
                seq = list(value)
            except TypeError:  # nor is a bare float, or any other value that is no iterable
                raise ValueError(f"cannot coerce {value!r} into {self!r}") from None
        if len(seq) > self.k:
            raise ValueError(f"expected at most {self.k} coefficients")
        # base-p fold from the top coefficient down, reducing each mod p
        p, idx = self.p, 0
        try:  # a str or None coefficient raises TypeError in the fold, and a
            # str or bytes holding a bare "%" raises ValueError as a format
            for c in reversed(seq):
                idx = idx * p + c % p
        except (TypeError, ValueError):
            idx = None
        if type(idx) is not int:  # a float or Fraction coefficient was folded in
            raise ValueError(f"coefficients must be ints, got {value!r}")
        return idx

    def lines_of(self, pairs) -> tuple[tuple[int, int], ...]:
        """The normalized pairs of the points [u : v] of the projective line,
        as entries of ``_lines``: (1, v/u) if u != 0, else (0, 1).  An exact
        int is reduced mod p, as ``index_of`` reduces it, and an element of
        this context is read by its index; every other value, a bool
        included, is coerced by ``index_of``.  Pairs are read in order, u
        before v, and both zero is no point and raises ValueError."""
        p, mul, inv, lines, index_of = self.p, self._mul, self._inv, self._lines, self.index_of
        out = []
        for u, v in pairs:
            a = (u % p if type(u) is int else
                 u._idx if type(u) is FieldElem and u._ctx is self else index_of(u))
            b = (v % p if type(v) is int else
                 v._idx if type(v) is FieldElem and v._ctx is self else index_of(v))
            if a:
                out.append(lines[mul[b][inv[a]]])
            elif b:
                out.append(lines[-1])
            else:
                raise ValueError("both coordinates are zero")
        return tuple(out)

    def from_index(self, idx: int) -> "FieldElem":
        return self._elems[idx]

    def zero(self) -> "FieldElem":
        return self.from_index(0)

    def one(self) -> "FieldElem":
        return self.from_index(1)

    def gen(self) -> "FieldElem":
        """The polynomial generator u (only defined for k >= 2)."""
        if self.k < 2:
            raise ValueError("prime field has no polynomial generator")
        return self.from_index(self.p)

    def elements(self) -> Iterator["FieldElem"]:
        """All q elements, in index order (coefficients as base-p digits)."""
        for idx in range(self.q):
            yield self.from_index(idx)

    # -- table construction -------------------------------------------------

    def _build_tables(self):
        q, p = self.q, self.p
        powers = [p ** d for d in range(self.k)]
        # element i has the base-p digits of i as coefficients, low first
        self._elems = elems = [FieldElem(self, i, tuple([i // pd % p for pd in powers]))
                               for i in range(q)]
        # k reduced coefficients -> the element; any other tuple misses
        self._by_coeffs = dict(zip(map(attrgetter("coeffs"), elems), elems))
        # addition is digit-wise mod p on indices: step[d] raises digit d by
        # one, and for p^d <= a < p^(d+1), row a is row a - p^d read through
        # step[d]; no Python call is made per entry
        step = [[i - (p - 1) * pd if i // pd % p == p - 1 else i + pd for i in range(q)]
                for pd in powers]
        self._add = add = [list(range(q))]
        for pd, up in zip(powers, step):
            for a in range(pd, p * pd):
                add.append(list(map(up.__getitem__, add[a - pd])))
        self._neg = [row.index(0) for row in add]

        # exp/log tables over the lowest-index generator g of F_q^x, stepped
        # through x -> x*g: x*u is x's digits shifted up plus the top digit
        # times u^k = -(modulus tail), and for p^d <= g, x*g = x*(g - u^d) + x*u^d
        # is added like an add row.  Row x of mul is exp[log[x]:] read at log.
        by_u, c_uk = [], 0  # c_uk is the index of c*u^k for top digit c = 0, 1, ...
        u_k = sum(-m % p * pd for m, pd in zip(self.modulus, powers))
        for _ in range(p if self.k > 1 else 0):  # x = c*p^(k-1) + r: x*u = c*u^k + r*u
            by_u += map(add[c_uk].__getitem__, range(0, q, p))
            c_uk = add[c_uk][u_k]
        pd, by_ud = 1, list(range(q))  # x -> x*u^d, for p^d <= g
        times = [[0] * q]  # times[g][x] is the index of x*g
        for g in range(1, q):
            if g == p * pd:
                pd, by_ud = g, list(map(by_u.__getitem__, by_ud))
            times.append(list(map(list.__getitem__, map(add.__getitem__, times[g - pd]), by_ud)))
            by_g, exp = times[g], [1]
            while (x := by_g[exp[-1]]) != 1:
                exp.append(x)
            if len(exp) == q - 1:
                break
        self._primitive = g
        log = [0] * q
        for i, x in enumerate(exp):
            log[x] = i
        exp += exp
        # [0] + list(...) keeps each row exactly q long, with no append slack
        self._mul = [[0] * q] + [[0] + list(map(exp[log[x]:].__getitem__, log[1:]))
                                 for x in range(1, q)]
        self._inv = [None] + [exp[q - 1 - log[x]] for x in range(1, q)]
        self._frob = [0] + [exp[log[x] * p % (q - 1)] for x in range(1, q)]
        # the q+1 points of the projective line as interned normalized pairs:
        # (1, t) at index t, then (0, 1)
        self._lines = tuple([(1, t) for t in range(q)]) + ((0, 1),)

    def __hash__(self):
        # from (p, k, modulus), not the address, so hash order is reproducible
        return self._hash

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.modulus):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                pre = "" if c == 1 else str(c) + "*"
                terms.append(f"{pre}x" + (f"^{i}" if i > 1 else ""))
        return f"FieldCtx(p={self.p}, k={self.k}, modulus={' + '.join(reversed(terms))})"


class FieldElem:
    """An element of a :class:`FieldCtx`, immutable and hashable.

    Serializes to/from a list of k residues, low-degree first (so u + 1 in
    F_4 is ``[1, 1]``).
    """

    __slots__ = ("_ctx", "_idx", "coeffs", "_h")

    def __init__(self, ctx: FieldCtx, idx: int, coeffs: tuple[int, ...]):
        self._ctx = ctx
        self._idx = idx
        self.coeffs = coeffs
        self._h = hash((ctx._hash, idx))

    @property
    def ctx(self) -> FieldCtx:
        return self._ctx

    @property
    def index(self) -> int:
        """Position of this element in ``ctx.elements()`` order."""
        return self._idx

    def to_list(self) -> list[int]:
        return list(self.coeffs)

    def _coerce(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other._ctx is not self._ctx:
                raise ContextMismatchError(
                    f"cannot combine elements of {self._ctx!r} and {other._ctx!r}")
            return other
        if isinstance(other, int):
            return self._ctx(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ctx = self._ctx
        return ctx._elems[ctx._add[self._idx][other._idx]]

    __radd__ = __add__

    def __neg__(self):
        ctx = self._ctx
        return ctx._elems[ctx._neg[self._idx]]

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ctx = self._ctx
        return ctx._elems[ctx._mul[self._idx][other._idx]]

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        if self._idx == 0:
            raise ZeroDivisionError("inverse of zero")
        ctx = self._ctx
        return ctx._elems[ctx._inv[self._idx]]

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self._ctx.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def frobenius(self, times: int = 1) -> "FieldElem":
        """Apply x -> x^p the given number of times (identity every k steps)."""
        if times < 0:
            raise ValueError("Frobenius twist must be non-negative")
        ctx = self._ctx
        idx = self._idx
        for _ in range(times % ctx.k):
            idx = ctx._frob[idx]
        return ctx._elems[idx]

    def __bool__(self):
        return self._idx != 0

    def __eq__(self, other):
        if other is self:
            return True
        if isinstance(other, FieldElem):
            return self._idx == other._idx and self._ctx is other._ctx
        if isinstance(other, int):
            return self == self._ctx(other)
        return NotImplemented

    def __hash__(self):
        return self._h

    def __repr__(self):
        if self._ctx.k == 1:
            return f"F{self._ctx.q}({self.coeffs[0]})"
        return f"F{self._ctx.q}({list(self.coeffs)})"
