"""Sections of the (1, ..., 1) line bundle on a product of projective lines,
Bruhat words of invertible 2x2 factor tuples, and exact vanishing orders.

A point of the n-fold product of projective lines carries one coordinate
pair [x_i0 : x_i1] per factor.  The distinguished section is the product of
the first coordinates; its zero locus stratifies the space into cells
indexed by sign vectors, with an affine line at each -1 entry and the point
[0 : 1] at each +1 entry.  Vanishing orders are computed symbolically in
chart parameters, never by sampling: coefficients of the restriction are
summed exactly on the field's index tables, so the orders are exact over
any finite field.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import cache
from itertools import product

from .errors import DEFAULT_ENUM_BOUND, refuse_above
from .field import ContextMismatchError, FieldCtx, FieldElem
from .weyl import Character, CocharDatum, WeylElem

#: Distinguished return value for a section restricting to the zero function
#: on the probed locus.  Not an error: callers may probe non-generic loci.
INFINITE_ORDER = math.inf

ExpKey = tuple[tuple[int, int], ...]
#: A 2x2 matrix as its row-major element indices (a, b, c, d).
Factor = tuple[int, int, int, int]


class MultiPoly:
    """A multihomogeneous-style polynomial in n projective coordinate pairs.

    Terms map an exponent record, one (d_i0, d_i1) pair per factor, to the
    element index of a nonzero field coefficient.  Sections of the
    (1, ..., 1) bundle have d_i0 + d_i1 = 1 in every factor of every term.
    Coefficients are given as values that ``ctx.index_of`` accepts; those
    of equal records are summed on the field's tables before zeros are
    dropped.
    """

    __slots__ = ("ctx", "n", "terms")

    def __init__(self, ctx: FieldCtx, n: int, terms: dict):
        self.ctx = ctx
        self.n = n
        add = ctx._add
        summed: dict[ExpKey, int] = {}
        for exps, coeff in terms.items():
            exps = tuple((int(d0), int(d1)) for d0, d1 in exps)
            if len(exps) != n:
                raise ValueError(f"exponent record has {len(exps)} factors, expected {n}")
            if any(d0 < 0 or d1 < 0 for d0, d1 in exps):
                raise ValueError("negative exponent")
            summed[exps] = add[summed.get(exps, 0)][ctx.index_of(coeff)]
        self.terms = {e: c for e, c in summed.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    # -- display ---------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in sorted(self.terms.items()):
            factors = []
            for i, (d0, d1) in enumerate(exps):
                if d0:
                    factors.append(f"x{i + 1}0" + (f"^{d0}" if d0 > 1 else ""))
                if d1:
                    factors.append(f"x{i + 1}1" + (f"^{d1}" if d1 > 1 else ""))
            body = "*".join(factors) if factors else "1"
            if coeff == 1 and factors:
                parts.append(body)
            else:
                coeff_str = (str(coeff) if self.ctx.k == 1
                             else str(self.ctx.from_index(coeff).to_list()))
                parts.append(f"{coeff_str}*{body}" if factors else coeff_str)
        return " + ".join(parts)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.n == other.n
                and self.ctx == other.ctx and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ctx, self.n, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MultiPoly({self})"


class PointP1n:
    """A point of the n-fold product of projective lines, one normalized
    pair per factor (first nonzero coordinate scaled to 1), held as element
    indices in ``index_coords``; ``coords`` gives the pairs as field elements."""

    __slots__ = ("ctx", "index_coords")

    def __init__(self, ctx: FieldCtx, pairs: Sequence[Sequence]):
        self.ctx = ctx
        self.index_coords = tuple([normalized_index_pair(ctx, u, v) for u, v in pairs])

    @property
    def n(self) -> int:
        return len(self.index_coords)

    @property
    def coords(self) -> tuple[tuple[FieldElem, FieldElem], ...]:
        e = self.ctx._elems
        return tuple([(e[a], e[b]) for a, b in self.index_coords])

    def __eq__(self, other):
        return (isinstance(other, PointP1n) and self.ctx == other.ctx
                and self.index_coords == other.index_coords)

    def __hash__(self):
        return hash((self.ctx, self.index_coords))

    def __repr__(self):
        body = "; ".join(f"[{u!r}:{v!r}]" for u, v in self.coords)
        return f"PointP1n({body})"


def projective_line_reps(ctx: FieldCtx) -> list[tuple[FieldElem, FieldElem]]:
    """The q+1 normalized coordinate pairs of a projective line, in the
    deterministic order (1, t) for t in element order, then (0, 1)."""
    one, zero = ctx.one(), ctx.zero()
    return [(one, t) for t in ctx.elements()] + [(zero, one)]


def normalized_index_pair(ctx: FieldCtx, a, b) -> tuple[int, int]:
    """The element indices of the normalized pair of the point [a : b] of
    the projective line: (1, b/a) if a != 0, else (0, 1).  a and b are
    coerced as ``ctx`` coerces; both zero is no point and raises ValueError."""
    a, b = ctx.index_of(a), ctx.index_of(b)
    if a:
        return 1, ctx._mul[b][ctx._inv[a]]
    if b:
        return 0, 1
    raise ValueError("both coordinates are zero")


def all_points(ctx: FieldCtx, n: int) -> list[PointP1n]:
    """All (q+1)^n rational points of the n-fold product, lexicographic;
    refused above ``DEFAULT_ENUM_BOUND`` points."""
    if n < 1:
        raise ValueError("need at least one factor")
    refuse_above(DEFAULT_ENUM_BOUND, "point enumeration", ctx.q + 1, n)
    reps = projective_line_reps(ctx)
    return [PointP1n(ctx, combo) for combo in product(reps, repeat=n)]


def mul_2x2(x: Factor, y: Factor, mul, add) -> Factor:
    """Product of two 2x2 matrices held as row-major element indices
    (a, b, c, d), through a context's multiplication and addition tables."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return (add[mul[x00][y00]][mul[x01][y10]],
            add[mul[x00][y01]][mul[x01][y11]],
            add[mul[x10][y00]][mul[x11][y10]],
            add[mul[x10][y01]][mul[x11][y11]])


def det_2x2(f: Factor, ctx: FieldCtx) -> int:
    """Determinant index of a 2x2 matrix held as row-major element indices."""
    a, b, c, d = f
    mul = ctx._mul
    return ctx._add[mul[a][d]][ctx._neg[mul[b][c]]]


class GroupElem:
    """A tuple of invertible 2x2 factors over one field context.

    Each factor is given as two rows of two values that ``ctx.index_of``
    accepts, as in the replay JSON the CLI prints, and is stored as its
    row-major element indices (a, b, c, d) in ``index_factors``; ``factors``
    gives the rows back as field elements.  All factor determinants must
    agree, the condition cutting the group of interest out of the plain
    product of 2x2 groups.  Products and inverses are not re-checked: the
    group is closed under both.
    """

    __slots__ = ("ctx", "index_factors")

    def __init__(self, ctx: FieldCtx, factors: Sequence[Sequence[Sequence]]):
        index_factors = []
        dets = set()
        for i, f in enumerate(factors):
            if not (isinstance(f, (list, tuple)) and len(f) == 2 and all(
                    isinstance(row, (list, tuple)) and len(row) == 2 for row in f)):
                raise ValueError(f"factor {i} is not 2x2")
            key = tuple(ctx.index_of(e) for row in f for e in row)
            det = det_2x2(key, ctx)
            if not det:
                raise ValueError(f"factor {i} is singular")
            index_factors.append(key)
            dets.add(det)
        if not index_factors:
            raise ValueError("need at least one factor")
        if len(dets) > 1:
            raise ValueError("factor determinants differ")
        self.ctx = ctx
        self.index_factors = tuple(index_factors)

    @classmethod
    def from_indices(cls, ctx: FieldCtx, index_factors: tuple[Factor, ...]) -> "GroupElem":
        """Unchecked constructor from index factors the caller knows to be
        invertible (with equal determinants, where that is meant)."""
        g = object.__new__(cls)
        g.ctx = ctx
        g.index_factors = index_factors
        return g

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "GroupElem":
        return cls.from_indices(ctx, ((1, 0, 0, 1),) * n)

    @classmethod
    def weyl_lift(cls, ctx: FieldCtx, w: WeylElem) -> "GroupElem":
        """The standard lift: [[0, 1], [-1, 0]] at -1 entries, identity else."""
        s = (0, 1, ctx._neg[1], 0)
        return cls.from_indices(ctx, tuple(s if sign == -1 else (1, 0, 0, 1)
                                           for sign in w.signs))

    @property
    def n(self) -> int:
        return len(self.index_factors)

    @property
    def factors(self) -> tuple[tuple[tuple[FieldElem, FieldElem], ...], ...]:
        """Each factor as its two rows of field elements."""
        e = self.ctx._elems
        return tuple(((e[a], e[b]), (e[c], e[d])) for a, b, c, d in self.index_factors)

    def __mul__(self, other: "GroupElem") -> "GroupElem":
        if not isinstance(other, GroupElem):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("factor count mismatch")
        ctx = self.ctx
        if other.ctx is not ctx:
            raise ContextMismatchError("group elements over different fields")
        mul, add = ctx._mul, ctx._add
        return GroupElem.from_indices(ctx, tuple(
            mul_2x2(x, y, mul, add) for x, y in zip(self.index_factors, other.index_factors)))

    def inverse(self) -> "GroupElem":
        ctx = self.ctx
        mul, neg = ctx._mul, ctx._neg
        out = []
        for f in self.index_factors:
            a, b, c, d = f
            scale = mul[ctx._inv[det_2x2(f, ctx)]]
            out.append((scale[d], scale[neg[b]], scale[neg[c]], scale[a]))
        return GroupElem.from_indices(ctx, tuple(out))

    def __eq__(self, other):
        return (isinstance(other, GroupElem) and self.ctx is other.ctx
                and self.index_factors == other.index_factors)

    def __hash__(self):
        return hash(self.index_factors)

    def __repr__(self):
        return f"GroupElem({self.ctx!r}, {list(self.factors)!r})"


# -- sections and weight spaces ------------------------------------------------


def hasse_section(ctx: FieldCtx, n: int) -> MultiPoly:
    """The product of the first coordinates over all n factors."""
    if n < 1:
        raise ValueError("need at least one factor")
    return MultiPoly(ctx, n, {((1, 0),) * n: 1})


def monomial_weight(n: int, eps: Sequence[int]) -> Character:
    """Torus weight of the degree-(1,...,1) monomial picking coordinate
    eps_i in factor i: each first coordinate contributes (-1) to its a-entry,
    each second coordinate (+1), and every factor contributes -1 to c."""
    return Character(tuple(-1 if e == 0 else 1 for e in eps), -n)


def torus_weight_space(ctx: FieldCtx, n: int, target) -> list[MultiPoly]:
    """Basis of the subspace of degree-(1, ..., 1) sections on which the
    torus acts through ``target``.

    Each of the 2^n coordinate-product monomials is a weight vector of its
    own weight (see ``monomial_weight``), so the answer is read off the
    target: the one monomial with x_i0 where a_i = -1 and x_i1 where
    a_i = 1 if c = -n and every a_i is +-1, and nothing otherwise.
    ``target`` may be a Character or a raw pair (a-sequence, c), the latter
    allowing probes that violate the parity constraint (which simply match
    nothing).
    """
    if n < 1:
        raise ValueError("need at least one factor")
    if isinstance(target, Character):
        ta, tc = target.a, target.c
    else:
        ta, tc = tuple(target[0]), target[1]
    if len(ta) != n:
        raise ValueError("target rank mismatch")
    if tc != -n or any(a not in (-1, 1) for a in ta):
        return []
    return [MultiPoly(ctx, n, {tuple((1, 0) if a == -1 else (0, 1) for a in ta): 1})]


# -- Bruhat words and stratum labels --------------------------------------------


def bruhat_signs(g: GroupElem) -> tuple[int, ...]:
    """The sign vector of the cell of g: factor i contributes +1 iff its
    top-right entry is 0.

    A zero top-right entry means the factor lies in the lower-triangular
    subgroup; otherwise it lies in the cell of the reflection.
    """
    return tuple([1 if not f[1] else -1 for f in g.index_factors])


def bruhat_word(g: GroupElem) -> WeylElem:
    """The cell of g as a Weyl element; see ``bruhat_signs``."""
    return WeylElem.from_signs(bruhat_signs(g))


def stratum_label(g: GroupElem, datum: CocharDatum) -> WeylElem:
    """Zip-side stratum of g: the Bruhat word of g translated on the right
    by the standard lift of z."""
    if datum.n != g.n:
        raise ValueError("rank mismatch")
    return bruhat_word(g * GroupElem.weyl_lift(g.ctx, datum.z))


# -- vanishing orders ------------------------------------------------------------


@cache
def _binomial_row(ctx: FieldCtx, v: int, d: int) -> tuple[tuple[int, int], ...]:
    """The nonzero terms (j, C(d, j) v^(d-j)) of (v + w)^d as coefficient
    indices.  C(d, j) is reduced mod p: the prime-field element c has index c.
    Memoized for the process: the keys are bounded by the contexts built
    times their q element indices v times the degrees d of the sections seen."""
    mul, p = ctx._mul, ctx.p
    row = []
    power = 1  # v^(d-j) as j runs down from d
    for j in range(d, -1, -1):
        c = mul[math.comb(d, j) % p][power]
        if c:
            row.append((j, c))
        power = mul[power][v]
    return tuple(row)


def vanishing_order_at_point(f: MultiPoly, pt: PointP1n):
    """Exact vanishing order of f at a rational point.

    The point is moved to the origin of the affine chart selected by its
    nonvanishing coordinate in each factor; the order is the least total
    degree of a surviving monomial of the restricted polynomial.  The
    restriction is expanded term by term into one dict of chart monomials,
    and coefficients are summed on the field's index tables before zeros
    are dropped, so cancellation is exact.  Returns INFINITE_ORDER when the
    restriction is identically zero, which cannot happen for a nonzero
    section of the (1, ..., 1) bundle.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no well-defined order")
    if pt.n != f.n or pt.ctx != f.ctx:
        raise ValueError("point and polynomial are incompatible")
    ctx = f.ctx
    add, mul = ctx._add, ctx._mul
    restricted: dict[tuple[int, ...], int] = {}
    for exps, coeff in f.terms.items():
        # chart x0 != 0: x0 -> 1, x1 -> v + w; chart x1 != 0: x0 -> w, x1 -> 1
        rows = [_binomial_row(ctx, v, d1) if u else ((d0, 1),)
                for (d0, d1), (u, v) in zip(exps, pt.index_coords)]
        for choice in product(*rows):
            c = coeff
            for _, b in choice:
                c = mul[c][b]
            e = tuple([j for j, _ in choice])
            restricted[e] = add[restricted.get(e, 0)][c]
    return min([sum(e) for e, c in restricted.items() if c], default=INFINITE_ORDER)


def vanishing_order_on_stratum(f: MultiPoly, w: WeylElem):
    """Exact vanishing order of f at the generic point of the cell of w.

    The cell is parametrized by one affine variable per -1 entry (the chart
    [1 : t]); each +1 entry contributes a normal parameter s via the chart
    [s : 1].  Each term of f restricts to a single chart monomial; the
    coefficients of equal monomials are summed exactly before zeros are
    dropped, and the order is the least total s-degree over the surviving
    monomials, so the answer is valid over any coefficient field.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no well-defined order")
    if w.n != f.n:
        raise ValueError("sign vector and polynomial are incompatible")
    add = f.ctx._add
    signs = w.signs
    restricted: dict[tuple[int, ...], int] = {}
    for exps, coeff in f.terms.items():
        e = tuple([d1 if sign == -1 else d0 for (d0, d1), sign in zip(exps, signs)])
        restricted[e] = add[restricted.get(e, 0)][coeff]
    # a monomial's s-degree is its exponent sum over the +1 entries
    return min([sum([d for d, sign in zip(e, signs) if sign == 1])
                for e, c in restricted.items() if c], default=INFINITE_ORDER)
