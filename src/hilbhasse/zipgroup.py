"""Exhaustive zip-group machinery over a small finite field: the group of
determinant-matched 2x2 tuples, the Frobenius-coupled Borel pairs acting on
it by (a, b) . g = a g b^(-1) and a small generating set of them, orbit
partition, and the Bruhat cell census.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, product
from math import prod
from typing import Sequence

from .errors import DEFAULT_ENUM_BOUND, refuse_above
from .field import ContextMismatchError, FieldCtx
# bruhat_word is not called here; it stays a name of this module for code
# that wraps zipgroup.bruhat_word.
from .schubert import (Factor, GroupElem, bruhat_word, det_2x2, mul_2x2,  # noqa: F401
                       stratum_label)
from .weyl import CocharDatum, WeylElem, all_weyl_elems


class OrbitLabelError(RuntimeError):
    """An orbit with a non-constant stratum label signals an implementation
    bug and is surfaced, never repaired.  ``members`` holds two (element,
    label) pairs from the orbit whose labels differ, so the failure can be
    replayed."""

    def __init__(self, message: str, members: tuple[tuple[GroupElem, WeylElem], ...]):
        super().__init__(message)
        self.members = members


@dataclass(frozen=True)
class ZipGroupElem:
    """A pair (a, b): a with lower-triangular factors, b with upper, and the
    diagonal of each factor of b equal to the entrywise p-th power of the
    diagonal of the matching factor of a."""

    a: GroupElem
    b: GroupElem

    def __post_init__(self):
        if self.a.n != self.b.n:
            raise ValueError("factor count mismatch")
        if self.a.ctx is not self.b.ctx:
            raise ContextMismatchError("pair members over different fields")
        frob = self.a.ctx._frob
        for i, ((a00, a01, _, a11), (b00, _, b10, b11)) in enumerate(
                zip(self.a.index_factors, self.b.index_factors)):
            if a01:
                raise ValueError(f"left factor {i} is not lower triangular")
            if b10:
                raise ValueError(f"right factor {i} is not upper triangular")
            if b00 != frob[a00] or b11 != frob[a11]:
                raise ValueError(f"diagonal of right factor {i} is not the "
                                 f"Frobenius of the left diagonal")


def zip_act(e: ZipGroupElem, g: GroupElem) -> GroupElem:
    """(a, b) . g = a g b^(-1)."""
    return e.a * g * e.b.inverse()


def _by_det(ctx: FieldCtx, factors) -> dict[int, list[Factor]]:
    """The invertible ones among the given index factors, grouped by
    determinant index, each group in the given order."""
    groups: dict[int, list[Factor]] = {}
    for f in factors:
        det = det_2x2(f, ctx)
        if det:
            groups.setdefault(det, []).append(f)
    return dict(sorted(groups.items()))


def _equal_det_tuples(groups: dict[int, list[Factor]], n: int):
    for det in groups:
        yield from product(groups[det], repeat=n)


def group_order(ctx: FieldCtx, n: int) -> int:
    """|G| = (q-1)(q(q^2-1))^n in closed form: one determinant in F_q^x, and
    q(q^2-1) matrices of each determinant per factor."""
    q = ctx.q
    return (q - 1) * (q * (q * q - 1)) ** n


def borel_order(ctx: FieldCtx, n: int) -> int:
    """|B| = (q-1)((q-1)q)^n in closed form: one determinant in F_q^x, and per
    lower triangular factor q-1 first diagonal entries and q corners."""
    return (ctx.q - 1) ** (n + 1) * ctx.q ** n


def generator_count(ctx: FieldCtx, n: int) -> int:
    """The number of pairs ``zip_group_generators(ctx, n)`` returns, in closed
    form: 2nk unipotents, and n + 1 diagonals when q > 2."""
    return 2 * n * ctx.k + (n + 1 if ctx.q > 2 else 0)


def enumerate_G(ctx: FieldCtx, n: int, bound: int = DEFAULT_ENUM_BOUND) -> list[GroupElem]:
    """All n-tuples of invertible 2x2 matrices with pairwise equal
    determinants, in deterministic (determinant-major) order; there are
    ``group_order(ctx, n)`` of them."""
    q = ctx.q
    refuse_above(bound, "group enumeration", q * (q * q - 1), n, q - 1)  # |G|
    gl2 = _by_det(ctx, product(range(q), repeat=4))
    return [GroupElem.from_indices(ctx, fs) for fs in _equal_det_tuples(gl2, n)]


def enumerate_E(ctx: FieldCtx, n: int, bound: int = DEFAULT_ENUM_BOUND) -> list[ZipGroupElem]:
    """All Frobenius-coupled Borel pairs: the left member runs over the
    lower-triangular subgroup (equal determinants across factors), the right
    member has the coupled diagonal and a free upper entry per factor."""
    # q - 1 determinants, (q - 1) q lower-triangular matrices of each, and q
    # upper entries per factor
    q = ctx.q
    refuse_above(bound, "zip-group enumeration", (q - 1) * q * q, n, q - 1)
    # the invertible lower-triangular matrices
    borel = _by_det(ctx, ((d0, 0, low, d1) for d0, d1, low in product(range(q), repeat=3)))
    frob = ctx._frob
    out = []
    for a_factors in _equal_det_tuples(borel, n):
        a = GroupElem.from_indices(ctx, a_factors)
        diag = [(frob[f[0]], frob[f[3]]) for f in a_factors]
        for uppers in product(range(q), repeat=n):
            b = GroupElem.from_indices(ctx, tuple((d0, u, 0, d1)
                                                  for (d0, d1), u in zip(diag, uppers)))
            out.append(ZipGroupElem(a, b))
    return out


def zip_group_generators(ctx: FieldCtx, n: int) -> list[ZipGroupElem]:
    """A generating set of the group of Frobenius-coupled Borel pairs.

    The kernel of the map to the coupled diagonal is the product of the
    lower unipotents on the left and the upper unipotents on the right; each
    factor's unipotents are generated by the F_p-basis 1, u, ..., u^(k-1) of
    F_q.  The coupled diagonal is {(d0_i, d1_i) : all d0_i d1_i equal}, whose
    exponent lattice over a generator gamma of F_q^x is generated by
    diag(gamma, gamma^(-1)) in one factor and diag(gamma, 1) in every factor;
    it is trivial when q = 2.  That gives 2nk + n + 1 generators (2n over F_2).
    """
    frob = ctx._frob
    identity = GroupElem.identity(ctx, n)

    def at(i: int, f: Factor) -> GroupElem:
        return GroupElem.from_indices(ctx, tuple(f if j == i else (1, 0, 0, 1)
                                                 for j in range(n)))

    def coupled_diagonal(diags) -> ZipGroupElem:
        a = GroupElem.from_indices(ctx, tuple((d0, 0, 0, d1) for d0, d1 in diags))
        b = GroupElem.from_indices(ctx, tuple((frob[d0], 0, 0, frob[d1]) for d0, d1 in diags))
        return ZipGroupElem(a, b)

    gens = []
    for i in range(n):
        for j in range(ctx.k):
            t = ctx.p ** j  # the index of u^j
            gens.append(ZipGroupElem(at(i, (1, 0, t, 1)), identity))
            gens.append(ZipGroupElem(identity, at(i, (1, t, 0, 1))))
    if ctx.q > 2:
        gamma = ctx._primitive
        for i in range(n):
            gens.append(coupled_diagonal([(gamma, ctx._inv[gamma]) if j == i else (1, 1)
                                          for j in range(n)]))
        gens.append(coupled_diagonal([(gamma, 1)] * n))
    return gens


@dataclass(frozen=True)
class OrbitPartition:
    """Disjoint orbit classes covering the enumerated group, each with the
    common stratum label of its members."""

    classes: tuple[tuple[GroupElem, ...], ...]
    labels: tuple[WeylElem, ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def by_label(self) -> dict[WeylElem, list[tuple[GroupElem, ...]]]:
        out: dict[WeylElem, list[tuple[GroupElem, ...]]] = {}
        for cls, label in zip(self.classes, self.labels):
            out.setdefault(label, []).append(cls)
        return out


def orbits(g_list: Sequence[GroupElem], e_list: Sequence[ZipGroupElem]) -> OrbitPartition:
    """Orbit partition of the enumerated group under the group the acting
    pairs generate, by the standard orbit search (Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, 2005, section 4.1): each
    element not yet seen starts a class, closed under every pair's action,
    so classes come out ordered by least member.  The inverse of each pair
    is a power of it, so ``zip_group_generators`` and the full
    ``enumerate_E`` give the same partition.

    Each pair's action is tabulated once per factor, by small-int factor id.
    z is the longest element in every factor, and products and Bruhat signs
    work factor by factor, so each member's stratum label is the tuple of
    its factors' one-factor labels; a class whose members' labels differ
    raises OrbitLabelError.
    """
    if not g_list or not e_list:
        raise ValueError("need non-empty group and acting lists")
    ctx = g_list[0].ctx
    # column i holds factor i of every element, by factor id
    columns = list(zip(*(g.index_factors for g in g_list)))
    factors = list(dict.fromkeys(chain.from_iterable(columns)))
    factor_id = {x: i for i, x in enumerate(factors)}
    columns = [list(map(factor_id.__getitem__, col)) for col in columns]
    idx_of = {key: i for i, key in enumerate(zip(*columns))}
    mul, add = ctx._mul, ctx._add

    @cache  # the id of a x b^(-1) by the id of x, once per (a, b^(-1))
    def action(a: Factor, b_inv: Factor) -> list[int]:
        return [factor_id[mul_2x2(mul_2x2(a, x, mul, add), b_inv, mul, add)] for x in factors]
    moves = []  # each pair's action on g_list indices, factor by factor
    for e in e_list:
        tables = map(action, e.a.index_factors, e.b.inverse().index_factors)
        images = zip(*[map(t.__getitem__, col) for t, col in zip(tables, columns)])
        moves.append(list(map(idx_of.__getitem__, images)))
    datum = CocharDatum.split(1, ctx.p)
    sign = [stratum_label(GroupElem.from_indices(ctx, (x,)), datum).signs[0] for x in factors]
    seen = [False] * len(g_list)
    classes, labels = [], []
    for start in range(len(g_list)):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for m in orbit:  # the list grows as the search finds new members
            for move in moves:
                if not seen[j := move[m]]:
                    seen[j] = True
                    orbit.append(j)
        orbit.sort()
        member_signs = zip(*[map(sign.__getitem__, map(c.__getitem__, orbit)) for c in columns])
        first: dict[tuple[int, ...], int] = {}  # the first member carrying each label
        for i, signs in zip(orbit, member_signs):
            first.setdefault(signs, i)
        by_label = {WeylElem(signs): g_list[i] for signs, i in first.items()}
        if len(by_label) != 1:
            raise OrbitLabelError(
                f"orbit of size {len(orbit)} carries labels "
                f"{sorted(w.to_string() for w in by_label)}",
                tuple((g, w) for w, g in list(by_label.items())[:2]))
        classes.append(tuple(map(g_list.__getitem__, orbit)))
        labels.append(next(iter(by_label)))
    return OrbitPartition(tuple(classes), tuple(labels))


def _det_sign_table(ctx: FieldCtx, bound: int) -> dict[tuple[int, int], list]:
    """[c(d, s), first matrix] for each determinant index d and sign s (+1
    iff the top-right entry is 0), from one scan of the q^4 2x2 matrices."""
    refuse_above(bound, "2x2 matrix scan", ctx.q, 4)
    table: dict[tuple[int, int], list] = {}
    for f in product(range(ctx.q), repeat=4):
        if det := det_2x2(f, ctx):
            table.setdefault((det, -1 if f[1] else 1), [0, f])[0] += 1
    return table


def bruhat_census(ctx: FieldCtx, n: int,
                  bound: int = DEFAULT_ENUM_BOUND) -> list[tuple[WeylElem, int]]:
    """Cell sizes of the Bruhat partition of G, one row per sign vector in
    deterministic order, without enumerating G: g is in the cell of w iff
    each factor i has sign w_i, and its factors share one determinant d, so
    the cell holds the sum over d of the product over i of c(d, w_i)."""
    refuse_above(bound, "census row terms", 2, n, ctx.q - 1)
    table = _det_sign_table(ctx, bound)
    dets = {d for d, _ in table}
    return [(w, sum(prod(table[d, s][0] for s in w.signs) for d in dets))
            for w in all_weyl_elems(n)]


def cell_witness(ctx: FieldCtx, w: WeylElem, bound: int = DEFAULT_ENUM_BOUND) -> GroupElem:
    """The first element of the cell of w in ``enumerate_G`` order, from the
    factor scan: the first matrix of sign w_i in each factor, at the least
    determinant index."""
    table = _det_sign_table(ctx, bound)
    det = min(d for d, _ in table)
    return GroupElem.from_indices(ctx, tuple(table[det, s][1] for s in w.signs))
