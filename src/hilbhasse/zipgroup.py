"""Exhaustive zip-group machinery over a small finite field: the group of
determinant-matched 2x2 tuples, the Frobenius-coupled Borel pairs acting on
it by (a, b) . g = a g b^(-1) and a small generating set of them, orbit
partition, and the Bruhat cell census.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .errors import DEFAULT_ENUM_BOUND, BoundExceededError
from .field import FieldCtx, FieldElem
from .linalg import Matrix
from .schubert import GroupElem, bruhat_word, stratum_label
from .weyl import CocharDatum, WeylElem, all_weyl_elems


class OrbitLabelError(RuntimeError):
    """An orbit with a non-constant stratum label signals an implementation
    bug and is surfaced, never repaired."""


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int):
        x, y = self.find(x), self.find(y)
        if x == y:
            return
        if self.rank[x] < self.rank[y]:
            x, y = y, x
        elif self.rank[x] == self.rank[y]:
            self.rank[x] += 1
        self.parent[y] = x


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
        for i, (fa, fb) in enumerate(zip(self.a.factors, self.b.factors)):
            if fa.entry(0, 1):
                raise ValueError(f"left factor {i} is not lower triangular")
            if fb.entry(1, 0):
                raise ValueError(f"right factor {i} is not upper triangular")
            if (fb.entry(0, 0) != fa.entry(0, 0).frobenius()
                    or fb.entry(1, 1) != fa.entry(1, 1).frobenius()):
                raise ValueError(f"diagonal of right factor {i} is not the "
                                 f"Frobenius of the left diagonal")


def zip_act(e: ZipGroupElem, g: GroupElem) -> GroupElem:
    """(a, b) . g = a g b^(-1)."""
    return e.a * g * e.b.inverse()


def _gl2_by_det(ctx: FieldCtx) -> dict[int, list[Matrix]]:
    """All invertible 2x2 matrices grouped by determinant index, each group
    in deterministic enumeration order."""
    groups: dict[int, list[Matrix]] = {}
    for a, b, c, d in product(ctx.elements(), repeat=4):
        det = a * d - b * c
        if det:
            groups.setdefault(det.index, []).append(Matrix(ctx, 2, 2, (a, b, c, d)))
    return dict(sorted(groups.items()))


def _borel_by_det(ctx: FieldCtx) -> dict[int, list[Matrix]]:
    """Invertible lower-triangular 2x2 matrices grouped by determinant index."""
    groups: dict[int, list[Matrix]] = {}
    zero = ctx.zero()
    for d0, d1, low in product(ctx.elements(), repeat=3):
        if d0 and d1:
            det = d0 * d1
            groups.setdefault(det.index, []).append(Matrix(ctx, 2, 2, (d0, zero, low, d1)))
    return dict(sorted(groups.items()))


def _equal_det_tuples(groups: dict[int, list[Matrix]], n: int):
    for det in groups:
        yield from product(groups[det], repeat=n)


def enumerate_G(ctx: FieldCtx, n: int, bound: int = DEFAULT_ENUM_BOUND) -> list[GroupElem]:
    """All n-tuples of invertible 2x2 matrices with pairwise equal
    determinants, in deterministic (determinant-major) order; there are
    (q-1)(q(q^2-1))^n of them."""
    q = ctx.q
    implied = (q - 1) * (q * (q * q - 1)) ** n
    if implied > bound:
        raise BoundExceededError(implied, bound, "group enumeration")
    return [GroupElem(fs) for fs in _equal_det_tuples(_gl2_by_det(ctx), n)]


def enumerate_E(ctx: FieldCtx, n: int, bound: int = DEFAULT_ENUM_BOUND) -> list[ZipGroupElem]:
    """All Frobenius-coupled Borel pairs: the left member runs over the
    lower-triangular subgroup (equal determinants across factors), the right
    member has the coupled diagonal and a free upper entry per factor."""
    borel = _borel_by_det(ctx)
    implied = sum(len(v) ** n for v in borel.values()) * ctx.q ** n
    if implied > bound:
        raise BoundExceededError(implied, bound, "zip-group enumeration")
    zero = ctx.zero()
    out = []
    for a_factors in _equal_det_tuples(borel, n):
        a = GroupElem(a_factors)
        diag = [(f.entry(0, 0).frobenius(), f.entry(1, 1).frobenius()) for f in a_factors]
        for uppers in product(ctx.elements(), repeat=n):
            b = GroupElem(tuple(Matrix(ctx, 2, 2, (d0, u, zero, d1))
                                for (d0, d1), u in zip(diag, uppers)))
            out.append(ZipGroupElem(a, b))
    return out


def _multiplicative_generator(ctx: FieldCtx) -> FieldElem:
    """The lowest-index element generating the cyclic group F_q^x."""
    mul = ctx._mul
    for idx in range(1, ctx.q):
        acc, order = idx, 1
        while acc != 1:
            acc, order = mul[acc][idx], order + 1
        if order == ctx.q - 1:
            return ctx.from_index(idx)
    raise AssertionError("F_q^x is cyclic")  # unreachable


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
    zero, one = ctx.zero(), ctx.one()
    identity = GroupElem.identity(ctx, n)
    eye = Matrix.identity(ctx, 2)

    def at(i: int, m: Matrix) -> GroupElem:
        return GroupElem(tuple(m if j == i else eye for j in range(n)))

    def coupled_diagonal(diags) -> ZipGroupElem:
        a = GroupElem(tuple(Matrix(ctx, 2, 2, (d0, zero, zero, d1)) for d0, d1 in diags))
        b = GroupElem(tuple(Matrix(ctx, 2, 2, (d0.frobenius(), zero, zero, d1.frobenius()))
                            for d0, d1 in diags))
        return ZipGroupElem(a, b)

    gens = []
    for i in range(n):
        for j in range(ctx.k):
            t = ctx.from_index(ctx.p ** j)  # u^j
            gens.append(ZipGroupElem(at(i, Matrix(ctx, 2, 2, (one, zero, t, one))), identity))
            gens.append(ZipGroupElem(identity, at(i, Matrix(ctx, 2, 2, (one, t, zero, one)))))
    if ctx.q > 2:
        gamma = _multiplicative_generator(ctx)
        for i in range(n):
            gens.append(coupled_diagonal([(gamma, gamma.inverse()) if j == i else (one, one)
                                          for j in range(n)]))
        gens.append(coupled_diagonal([(gamma, one)] * n))
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


def _mat_key(m: Matrix) -> tuple[int, int, int, int]:
    e = m.entries
    return (e[0].index, e[1].index, e[2].index, e[3].index)


def _mm(x, y, mul, add):
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return (add[mul[x00][y00]][mul[x01][y10]],
            add[mul[x00][y01]][mul[x01][y11]],
            add[mul[x10][y00]][mul[x11][y10]],
            add[mul[x10][y01]][mul[x11][y11]])


def orbits(g_list: Sequence[GroupElem], e_list: Sequence[ZipGroupElem]) -> OrbitPartition:
    """Orbit partition of the enumerated group under the group the acting
    pairs generate, by union-find over every (element, pair) combination.

    The orbits of a finite group are the connected components of the graph
    joining g to e . g for e in any generating list, so
    ``zip_group_generators`` and the full ``enumerate_E`` give the same
    partition; the scan costs len(g_list) * len(e_list) actions.

    Every class is labeled by the stratum label shared by its members; a
    non-constant label raises OrbitLabelError.
    """
    if not g_list or not e_list:
        raise ValueError("need non-empty group and acting lists")
    ctx = g_list[0].ctx
    n = g_list[0].n
    g_keys = [tuple(_mat_key(f) for f in g.factors) for g in g_list]
    idx_of = {key: i for i, key in enumerate(g_keys)}
    uf = UnionFind(len(g_list))
    mul, add = ctx._mul, ctx._add
    factor_range = range(n)
    e_pairs = [(tuple(_mat_key(f) for f in e.a.factors),
                tuple(_mat_key(f.inverse()) for f in e.b.factors))
               for e in e_list]
    union = uf.union
    for a_key, binv_key in e_pairs:
        for gi, gkey in enumerate(g_keys):
            out = tuple(_mm(_mm(a_key[f], gkey[f], mul, add), binv_key[f], mul, add)
                        for f in factor_range)
            union(gi, idx_of[out])
    members: dict[int, list[int]] = {}
    for i in range(len(g_list)):
        members.setdefault(uf.find(i), []).append(i)
    datum = CocharDatum.split(n, ctx.p)
    classes = []
    labels = []
    for root in sorted(members, key=lambda r: min(members[r])):
        idxs = sorted(members[root])
        class_labels = {stratum_label(g_list[i], datum) for i in idxs}
        if len(class_labels) != 1:
            raise OrbitLabelError(
                f"orbit of size {len(idxs)} carries labels "
                f"{sorted(w.to_string() for w in class_labels)}")
        classes.append(tuple(g_list[i] for i in idxs))
        labels.append(class_labels.pop())
    return OrbitPartition(tuple(classes), tuple(labels))


def bruhat_census(ctx: FieldCtx, n: int,
                  bound: int = DEFAULT_ENUM_BOUND) -> list[tuple[WeylElem, int]]:
    """Cell sizes of the Bruhat partition of the enumerated group, one row
    per sign vector in deterministic order."""
    counts = Counter(bruhat_word(g).signs for g in enumerate_G(ctx, n, bound))
    return [(w, counts.get(w.signs, 0)) for w in all_weyl_elems(n)]
