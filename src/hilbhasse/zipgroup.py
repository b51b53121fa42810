"""Zip-group machinery over a small finite field: the group of
determinant-matched 2x2 tuples, the Frobenius-coupled Borel pairs acting on
it by (a, b) . g = a g b^(-1) and a small generating set of them, the orbit
sizes by stratum label, and the Bruhat cell census.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, product
from math import prod

from .errors import DEFAULT_ENUM_BOUND, refuse_above
from .field import ContextMismatchError, FieldCtx
from .record import FrozenRecord
# bruhat_word is not called here; it stays a name of this module for code
# that wraps zipgroup.bruhat_word.
from .schubert import Factor, GroupElem, bruhat_word, det_2x2, stratum_label  # noqa: F401
from .weyl import WeylElem, all_weyl_elems


class OrbitLabelError(RuntimeError):
    """An orbit with a non-constant stratum label signals an implementation
    bug and is surfaced, never repaired.  ``members`` holds two (element,
    label) pairs from the orbit whose labels differ, so the failure can be
    replayed."""

    def __init__(self, size: int, members: tuple[tuple[GroupElem, WeylElem], ...]):
        super().__init__(f"orbit of size {size} carries labels "
                         f"{sorted(w.to_string() for _, w in members)}")
        self.members = members


class ZipGroupElem(FrozenRecord):
    """A pair (a, b): a with lower-triangular factors, b with upper, and the
    diagonal of each factor of b equal to the entrywise p-th power of the
    diagonal of the matching factor of a."""

    __slots__ = ()
    _fields = ("a", "b")

    def __new__(cls, a: GroupElem, b: GroupElem):
        if a.n != b.n:
            raise ValueError("factor count mismatch")
        if a.ctx is not b.ctx:
            raise ContextMismatchError("pair members over different fields")
        frob = a.ctx._frob
        for i, ((a00, a01, _, a11), (b00, _, b10, b11)) in enumerate(
                zip(a.index_factors, b.index_factors)):
            if a01:
                raise ValueError(f"left factor {i} is not lower triangular")
            if b10:
                raise ValueError(f"right factor {i} is not upper triangular")
            if b00 != frob[a00] or b11 != frob[a11]:
                raise ValueError(f"diagonal of right factor {i} is not the "
                                 f"Frobenius of the left diagonal")
        return tuple.__new__(cls, (a, b))


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


def cell_law(ctx: FieldCtx, n: int) -> list[int]:
    """q^l |B| for l = 0, ..., n: the size of each Bruhat cell of length l,
    and of the orbits in each stratum of length l, in closed form."""
    borel = borel_order(ctx, n)
    return [ctx.q ** length * borel for length in range(n + 1)]


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


def _orbit_search(count: int, moves: list[list[int]]):
    """Each orbit of 0, ..., count - 1 under the tabulated moves, in order of
    least member, as its members in the order the standard orbit search
    finds them (Holt, Eick and O'Brien, *Handbook of Computational Group
    Theory*, 2005, section 4.1)."""
    seen = [False] * count
    for start in range(count):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for m in orbit:  # the list grows as the search finds new members
            for move in moves:
                if not seen[j := move[m]]:
                    seen[j] = True
                    orbit.append(j)
        yield orbit


def orbits(ctx: FieldCtx, n: int, bound: int = DEFAULT_ENUM_BOUND) -> dict[WeylElem, list[int]]:
    """The orbit sizes of the Frobenius-coupled Borel pairs on G by stratum
    label, in ``all_weyl_elems`` order, each list in decreasing order,
    without enumerating G.

    The pairs of ``zip_group_generators`` generate E = U x| T (Pink, Wedhorn
    and Ziegler, *Algebraic zip data*, Doc. Math. 16, 2011).  U, generated by
    the pairs with an off-diagonal entry, has no coupling between factors, so
    its orbits are products of one-factor U-orbits.  T, the coupled diagonal,
    permutes them factor by factor, so an E-orbit is the union of the
    products over a T-orbit of tuples of U-orbit ids.  ``_orbit_search``
    finds the orbits at both levels, over move tables read off the pairs'
    entries with no matrix product: a unipotent adds t times row 0 to row 1
    (a on the left) or t times column 0 to column 1 (b^(-1) on the right),
    and a diagonal pair scales each entry of a U-orbit's first member.  z is
    the longest element in every factor, so a label is the tuple of
    one-factor labels, one ``stratum_label`` call per invertible 2x2 matrix;
    a U-orbit or T-orbit whose labels differ raises OrbitLabelError.
    """
    q = ctx.q
    # |G| x |generators|, both in closed form, so a refusal builds nothing
    refuse_above(bound, "orbit scan", q * (q * q - 1), n, (q - 1) * generator_count(ctx, n))
    mul, add = ctx._mul, ctx._add
    pairs = [tuple(zip(e.a.index_factors, e.b.inverse().index_factors))  # (a, b^(-1)) by factor
             for e in zip_group_generators(ctx, n)]
    rows = list(product(range(q), repeat=2))  # gl2: each (a, b, c, d) with a d != b c, in order
    gl2 = [r + s for r in rows for s in rows if mul[r[0]][s[1]] != mul[r[1]][s[0]]]
    position = {f: i for i, f in enumerate(gl2)}
    u_moves = []  # factor 0's unipotents on gl2 positions; each is the identity on one side
    for (a, b_inv), *_ in pairs:
        if t := a[2]:  # a x, a = [[1, 0], [t, 1]], adds t times row 0 to row 1
            m = mul[t]
            u_moves.append([position[x00, x01, add[x10][m[x00]], add[x11][m[x01]]]
                            for x00, x01, x10, x11 in gl2])
        elif t := b_inv[1]:  # x b^(-1), b^(-1) = [[1, t], [0, 1]], adds t times col 0 to col 1
            m = mul[t]
            u_moves.append([position[x00, add[x01][m[x00]], x10, add[x11][m[x10]]]
                            for x00, x01, x10, x11 in gl2])
    # each matrix's U-orbit id; each U-orbit's first member, size and sign; ids by determinant
    orbit_of, reps, sizes, signs, by_det = {}, [], [], [], {}
    for members in _orbit_search(len(gl2), u_moves):
        first: dict[int, Factor] = {}  # the first member carrying each label
        for x in map(gl2.__getitem__, members):
            orbit_of[x] = len(reps)
            first.setdefault(stratum_label(GroupElem.from_indices(ctx, (x,))).signs[0], x)
        if len(first) != 1:  # the U-orbit of (x, ..., x) in G holds (y, x, ..., x)
            (sx, x), (sy, y) = first.items()
            raise OrbitLabelError(len(members) ** n, (
                (GroupElem.from_indices(ctx, (x,) * n), WeylElem.from_signs((sx,) * n)),
                (GroupElem.from_indices(ctx, (y,) + (x,) * (n - 1)),
                 WeylElem.from_signs((sy,) + (sx,) * (n - 1)))))
        reps.append(gl2[members[0]])
        by_det.setdefault(det_2x2(reps[-1], ctx), []).append(len(sizes))
        sizes.append(len(members))
        signs.append(next(iter(first)))
    tuples = list(_equal_det_tuples(by_det, n))
    index = {t: i for i, t in enumerate(tuples)}
    t_moves = []  # each diagonal pair's action on tuple indices, factor by factor
    for e in pairs:
        if not any(a[2] or b_inv[1] for a, b_inv in e):
            tables = []  # a r b^(-1) scales entry (i, j) of r by a_i c_j, b^(-1) = diag(c_0, c_1)
            for (a0, _, _, a1), (c0, _, _, c1) in e:
                s00, s01, s10, s11 = (mul[mul[a][c]] for a in (a0, a1) for c in (c0, c1))
                tables.append([orbit_of[s00[r00], s01[r01], s10[r10], s11[r11]]
                               for r00, r01, r10, r11 in reps])
            t_moves.append([index[tuple(map(list.__getitem__, tables, t))] for t in tuples])
    out: dict[tuple[int, ...], list[int]] = {}  # orbit sizes by label signs
    for orbit in _orbit_search(len(tuples), t_moves):
        size = sum(prod(map(sizes.__getitem__, tuples[i])) for i in orbit)
        first = {}  # the first tuple carrying each label
        for i in sorted(orbit):
            first.setdefault(tuple(map(signs.__getitem__, tuples[i])), i)
        if len(first) != 1:
            raise OrbitLabelError(size, tuple(
                (GroupElem.from_indices(ctx, tuple(map(reps.__getitem__, tuples[i]))),
                 WeylElem.from_signs(s)) for s, i in list(first.items())[:2]))
        out.setdefault(next(iter(first)), []).append(size)
    return {w: sorted(out.get(w.signs, []), reverse=True) for w in all_weyl_elems(n)}


def _det_sign_counts(ctx: FieldCtx) -> tuple[list[int], list[int]]:
    """c(d, +1) and c(d, -1) by determinant index d from the q^2 entries of
    the multiplication table: c(d, +1) = q #{(a, e) : a e = d}, and c(d, -1)
    is the sum over x of #{(a, e) : a e = x} #{(b != 0, c) : b c = x - d}."""
    q, add, neg = ctx.q, ctx._add, ctx._neg
    products = Counter(chain.from_iterable(ctx._mul))  # (a, e) by a e
    skew = Counter(chain.from_iterable(ctx._mul[1:]))  # (b, c), b != 0, by b c
    plus = [q * products[d] for d in range(q)]
    minus = [sum(products[x] * skew[add[x][neg[d]]] for x in range(q)) for d in range(q)]
    return plus, minus


def bruhat_census(ctx: FieldCtx, n: int, bound: int = DEFAULT_ENUM_BOUND) -> list[int]:
    """Cell sizes of the Bruhat partition of G by length, without enumerating
    G: g is in the cell of w iff each factor i has sign w_i, and its factors
    share one determinant d, so the cell holds the sum over d of the product
    over i of c(d, w_i).  That depends on w only through l(w): entry l is the
    sum over d of c(d, +1)^(n - l) c(d, -1)^l, for l = 0, ..., n."""
    refuse_above(bound, "census row terms", 2, n, ctx.q - 1)
    refuse_above(bound, "2x2 matrix scan", ctx.q, 4)
    plus, minus = _det_sign_counts(ctx)
    return [sum(plus[d] ** (n - length) * minus[d] ** length for d in range(1, ctx.q))
            for length in range(n + 1)]
