"""Small independent oracles used to freeze expected values in the tests.

These deliberately avoid the library's own code paths: polynomial division
is schoolbook, products in F_{p^k} are schoolbook polynomial products
reduced by that division, ranks come from elimination without back
substitution, wedge coordinates come from cofactor-expanded minors,
vanishing orders come from multiplying out chart substitutions on FieldElem
objects, a zip block's point of P^1 comes from 2x2 determinants of its two
lines, Bruhat cell sizes come from enumerating the whole group, 2x2 matrix
products are schoolbook sums on FieldElem rows, products of polynomials
are schoolbook sums on FieldElem term dicts, a point of P^1 is normalized
by FieldElem division, and a table's text is one dict per row through
``json.dumps`` or one tab-joined line per row.

Three are references rather than independent paths.  One is the Hodge level
as the definition gives it, the least pivot count over the terms of the
wedge of adapted rows, on the library's wedge kernel (which the tests check
against cofactor minors), with a zip's lines placed in F^(2n) by
``line_in_block`` (``hodge_span``, ``conj_rows``); the program takes one 2x2
determinant per block instead.  The other is the orbit partition of the
whole enumerated group under the acting pairs, on the library's integer 2x2
products; the program searches one factor's unipotent orbits and then the
coupled torus instead.  The third is one scan of the q^4 2x2 matrices by
determinant and sign, on the library's ``det_2x2``; the program reads those
counts off the multiplication table, and takes a cell's Weyl lift as its
first element.

``line_in_block`` (a zip's line as a ``Subspace`` of F^(2n)) and ``zip_act``
(a pair acting on an element) are here rather than in the package because
no command calls them; only these references and the tests do.
"""

import json
from collections import Counter
from functools import cache
from itertools import chain, combinations, product

from hilbhasse.errors import DEFAULT_ENUM_BOUND, refuse_above
from hilbhasse.field import FieldCtx
from hilbhasse.linalg import Subspace, _wedge_terms
from hilbhasse.record import FrozenRecord
from hilbhasse.schubert import GroupElem, bruhat_word, det_2x2, mul_2x2, stratum_label
from hilbhasse.weyl import WeylElem
from hilbhasse.zipgroup import OrbitLabelError, enumerate_G
from hilbhasse.zips import HilbertZip


def poly_divmod(a, b, p):
    """Schoolbook division of coefficient lists (low degree first) over F_p.

    b must have an invertible leading coefficient.  Returns (quotient,
    remainder) as trimmed lists.
    """
    a = [x % p for x in a]
    b = [x % p for x in b]
    while b and b[-1] == 0:
        b.pop()
    lead_inv = pow(b[-1], p - 2, p) if b[-1] != 1 else 1
    q = [0] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        shift = len(r) - len(b)
        factor = (r[-1] * lead_inv) % p
        q[shift] = factor
        for i, c in enumerate(b):
            r[shift + i] = (r[shift + i] - factor * c) % p
    while r and r[-1] == 0:
        r.pop()
    return q, r


def poly_mul_mod(a, b, modulus, p):
    """The product of coefficient lists a and b (low degree first) over F_p,
    reduced modulo ``modulus``: a schoolbook double sum, then poly_divmod.
    Returns the trimmed remainder."""
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return poly_divmod(prod, modulus, p)[1]


def naive_rank(rows):
    """Rank by forward elimination only, over any exact field elements."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][c].inverse()
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def mat_mul_2x2(x, y):
    """Schoolbook product of two 2x2 matrices given as rows of FieldElem."""
    return tuple(tuple(x[r][0] * y[0][c] + x[r][1] * y[1][c] for c in (0, 1))
                 for r in (0, 1))


def is_rref_basis_of(rows, basis):
    """True iff basis is in reduced row echelon form (each row led by a one
    whose column is zero in every other row, leads moving right) and spans
    the same space as rows, by ranks from ``naive_rank``."""
    leads = []
    for row in basis:
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None or row[lead] != row[lead].ctx.one() or leads and lead <= leads[-1]:
            return False
        leads.append(lead)
    if any(other[c] for c, row in zip(leads, basis) for other in basis if other is not row):
        return False
    return naive_rank(list(rows) + list(basis)) == naive_rank(rows) == len(basis)


def cofactor_det(rows):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = None
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        return rows[0][0] - rows[0][0]  # zero of the right field
    return acc


def wedge_coords_by_minors(vectors, n):
    """Coordinates of v_1 ^ ... ^ v_n as minors, in colexicographic subset
    order over {0, ..., 2n-1}."""
    subsets = sorted(combinations(range(2 * n), n), key=lambda s: tuple(reversed(s)))
    coords = []
    for subset in subsets:
        coords.append(cofactor_det([[v[c] for c in subset] for v in vectors]))
    return coords


def adapted_row(omega, row):
    """A vector's coordinates (element indices) in the basis that ``induced_filtration``
    builds from: its entries at omega's pivots, its residual modulo omega elsewhere."""
    coords = omega.reduce(row)
    for p in omega.pivots:
        if row[p]:  # so reduce eliminated at p, into a list of its own
            coords[p] = row[p]
    return coords


def least_pivot_count(pivot_mask, terms, n):
    """The least number of pivots (the bits of ``pivot_mask``) in a nonzero
    term of a wedge of n adapted rows, or n if the wedge is 0."""
    return min([(mask & pivot_mask).bit_count() for mask in terms], default=n)


def filtration_level(omega, rows):
    """Largest m such that the wedge of n vectors (element indices) lies in
    ``induced_filtration(omega, m)``, omega n-dim in F^(2n), or n if it is 0:
    the least pivot count over the terms of the wedge of their adapted rows."""
    n = omega.dim
    if omega.ambient_dim != 2 * n or len(rows) != n:
        raise ValueError("need n vectors and an n-dim subspace of F^(2n)")
    terms = _wedge_terms([adapted_row(omega, r) for r in rows], omega.ctx)
    return least_pivot_count(sum(1 << p for p in omega.pivots), terms, n)


def line_in_block(ctx, n, block, local):
    """The line of F^(2n) spanned by a nonzero 2-vector placed in the given
    block, with its pivot at the block's first nonzero coordinate: the
    normalized pair, placed in its block, is the reduced row echelon basis."""
    if not 0 <= block < n:
        raise ValueError("block index out of range")
    [(a, b)] = ctx.lines_of([local])
    vec = [0] * (2 * n)
    vec[2 * block], vec[2 * block + 1] = a, b
    return Subspace(ctx, 2 * n, (tuple(vec),), (2 * block if a else 2 * block + 1,))


def _block_lines(z, pairs):
    """Line i of ``pairs`` placed in block i of F^(2n) by ``line_in_block``."""
    ctx = z.ctx
    return [line_in_block(ctx, z.n, i, [ctx.from_index(x) for x in pair])
            for i, pair in enumerate(pairs)]


def hodge_span(z):
    """The total Hodge subspace of a zip: the span of its Omega lines.  Each
    line's basis row is normalized at its pivot and the supports are
    disjoint, so the rows stacked in block order are already the span's
    reduced row echelon basis."""
    lines = _block_lines(z, z.omega)
    return Subspace(z.ctx, 2 * z.n, tuple(line.index_basis[0] for line in lines),
                    tuple(line.pivots[0] for line in lines))


def conj_rows(z):
    """The basis rows (element indices) of a zip's conjugate lines in F^(2n)."""
    return [line.index_basis[0] for line in _block_lines(z, z.conj)]


def block_point_and_sign(ctx, omega_pair, conj_pair):
    """A zip block as a point of P^1 and a sign, from the index pairs (a, b)
    of omega_i and (x, y) of c_i on the field's tables: the pair
    [det(c_i, omega_i) : det(e_i, c_i)], where e_i is the first standard
    vector of the block off Omega_i, and the sign +1 iff det(c_i, omega_i) =
    0.  Nothing here reads the Hasse flags."""
    add, mul, neg = ctx._add, ctx._mul, ctx._neg
    a, b = omega_pair
    x, y = conj_pair
    d = add[mul[x][b]][neg[mul[y][a]]]
    # Omega_i is normalized: index 1 is the field's one
    e_det_c = neg[x] if (a, b) == (1, 0) else y
    return (ctx.from_index(d), ctx.from_index(e_det_c)), 1 if d == 0 else -1


def normalized_pair(ctx, u, v):
    """The element indices of the normalized pair of [u : v] in FieldElem
    arithmetic: (1, v / u) if u != 0, else (0, 1).  u and v are coerced by
    calling the context, u first; both zero raises ValueError."""
    u, v = ctx(u), ctx(v)
    if u:
        return 1, (v / u).index
    if v:
        return 0, 1
    raise ValueError("both coordinates are zero")


def _two_walk_check_lines(name, lines, n):
    if not isinstance(lines, list) or len(lines) != n:
        raise ValueError(f"{name!r} must be a list of {n} coordinate pairs")
    for i, pair in enumerate(lines):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"{name}[{i}] must be a pair of field elements")
        for c in pair:
            if not (type(c) is int or isinstance(c, list) and {int}.issuperset(map(type, c))):
                raise ValueError(f"{name}[{i}] holds {c!r}, not an int or a list of ints")


def two_walk_zip_from_json_obj(obj):
    """The zip of a zip-check request, parsed with every coefficient list
    walked twice: once for its types, then once more by ``index_of``.  The
    checks run in the program's order, so the first error is the same."""
    if not isinstance(obj, dict):
        raise ValueError("a zip must be a JSON object")
    for key in ("p", "n", "omega", "conj"):
        if key not in obj:
            raise ValueError(f"zip is missing {key!r}")
    p, k, n = obj["p"], obj.get("k", 1), obj["n"]
    for key, value in (("p", p), ("k", k), ("n", n)):
        if type(value) is not int:
            raise ValueError(f"{key!r} must be an integer, got {value!r}")
    if n < 1:
        raise ValueError(f"'n' must be at least 1, got {n}")
    _two_walk_check_lines("omega", obj["omega"], n)
    _two_walk_check_lines("conj", obj["conj"], n)
    ctx = FieldCtx(p, k)
    pairs = ctx.lines_of(obj["omega"] + obj["conj"])
    refuse_above(DEFAULT_ENUM_BOUND, "conjugate-wedge expansion", 2, n)
    return HilbertZip(ctx, n, pairs[:n], pairs[n:])


def render_table(fmt, fields, rows, tail=(), **extra):
    """A table's text as the CLI writes it, one dict or line per row: in json
    the list of row dicts under "rows" beside the ``extra`` keys, or the bare
    list without them, encoded with sorted keys; in tsv the fields, each
    row's entries joined by tabs, then the tail lines.  ``rows`` are tuples
    over the fields."""
    if fmt == "json":
        table = [dict(zip(fields, r)) for r in rows]
        return json.dumps(dict(extra, rows=table) if extra else table, sort_keys=True) + "\n"
    lines = ["\t".join(fields)] + ["\t".join(map(str, r)) for r in rows] + list(tail)
    return "".join(line + "\n" for line in lines)


class ChartPoly:
    """Schoolbook polynomial in n affine chart variables: a dict from
    exponent tuples to nonzero FieldElem coefficients."""

    def __init__(self, n, terms):
        self.n = n
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def const(cls, n, c):
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n, i, ctx):
        return cls(n, {tuple(int(j == i) for j in range(n)): ctx.one()})

    def __add__(self, other):
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = merged[e] + c if e in merged else c
        return ChartPoly(self.n, merged)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out[key] + c1 * c2 if key in out else c1 * c2
        return ChartPoly(self.n, out)


def term_product(f, g):
    """Schoolbook product of two polynomials given as term dicts, from
    exponent records (one (d0, d1) pair per factor) to FieldElem
    coefficients; zero coefficients are kept."""
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple((a0 + b0, a1 + b1) for (a0, a1), (b0, b1) in zip(e1, e2))
            out[key] = out[key] + c1 * c2 if key in out else c1 * c2
    return out


def _restrict(f, images):
    """Substitute a pair of chart images for every coordinate pair of f,
    a MultiPoly whose terms hold coefficient indices."""
    acc = ChartPoly(f.n, {})
    for exps, coeff in f.terms.items():
        term = ChartPoly.const(f.n, f.ctx.from_index(coeff))
        for (d0, d1), (img0, img1) in zip(exps, images):
            for img in [img0] * d0 + [img1] * d1:
                term = term * img
        acc = acc + term
    return acc


def chart_order_at_point(f, pt):
    """Order of f at a point: x0 -> 1, x1 -> v + w_i where u != 0, and
    x0 -> w_i, x1 -> 1 where u == 0; least total degree that survives."""
    ctx, n = f.ctx, f.n
    images = []
    for i, (u, v) in enumerate(pt.coords):
        w, one = ChartPoly.variable(n, i, ctx), ChartPoly.const(n, ctx.one())
        images.append((one, ChartPoly.const(n, v) + w) if u else (w, one))
    restricted = _restrict(f, images)
    return min((sum(e) for e in restricted.terms), default=float("inf"))


def chart_order_on_stratum(f, w):
    """Order of f along the cell of w: [1 : t_i] at -1 entries, [s_i : 1] at
    +1 entries; least total s-degree that survives."""
    ctx, n = f.ctx, f.n
    images = []
    for i, sign in enumerate(w.signs):
        var, one = ChartPoly.variable(n, i, ctx), ChartPoly.const(n, ctx.one())
        images.append((one, var) if sign == -1 else (var, one))
    restricted = _restrict(f, images)
    normal = [i for i, sign in enumerate(w.signs) if sign == 1]
    return min((sum(e[i] for i in normal) for e in restricted.terms), default=float("inf"))


def enumerated_census(ctx, n):
    """Bruhat cell sizes by enumeration: a Counter from each sign vector to
    the number of elements of G whose factors carry those signs."""
    return Counter(bruhat_word(g).signs for g in enumerate_G(ctx, n))


@cache
def det_sign_table(ctx):
    """[c(d, s), first matrix] for each determinant index d and sign s (+1
    iff the top-right entry is 0), from one scan of the q^4 2x2 index
    matrices in ``enumerate_G``'s order, once per field."""
    table = {}
    for f in product(range(ctx.q), repeat=4):
        if det := det_2x2(f, ctx):
            table.setdefault((det, -1 if f[1] else 1), [0, f])[0] += 1
    return table


def scanned_cell_witness(ctx, w):
    """The first element of the cell of w in ``enumerate_G`` order, from the
    scan: the first matrix of sign w_i in each factor, at the least
    determinant index."""
    table = det_sign_table(ctx)
    det = min(d for d, _ in table)
    return GroupElem.from_indices(ctx, tuple(table[det, s][1] for s in w.signs))


def zip_act(e, g):
    """(a, b) . g = a g b^(-1), the action the orbits are taken under."""
    return e.a * g * e.b.inverse()


class OrbitPartition(FrozenRecord):
    """Disjoint orbit classes covering the enumerated group, each with the
    common stratum label of its members."""

    __slots__ = ()
    _fields = ("classes", "labels")

    def __new__(cls, classes: tuple[tuple[GroupElem, ...], ...], labels: tuple[WeylElem, ...]):
        return tuple.__new__(cls, (classes, labels))

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def by_label(self) -> dict[WeylElem, list[tuple[GroupElem, ...]]]:
        out: dict[WeylElem, list[tuple[GroupElem, ...]]] = {}
        for cls, label in zip(self.classes, self.labels):
            out.setdefault(label, []).append(cls)
        return out


def orbit_partition(g_list, e_list):
    """Orbit partition of the enumerated group under the group the acting
    pairs generate, by the standard orbit search over every element (Holt,
    Eick and O'Brien, *Handbook of Computational Group Theory*, 2005, section
    4.1): each element not yet seen starts a class, closed under every pair's
    action, so classes come out ordered by least member.  The inverse of each pair
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
    def action(a, b_inv):
        return [factor_id[mul_2x2(mul_2x2(a, x, mul, add), b_inv, mul, add)] for x in factors]
    moves = []  # each pair's action on g_list indices, factor by factor
    for e in e_list:
        tables = map(action, e.a.index_factors, e.b.inverse().index_factors)
        images = zip(*[map(t.__getitem__, col) for t, col in zip(tables, columns)])
        moves.append(list(map(idx_of.__getitem__, images)))
    sign = [stratum_label(GroupElem.from_indices(ctx, (x,))).signs[0] for x in factors]
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
        by_label = {WeylElem.from_signs(signs): g_list[i] for signs, i in first.items()}
        if len(by_label) != 1:
            raise OrbitLabelError(len(orbit),
                                  tuple((g, w) for w, g in list(by_label.items())[:2]))
        classes.append(tuple(map(g_list.__getitem__, orbit)))
        labels.append(next(iter(by_label)))
    return OrbitPartition(tuple(classes), tuple(labels))
