"""Randomized properties of the integer-index kernels over fields of up to
256 elements, each checked against an oracle that does not share their code
path: ranks by forward elimination, wedges by cofactor minors, vanishing
orders by multiplied-out chart substitutions, and the field axioms element
by element, and group elements on index factors by schoolbook products of
`FieldElem` rows, and filtration levels by a scan of the induced filtration's
pieces or, for block zips moved by a random g in GL_2n, by their planted
Hasse flags, coerced element indices by a scan of the elements' coefficients,
and block lines, points and Hodge spans, built without elimination, by
elimination or by `FieldElem` division.  Every test also runs its F_256
example.  Zip JSON round-trips and the zip-check exit-code contract on
fuzzed input are checked here too, and so is the exit-code contract of all
six commands on fuzzed argv."""

import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hilbhasse.cli as cli_mod
from hilbhasse.cli import _COMMANDS, _factors_json, main
from hilbhasse.field import TABLE_LIMIT, ContextMismatchError, FieldCtx, FieldElem
from hilbhasse.linalg import Subspace, _wedge_terms, induced_filtration, wedge_of_lines
from hilbhasse.schubert import (GroupElem, MultiPoly, PointP1n, bruhat_word, hasse_section,
                                projective_line_reps, stratum_label,
                                vanishing_order_at_point, vanishing_order_on_stratum)
from hilbhasse.weyl import CocharDatum, all_weyl_elems
from hilbhasse.zipgroup import ZipGroupElem, zip_act
from hilbhasse.zips import (HilbertZip, line_in_block, max_hodge_level, zip_from_json_obj,
                            zip_to_json_obj)
from oracles import (block_point_and_sign, chart_order_at_point, chart_order_on_stratum,
                     cofactor_det, filtration_level, hodge_span, is_rref_basis_of, mat_mul_2x2,
                     naive_rank, normalized_pair, term_product, two_walk_zip_from_json_obj,
                     wedge_coords_by_minors)

PRIMES = [p for p in range(2, TABLE_LIMIT + 1) if all(p % d for d in range(2, p))]
FIELDS = [(p, k) for p in PRIMES for k in range(1, 9) if p ** k <= TABLE_LIMIT]
F256 = FieldCtx(2, 8)

# Fixed example counts keep the suite's run time steady; derandomize makes
# every run draw the same examples, and no example database is written.
PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)

fields = st.sampled_from(FIELDS).map(lambda pk: FieldCtx(*pk))


def elements(ctx, nonzero=False):
    """Field elements, with zero and one drawn as often as all the others
    together, so vectors are often sparse and echelon forms structured."""
    low = 1 if nonzero else 0
    return st.one_of(st.integers(low, 1), st.integers(low, ctx.q - 1)).map(ctx.from_index)


def _combination(ctx, coeffs, seeds):
    return [sum((c * s[j] for c, s in zip(coeffs, seeds)), ctx.zero())
            for j in range(len(seeds[0]))]


@st.composite
def matrices(draw, ctx=None, max_rows=5, ncols=None):
    """Rows over a random field; half the draws are combinations of fewer
    random rows, so low ranks are common even over large fields."""
    ctx = ctx or draw(fields)
    nrows = draw(st.integers(1, max_rows))
    ncols = ncols or draw(st.integers(1, 6))
    vector = st.lists(elements(ctx), min_size=ncols, max_size=ncols)
    if not draw(st.booleans()):
        return ctx, draw(st.lists(vector, min_size=nrows, max_size=nrows))
    seeds = draw(st.lists(vector, min_size=1, max_size=max(1, nrows - 1)))
    rows = []
    for _ in range(nrows):
        coeffs = draw(st.lists(elements(ctx), min_size=len(seeds), max_size=len(seeds)))
        rows.append(_combination(ctx, coeffs, seeds))
    return ctx, rows


def f256_rows():
    u = F256.gen()
    return F256, [[u, u * u, F256.one()], [u ** 3, u ** 4, u], [F256.zero(), u ** 200, u ** 7]]


@PROPERTY
@given(matrices())
@example(f256_rows())
def test_rref_rank_matches_naive_rank(m):
    ctx, rows = m
    span = Subspace.from_vectors(ctx, len(rows[0]), rows)
    assert span.dim == naive_rank(rows)
    assert is_rref_basis_of(rows, span.basis)
    assert Subspace.from_vectors(ctx, span.ambient_dim, span.basis) == span


@st.composite
def row_operations(draw, nrows):
    """A sequence of (kind, i, j) invertible row operations; the test
    draws the factor of a scaling or an addition."""
    ops = []
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        ops.append((draw(st.sampled_from(["swap", "scale", "add"])), i, j))
    return ops


@PROPERTY
@given(st.data())
def test_canonical_basis_ignores_invertible_row_operations(data):
    ctx, rows = data.draw(st.one_of(st.just(f256_rows()), matrices()))
    transformed = [list(r) for r in rows]
    for kind, i, j in data.draw(row_operations(len(rows))):
        if kind == "swap":
            transformed[i], transformed[j] = transformed[j], transformed[i]
        elif kind == "scale":
            f = data.draw(elements(ctx, nonzero=True))
            transformed[i] = [f * x for x in transformed[i]]
        elif i != j:
            f = data.draw(elements(ctx))
            transformed[i] = [x + f * y for x, y in zip(transformed[i], transformed[j])]
    ncols = len(rows[0])
    original = Subspace.from_vectors(ctx, ncols, rows)
    again = Subspace.from_vectors(ctx, ncols, transformed)
    assert again == original and again.basis == original.basis
    assert original.dim == naive_rank(rows)


@st.composite
def subspace_pairs(draw):
    """Two row sets of one width; each row of the second is, at random, a
    combination of the first or a free vector, so containment holds in a
    good share of draws and can fail at any row."""
    ctx, outer = draw(matrices())
    ncols = len(outer[0])
    inner = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            coeffs = draw(st.lists(elements(ctx), min_size=len(outer), max_size=len(outer)))
            inner.append([sum((c * r[j] for c, r in zip(coeffs, outer)), ctx.zero())
                          for j in range(ncols)])
        else:
            inner.append(draw(st.lists(elements(ctx), min_size=ncols, max_size=ncols)))
    return ctx, outer, inner


@PROPERTY
@given(subspace_pairs())
@example((F256, f256_rows()[1][:2], [f256_rows()[1][0]]))
@example((F256, f256_rows()[1][:2], [f256_rows()[1][2]]))
def test_contains_agrees_with_stacked_rank(pair):
    ctx, outer, inner = pair
    ncols = len(outer[0])
    big = Subspace.from_vectors(ctx, ncols, outer)
    small = Subspace.from_vectors(ctx, ncols, inner)
    expected = naive_rank(outer + inner) == naive_rank(outer)
    assert big.contains(small) == expected


@st.composite
def block_lines(draw):
    """n in 1..3 lines, line i spanned by a nonzero pair in block i."""
    ctx = draw(fields)
    n = draw(st.integers(1, 3))
    pair = st.tuples(elements(ctx), elements(ctx)).filter(any)
    return ctx, draw(st.lists(pair, min_size=n, max_size=n))


@PROPERTY
@given(block_lines())
@example((F256, [(F256.gen(), F256.one()), (F256.one(), F256.gen() ** 9)]))
def test_wedge_of_lines_matches_minors(lines):
    ctx, pairs = lines
    n = len(pairs)
    vectors = []
    for i, (a, b) in enumerate(pairs):
        v = [ctx.zero()] * (2 * n)
        v[2 * i], v[2 * i + 1] = a, b
        vectors.append(v)
    wedge = wedge_of_lines([Subspace.from_vectors(ctx, 2 * n, [v]) for v in vectors])
    oracle = wedge_coords_by_minors(vectors, n)
    assert wedge == Subspace.from_vectors(ctx, comb(2 * n, n), [oracle])


@st.composite
def wedge_cases(draw, ctx=None):
    """r <= d vectors of F^d, d = 2n with n <= 3, entries uniform, so the
    supports interleave in any order; each vector after the first is a
    combination of the ones before it a quarter of the time."""
    ctx = ctx or draw(fields)
    d = 2 * draw(st.integers(1, 3))
    entry = st.integers(0, ctx.q - 1).map(ctx.from_index)
    rows = []
    for _ in range(draw(st.integers(1, d))):
        if rows and not draw(st.integers(0, 3)):
            coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
            rows.append(_combination(ctx, coeffs, rows))
        else:
            rows.append(draw(st.lists(entry, min_size=d, max_size=d)))
    return ctx, rows


@PROPERTY
@given(st.one_of(wedge_cases(), wedge_cases(F256)))
def test_wedge_terms_are_the_minors(case):
    # every sign of the expansion is exercised: no sweep zip reaches an odd
    # one, since each adapted row of a block zip lands above its prefix
    ctx, rows = case
    r, d = len(rows), len(rows[0])
    terms = _wedge_terms([[e.index for e in v] for v in rows], ctx)
    minors = {sum(1 << c for c in cols): cofactor_det([[v[c] for c in cols] for v in rows])
              for cols in combinations(range(d), r)}
    assert terms == {mask: x.index for mask, x in minors.items() if x}
    assert (terms == {}) == (naive_rank(rows) < r)


@PROPERTY
@given(st.data())
def test_top_filtration_piece_matches_minors(data):
    # omega in general position forces the sign bookkeeping of the expansion
    ctx = data.draw(st.one_of(st.just(F256), fields))
    n = data.draw(st.integers(1, 3))
    vector = st.lists(elements(ctx), min_size=2 * n, max_size=2 * n)
    rows = data.draw(st.lists(vector, min_size=n, max_size=n)
                     .filter(lambda rs: naive_rank(rs) == n))
    omega = Subspace.from_vectors(ctx, 2 * n, rows)
    oracle = wedge_coords_by_minors(rows, n)
    assert induced_filtration(omega, n) == Subspace.from_vectors(ctx, comb(2 * n, n), [oracle])


@st.composite
def level_cases(draw):
    """An n-dim omega of F^(2n), n in 2..3, and n vectors, each drawn freely,
    inside omega, or as a combination of the vectors before it (so the wedge
    is often 0); every line of F^2 is a block line, so n = 1 is left out."""
    ctx = draw(fields)
    n = draw(st.integers(2, 3))
    vector = st.lists(elements(ctx), min_size=2 * n, max_size=2 * n)
    omega_rows = draw(st.lists(vector, min_size=n, max_size=n)
                      .filter(lambda rs: naive_rank(rs) == n))
    rows = []
    for _ in range(n):
        seeds = draw(st.sampled_from([None, omega_rows, rows]))
        if not seeds:
            rows.append(draw(vector))
            continue
        coeffs = draw(st.lists(elements(ctx), min_size=len(seeds), max_size=len(seeds)))
        rows.append(_combination(ctx, coeffs, seeds))
    return ctx, omega_rows, rows


def f256_level_case(dependent):
    u, one, zero = F256.gen(), F256.one(), F256.zero()
    omega_rows = [[one, u, zero, u ** 2, one, zero], [zero, one, u ** 3, one, zero, u],
                  [u, zero, one, zero, u ** 5, one]]
    inside = _combination(F256, [u ** 7, one, zero], omega_rows)
    free = [u ** 11, zero, one, u, zero, u ** 40]
    last = _combination(F256, [u, u ** 3], [inside, free]) if dependent \
        else [zero, u ** 9, zero, one, one, zero]
    return F256, omega_rows, [inside, free, last]


@PROPERTY
@given(level_cases())
@example(f256_level_case(dependent=False))
@example(f256_level_case(dependent=True))
def test_filtration_level_matches_induced_filtration(case):
    # omega has a basis row meeting two blocks, so it is no span of block
    # lines; the oracle wedges by minors and scans the memoized pieces
    ctx, omega_rows, rows = case
    n = len(rows)
    omega = Subspace.from_vectors(ctx, 2 * n, omega_rows)
    assume(any(len({j // 2 for j, x in enumerate(r) if x}) > 1 for r in omega.index_basis))
    wedge = Subspace.from_vectors(ctx, comb(2 * n, n), [wedge_coords_by_minors(rows, n)])
    expected = max(m for m in range(n + 1) if induced_filtration(omega, m).contains(wedge))
    level = filtration_level(omega, [[e.index for e in r] for r in rows])
    assert level == expected
    if naive_rank(rows) < n:
        assert level == n


@st.composite
def moved_block_zips(draw, ctx=None):
    """A block zip with n <= 8 and planted flags, as indices of its lines in
    ``projective_line_reps``, and a random g in GL_2n(F_q) as P L U: a
    permutation, then a lower unitriangular and an upper triangular matrix
    with nonzero diagonal, entries uniform."""
    ctx = ctx or draw(fields)
    n, q = draw(st.integers(1, 8)), ctx.q
    omega = draw(st.lists(st.integers(0, q), min_size=n, max_size=n))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    conj = [o if f else (o + draw(st.integers(1, q))) % (q + 1) for o, f in zip(omega, flags)]
    entry, unit = st.integers(0, q - 1), st.integers(1, q - 1)
    d, one, zero = 2 * n, ctx.one(), ctx.zero()
    lower = [[ctx.from_index(draw(entry)) if c < r else one if c == r else zero
              for c in range(d)] for r in range(d)]
    upper = [[ctx.from_index(draw(unit if c == r else entry)) if c >= r else zero
              for c in range(d)] for r in range(d)]
    return ctx, omega, conj, flags, (draw(st.permutations(range(d))), lower, upper)


def _moved(ctx, g, v):
    """g v for g = P L U, by FieldElem products."""
    perm, lower, upper = g
    for m in (upper, lower):
        v = [sum((a * x for a, x in zip(row, v)), ctx.zero()) for row in m]
    return [v[i] for i in perm]


@PROPERTY
@given(st.one_of(moved_block_zips(), moved_block_zips(F256)))
def test_filtration_level_of_a_moved_block_zip_is_its_hasse_order(case):
    # the level is linear algebra, so any g in GL_2n keeps it; on the moved
    # zip the rows are dense, and the planted flags give the answer, which
    # the unmoved zip's sum of block levels must give too
    ctx, omega, conj, flags, g = case
    n, reps = len(omega), projective_line_reps(ctx)
    omega_lines = [line_in_block(ctx, n, i, reps[j]) for i, j in enumerate(omega)]
    conj_lines = [line_in_block(ctx, n, i, reps[j]) for i, j in enumerate(conj)]
    moved_omega = Subspace.from_vectors(ctx, 2 * n,
                                        [_moved(ctx, g, line.basis[0]) for line in omega_lines])
    moved_conj = [[e.index for e in _moved(ctx, g, line.basis[0])] for line in conj_lines]
    assert filtration_level(moved_omega, moved_conj) == sum(flags)
    omega_pairs = ctx.lines_of([reps[j] for j in omega])
    conj_pairs = ctx.lines_of([reps[j] for j in conj])
    assert max_hodge_level(HilbertZip(ctx, n, omega_pairs, conj_pairs)) == sum(flags)
    pairs = [block_point_and_sign(ctx, o, c)[0] for o, c in zip(omega_pairs, conj_pairs)]
    assert vanishing_order_at_point(hasse_section(ctx, n), PointP1n(ctx, pairs)) == sum(flags)


@PROPERTY
@given(st.data())
def test_field_axioms_on_random_triples(data):
    ctx = data.draw(st.one_of(st.just(F256), fields))
    x, y, z = (data.draw(elements(ctx)) for _ in range(3))
    zero, one = ctx.zero(), ctx.one()
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and x - x == zero and -x + x == zero
    assert (x - y) + y == x
    if y:
        assert y * y.inverse() == one and (x / y) * y == x
    assert (x * y).frobenius() == x.frobenius() * y.frobenius()
    assert (x + y).frobenius() == x.frobenius() + y.frobenius()
    assert x.frobenius() == x ** ctx.p


def coercible(ctx):
    """Values ``ctx`` coerces: ints of any sign and size, lists of at most k
    coefficients of any size (so short and full lists), and elements."""
    return st.one_of(st.integers(), st.integers(-1, 1),
                     st.lists(st.integers(), max_size=ctx.k), elements(ctx))


def index_by_coefficients(ctx, value):
    """The index of the element whose coefficients are those of ``value``
    reduced mod p and padded with zeros, found by a scan of the elements."""
    if isinstance(value, FieldElem):
        coeffs = value.coeffs
    else:
        coeffs = [value] if isinstance(value, int) else value
    padded = tuple(c % ctx.p for c in coeffs) + (0,) * (ctx.k - len(coeffs))
    return next(e.index for e in ctx.elements() if e.coeffs == padded)


@st.composite
def coercible_values(draw):
    ctx = draw(fields)
    return ctx, draw(coercible(ctx))


@PROPERTY
@given(coercible_values())
@example((F256, -2 ** 70 - 1))
@example((F256, [1, -1, 2 ** 70 + 1]))
@example((F256, [1, 0, 1, 1, 0, 0, 0, 1]))
@example((F256, F256.gen() ** 200))
def test_index_of_matches_coercion_and_coefficients(case):
    ctx, value = case
    assert ctx.index_of(value) == ctx(value).index == index_by_coefficients(ctx, value)
    with pytest.raises(ValueError):
        ctx.index_of([0] * (ctx.k + 1))
    foreign = FieldCtx(3) if ctx.p == 2 else FieldCtx(2)
    with pytest.raises(ContextMismatchError):
        ctx.index_of(foreign.one())


def det2(m):
    (a, b), (c, d) = m
    return a * d - b * c


def invertible_matrices(ctx):
    """Invertible 2x2 matrices as two rows of field elements."""
    return (st.lists(elements(ctx), min_size=4, max_size=4)
            .filter(lambda e: e[0] * e[3] != e[1] * e[2])
            .map(lambda e: ((e[0], e[1]), (e[2], e[3]))))


@st.composite
def factor_lists(draw, ctx=None, n=None, equal_dets=None):
    """n <= 3 invertible 2x2 matrices over one field.  With equal
    determinants (half the draws unless fixed) every first row is rescaled
    to the first factor's determinant."""
    ctx = ctx or draw(fields)
    n = n or draw(st.integers(1, 3))
    factors = draw(st.lists(invertible_matrices(ctx), min_size=n, max_size=n))
    if equal_dets is None:
        equal_dets = draw(st.booleans())
    if equal_dets:
        target = det2(factors[0])
        factors = [(tuple(target / det2(f) * e for e in f[0]), f[1]) for f in factors]
    return factors


def plain_product(ctx, factors):
    """A tuple of invertible factors, determinants equal or not, built
    unchecked as an element of the plain product of 2x2 groups."""
    return GroupElem.from_indices(ctx, tuple(tuple(ctx.index_of(e) for row in f for e in row)
                                             for f in factors))


@st.composite
def group_pairs(draw, ctx=None):
    """Two tuples with the same field and factor count; each is built by the
    checked constructor when its determinants are equal, else by
    ``plain_product``."""
    ctx = ctx or draw(fields)
    first = draw(factor_lists(ctx))
    second = draw(factor_lists(ctx, len(first)))
    return tuple(GroupElem(ctx, fs) if len({det2(f) for f in fs}) == 1 else plain_product(ctx, fs)
                 for fs in (first, second))


def f256_group_pair():
    """Determinants u^7 and u^253: a product of plain-product tuples."""
    u = F256.gen()
    g = plain_product(F256, [[[u, 1], [u ** 7, 0]], [[0, u ** 3], [u ** 250, u]]])
    h = GroupElem(F256, [[[u ** 9, 0], [1, u ** 2]], [[1, 1], [0, u ** 11]]])
    return g, h


@PROPERTY
@given(st.one_of(group_pairs(), group_pairs(F256)))
@example(f256_group_pair())
def test_group_products_and_inverses_match_matrix_products(pair):
    g, h = pair
    ctx, n = g.ctx, g.n
    assert (g * h).factors == tuple(map(mat_mul_2x2, g.factors, h.factors))
    assert all(mat_mul_2x2(x, y) == eye(ctx) for x, y in zip(g.factors, g.inverse().factors))
    assert g * g.inverse() == g.inverse() * g == GroupElem.identity(ctx, n)
    assert g.inverse().inverse() == g


@PROPERTY
@given(st.one_of(group_pairs(), group_pairs(F256)))
@example(f256_group_pair())
def test_bruhat_word_and_stratum_label_match_matrix_entries(pair):
    for g in pair:
        ctx = g.ctx
        assert bruhat_word(g).signs == tuple(1 if not f[0][1] else -1 for f in g.factors)
        # z is the longest element, lifted to [[0, 1], [-1, 0]] in every factor
        s = ((ctx.zero(), ctx.one()), (-ctx.one(), ctx.zero()))
        datum = CocharDatum.split(g.n, ctx.p)
        assert GroupElem.weyl_lift(ctx, datum.z).factors == (s,) * g.n
        label = stratum_label(g, datum)
        assert label.signs == tuple(1 if not mat_mul_2x2(f, s)[0][1] else -1 for f in g.factors)


@st.composite
def zip_actions(draw, ctx=None):
    """A Frobenius-coupled Borel pair e = (a, b) and an element g of G over
    one field, n <= 3: a lower triangular, b upper with the entrywise p-th
    power of a's diagonal, all factors of a of one determinant."""
    ctx = ctx or draw(fields)
    g = GroupElem(ctx, draw(factor_lists(ctx, equal_dets=True)))
    det = draw(elements(ctx, nonzero=True))
    a_factors, b_factors = [], []
    for _ in range(g.n):
        d0 = draw(elements(ctx, nonzero=True))
        d1 = det / d0
        a_factors.append([[d0, 0], [draw(elements(ctx)), d1]])
        b_factors.append([[d0.frobenius(), draw(elements(ctx))], [0, d1.frobenius()]])
    return ZipGroupElem(GroupElem(ctx, a_factors), GroupElem(ctx, b_factors)), g


@PROPERTY
@given(st.one_of(zip_actions(), zip_actions(F256)))
def test_stratum_label_is_constant_along_zip_orbits(case):
    # a g b^(-1) z = a (g z) (z^(-1) b^(-1) z), and the last factor is lower
    # triangular, so the action keeps the label; the orbit-stabilizer law of
    # criterion 6 checks the orbit sizes, which this cannot see
    e, g = case
    datum = CocharDatum.split(g.n, g.ctx.p)
    assert stratum_label(zip_act(e, g), datum) == stratum_label(g, datum)


@st.composite
def group_elems(draw, ctx=None):
    """An element of G with n <= 4 factors over one field."""
    ctx = ctx or draw(fields)
    return GroupElem(ctx, draw(factor_lists(ctx, draw(st.integers(1, 4)), equal_dets=True)))


@PROPERTY
@given(st.one_of(group_elems(), group_elems(F256)))
@example(f256_group_pair()[1])
def test_stratum_label_is_the_tuple_of_one_factor_labels(g):
    # orbits labels each element from a table of its factors' one-factor
    # labels, which rests on z, products and Bruhat signs all being factorwise
    ctx = g.ctx
    one = CocharDatum.split(1, ctx.p)
    signs = tuple(stratum_label(GroupElem.from_indices(ctx, (f,)), one).signs[0]
                  for f in g.index_factors)
    assert signs == stratum_label(g, CocharDatum.split(g.n, ctx.p)).signs


def as_rows(ctx, m):
    """A 2x2 matrix given by rows of values ``ctx`` coerces, as rows of elements."""
    return tuple(tuple(map(ctx, row)) for row in m)


def eye(ctx):
    return as_rows(ctx, [[1, 0], [0, 1]])


@st.composite
def invalid_factor_cases(draw, ctx=None):
    """Equal-determinant factors, a singular matrix and where to insert it,
    and a scalar that breaks the determinant condition unless it is 1."""
    ctx = ctx or draw(fields)
    factors = draw(factor_lists(ctx, equal_dets=True))
    a, b, t = (draw(elements(ctx)) for _ in range(3))
    singular = ((a, b), (t * a, t * b))
    where = draw(st.integers(0, len(factors)))
    return ctx, factors, singular, where, draw(elements(ctx, nonzero=True))


def f256_invalid_case():
    u = F256.gen()
    factors = [as_rows(F256, [[u, 0], [1, u ** 4]]), as_rows(F256, [[0, u ** 5], [1, 1]])]
    return F256, factors, as_rows(F256, [[u, u ** 2], [u ** 3, u ** 4]]), 1, u ** 30


@PROPERTY
@given(st.one_of(invalid_factor_cases(), invalid_factor_cases(F256)))
@example(f256_invalid_case())
def test_group_elem_refuses_singular_factors_and_unequal_determinants(case):
    ctx, factors, singular, where, scale = case
    assert GroupElem(ctx, factors).factors == tuple(factors)
    with pytest.raises(ValueError, match="singular"):
        GroupElem(ctx, factors[:where] + [singular] + factors[where:])
    f = factors[-1]
    rescaled = factors[:-1] + [(tuple(scale * e for e in f[0]), f[1])]
    if len(factors) > 1 and scale != 1:
        with pytest.raises(ValueError, match="determinants differ"):
            GroupElem(ctx, rescaled)


F2, F4 = FieldCtx(2), FieldCtx(2, 2)


@st.composite
def mixed_field_factors(draw):
    """Invertible matrices over F_2 and over F_4, at least one of each, in
    random order."""
    mixed = draw(st.lists(st.sampled_from([F2, F4]), min_size=1, max_size=2))
    mixed = draw(st.permutations(mixed + [F2, F4]))
    return [draw(invertible_matrices(ctx)) for ctx in mixed]


@PROPERTY
@given(mixed_field_factors())
@example([eye(F2), eye(F4)])
@example([eye(F256), eye(F2)])
def test_group_elem_refuses_factors_over_different_fields(factors):
    # the identities share their index factors, so only the field tells them
    # apart; index_of refuses an element of another field under either field
    for ctx in {f[0][0].ctx for f in factors}:
        with pytest.raises(ContextMismatchError):
            GroupElem(ctx, factors)
    by_field = [GroupElem(f[0][0].ctx, [f]) for f in factors[:2]]
    if by_field[0].ctx is not by_field[1].ctx:
        with pytest.raises(ValueError):
            by_field[0] * by_field[1]


@PROPERTY
@given(st.one_of(group_elems(), group_elems(F256)))
@example(f256_group_pair()[1])
def test_group_elem_rebuilds_from_its_replay_factors(g):
    # the replay JSON's factors: coefficient lists, low degree first
    assert GroupElem(FieldCtx(g.ctx.p, g.ctx.k), _factors_json(g)) == g


def points(ctx, n):
    """Normalized points of (P^1)^n: [1 : v] or [0 : 1] in each factor."""
    factor = st.one_of(elements(ctx).map(lambda v: (ctx.one(), v)),
                       st.just((ctx.zero(), ctx.one())))
    return st.lists(factor, min_size=n, max_size=n).map(lambda pairs: PointP1n(ctx, pairs))


@st.composite
def planted_sections(draw):
    """A polynomial in n <= 3 factors with exponents up to 2, not
    necessarily homogeneous, and a point at which cancellation is planted.
    Some terms get a twin of opposite sign that differs only in exponents
    the point's chart sends to 1 (the coordinate x_i0 where the point is
    [1 : v], x_i1 where it is [0 : 1]); twinning every term makes the
    restriction vanish.  Half the draws are also multiplied by
    (x_i1 - v x_i0)^e at a factor [1 : v], whose restriction w^e needs the
    binomial coefficients of (v + w)^e reduced mod p; e <= 3 reaches p
    only in characteristic 2 and 3, so those fields are drawn as often as
    all the others together."""
    ctx = draw(st.one_of(fields.filter(lambda c: c.p <= 3), fields))
    n = draw(st.integers(1, 3))
    pt = draw(points(ctx, n))
    exponent = st.integers(0, 2)
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        exps = [(draw(exponent), draw(exponent)) for _ in range(n)]
        coeff = draw(elements(ctx, nonzero=True))
        terms[tuple(exps)] = terms.get(tuple(exps), ctx.zero()) + coeff
        if draw(st.booleans()):
            i = draw(st.integers(0, n - 1))
            d0, d1 = exps[i]
            if pt.coords[i][0]:
                exps[i] = ((d0 + 1) % 3, d1)
            else:
                exps[i] = (d0, (d1 + 1) % 3)
            terms[tuple(exps)] = terms.get(tuple(exps), ctx.zero()) - coeff
    chart_one = [i for i, (u, _) in enumerate(pt.coords) if u]
    if chart_one and draw(st.booleans()):
        i = draw(st.sampled_from(chart_one))
        x0 = tuple((1, 0) if j == i else (0, 0) for j in range(n))
        x1 = tuple((0, 1) if j == i else (0, 0) for j in range(n))
        line = {x1: ctx.one(), x0: -pt.coords[i][1]}
        for _ in range(draw(st.integers(1, 3))):
            terms = term_product(terms, line)
    f = MultiPoly(ctx, n, terms)
    assume(not f.is_zero())
    return f, [pt] + draw(st.lists(points(ctx, n), max_size=2))


def f256_planted():
    """Over F_256: x10 x21 - x10^2 x21 restricts to 0 wherever the first
    factor is [1 : v], and x11 (x21 - u^9 x20)^2 restricts to (v + w1) w2^2
    at [1 : v] x [1 : u^9], since 2 = 0 in characteristic 2."""
    u, one = F256.gen(), F256.one()
    twins = {((1, 0), (0, 1)): one, ((2, 0), (0, 1)): -one}
    line = {((0, 0), (0, 1)): one, ((0, 0), (1, 0)): -u ** 9}
    x11_line_squared = term_product(term_product({((0, 1), (0, 0)): one}, line), line)
    pts = [PointP1n(F256, [(1, u), (1, u ** 9)]), PointP1n(F256, [(0, 1), (1, u ** 9)])]
    return [(MultiPoly(F256, 2, twins), pts),
            (MultiPoly(F256, 2, {**twins, **x11_line_squared}), pts)]


@st.composite
def monomials(draw):
    """One term with exponents 0..3 in each of n <= 3 factors and a nonzero
    coefficient, over a random field, with one to three random points."""
    ctx = draw(fields)
    n = draw(st.integers(1, 3))
    exponent = st.integers(0, 3)
    exps = tuple((draw(exponent), draw(exponent)) for _ in range(n))
    f = MultiPoly(ctx, n, {exps: draw(elements(ctx, nonzero=True))})
    return f, draw(st.lists(points(ctx, n), min_size=1, max_size=3))


def f256_lone_least():
    """Over F_256: u^200 x10^3 x11 x21^2 has order 3 + 2 at [0 : 1] x [1 : 0];
    in x10 x21 + u x10^2 x21 + u^9 x10 x21^2 there the first term alone has
    the least order 2, and the other two tie at 3."""
    u, one = F256.gen(), F256.one()
    pts = [PointP1n(F256, [(0, 1), (1, 0)]), PointP1n(F256, [(1, u ** 9), (1, 0)]),
           PointP1n(F256, [(1, 0), (0, 1)])]
    monomial = {((3, 1), (0, 2)): u ** 200}
    lone = {((1, 0), (0, 1)): one, ((2, 0), (0, 1)): u, ((1, 0), (0, 2)): u ** 9}
    return [(MultiPoly(F256, 2, monomial), pts), (MultiPoly(F256, 2, lone), pts)]


@PROPERTY
@given(st.one_of(planted_sections(), monomials()))
@example(f256_planted()[0])
@example(f256_planted()[1])
@example(f256_lone_least()[0])
@example(f256_lone_least()[1])
def test_vanishing_orders_match_chart_substitution(case):
    f, pts = case
    for w in all_weyl_elems(f.n):
        assert vanishing_order_on_stratum(f, w) == chart_order_on_stratum(f, w)
    for pt in pts:
        assert vanishing_order_at_point(f, pt) == chart_order_at_point(f, pt)


@st.composite
def zips(draw, ctx=None):
    """A zip over a random field with n <= 3: one random line per block for
    omega and for conj."""
    ctx = ctx or draw(fields)
    n = draw(st.integers(1, 3))
    pair = st.tuples(elements(ctx), elements(ctx)).filter(any)
    omega = ctx.lines_of([draw(pair) for _ in range(n)])
    conj = ctx.lines_of([draw(pair) for _ in range(n)])
    return HilbertZip(ctx, n, omega, conj)


@PROPERTY
@given(st.one_of(zips(), zips(F256)))
def test_zip_json_round_trip(z):
    text = json.dumps(zip_to_json_obj(z))
    assert zip_from_json_obj(json.loads(text)) == z


def nonzero_pairs(ctx):
    """Pairs of coercible values, not both zero."""
    return st.tuples(coercible(ctx), coercible(ctx)).filter(lambda ab: any(map(ctx, ab)))


@st.composite
def placed_pairs(draw):
    """A field, n <= 3, a block and a nonzero pair."""
    ctx = draw(fields)
    n = draw(st.integers(1, 3))
    return ctx, n, draw(st.integers(0, n - 1)), draw(nonzero_pairs(ctx))


@PROPERTY
@given(placed_pairs())
@example((F256, 3, 1, ([1, 0, 1], F256.gen() ** 200)))
@example((F256, 2, 1, ([0, 0], [0, 1])))
def test_line_in_block_is_the_eliminated_span(case):
    ctx, n, block, pair = case
    vec = [0] * (2 * n)
    vec[2 * block], vec[2 * block + 1] = (ctx(x).index for x in pair)
    expected = Subspace.from_index_rows(ctx, 2 * n, [vec])
    line = line_in_block(ctx, n, block, pair)
    assert line == expected and line.pivots == expected.pivots
    with pytest.raises(ValueError):
        line_in_block(ctx, n, block, (ctx.p, [0] * ctx.k))


@st.composite
def point_pairs(draw):
    """A field and the pairs of a point of (P^1)^n, n <= 3."""
    ctx = draw(fields)
    return ctx, draw(st.lists(nonzero_pairs(ctx), min_size=1, max_size=3))


@PROPERTY
@given(point_pairs())
@example((F256, [(F256.gen(), [1, 1]), ([0, 0, 0], 3), (-1, 0)]))
def test_point_coords_are_the_normalized_pairs(case):
    ctx, pairs = case
    one, zero = ctx.one(), ctx.zero()
    expected = []
    for u, v in pairs:
        u, v = ctx(u), ctx(v)
        expected.append((one, v * u.inverse()) if u else (zero, one))
    assert PointP1n(ctx, pairs).coords == tuple(expected)
    with pytest.raises(ValueError):
        PointP1n(ctx, pairs + [(0, [0])])


@PROPERTY
@given(point_pairs())
@example((F256, [(F256.gen(), [1, 1]), ([0, 0, 0], 3), (-1, 0)]))
def test_point_holds_the_normalized_index_pairs(case):
    # the index pairs are the point; the elements, repr and copies are read
    # off them and give what they gave when the point held elements
    ctx, pairs = case
    one, zero = ctx.one(), ctx.zero()
    pt = PointP1n(ctx, pairs)
    assert pt.index_coords == tuple(normalized_pair(ctx, u, v) for u, v in pairs)
    assert pt.n == len(pairs)
    again = PointP1n(ctx, pt.coords)
    assert again == pt and hash(again) == hash(pt)
    shown = []
    for u, v in pairs:
        u, v = ctx(u), ctx(v)
        shown.append(f"[{one!r}:{v * u.inverse()!r}]" if u else f"[{zero!r}:{one!r}]")
    assert repr(pt) == f"PointP1n({'; '.join(shown)})"
    copied = copy.deepcopy(pt)
    assert copied == pt and copied.ctx is ctx and repr(copied) == repr(pt)


def line_values(ctx):
    """Values the pair kernel coerces: those of ``coercible`` and bools."""
    return st.one_of(coercible(ctx), st.booleans())


def line_pair(ctx):
    """A pair of coercible values or bools, not both zero."""
    return st.tuples(line_values(ctx), line_values(ctx)).filter(lambda uv: any(map(ctx, uv)))


@st.composite
def line_pairs(draw):
    """A field and up to four pairs of ``line_pair``."""
    ctx = draw(fields)
    return ctx, draw(st.lists(line_pair(ctx), max_size=4))


@PROPERTY
@given(line_pairs())
@example((F256, [(True, [1, 1]), (-3, 2 ** 70), ([0] * 8, F256.gen()), (False, True)]))
@example((FieldCtx(5), [(-1, 7), (2 ** 70, False), ([0], [3])]))
def test_lines_of_is_the_normalization_in_field_arithmetic(case):
    ctx, pairs = case
    lines = ctx.lines_of(pairs)
    assert lines == tuple(normalized_pair(ctx, u, v) for u, v in pairs)
    assert all(any(line is entry for entry in ctx._lines) for line in lines)


def refused_values(ctx):
    """(value, exception type, message) for values no context coerces, or
    that belong to another field, with the messages ``index_of`` gives."""
    foreign = FieldCtx(3) if ctx.p == 2 else FieldCtx(2)
    return st.sampled_from([
        (1.5, ValueError, f"cannot coerce 1.5 into {ctx!r}"),
        (None, ValueError, f"cannot coerce None into {ctx!r}"),
        ("a", ValueError, "coefficients must be ints, got 'a'"),
        # c % p formats a str or bytes, and a bare "%" is an incomplete format
        ("%", ValueError, "coefficients must be ints, got '%'"),
        (["%"], ValueError, "coefficients must be ints, got ['%']"),
        ([b"%"], ValueError, "coefficients must be ints, got [b'%']"),
        ([None], ValueError, "coefficients must be ints, got [None]"),
        ([1.5], ValueError, "coefficients must be ints, got [1.5]"),
        ([0] * (ctx.k + 1), ValueError, f"expected at most {ctx.k} coefficients"),
        (foreign.one(), ContextMismatchError, "element belongs to a different field"),
    ])


@st.composite
def refused_lines(draw):
    """A field, pairs whose first refused one follows good ones, and the
    exception type and message of that first refusal: a refused u, a
    refused v after a good u, or both coordinates zero."""
    ctx = draw(fields)
    pairs = draw(st.lists(line_pair(ctx), max_size=3))
    value, error, message = draw(refused_values(ctx))
    anything = st.one_of(line_values(ctx), refused_values(ctx).map(lambda r: r[0]))
    zero = st.sampled_from([0, False, [], [0] * ctx.k, ctx.zero(), ctx.p])
    kind = draw(st.sampled_from(["u", "v", "zero"]))
    if kind == "u":
        pairs.append((value, draw(anything)))
    elif kind == "v":
        pairs.append((draw(line_values(ctx)), value))
    else:
        pairs.append((draw(zero), draw(zero)))
        error, message = ValueError, "both coordinates are zero"
    pairs += draw(st.lists(st.tuples(anything, anything), max_size=2))
    return ctx, pairs, error, message


@PROPERTY
@given(refused_lines())
@example((F256, [(1, 1), (0, [0] * 8)], ValueError, "both coordinates are zero"))
@example((F256, [(1, 1), (FieldCtx(2, 4).gen(), 1)], ContextMismatchError,
          "element belongs to a different field"))
@example((F256, [(F256.gen(), FieldCtx(2, 4).gen())], ContextMismatchError,
          "element belongs to a different field"))
def test_lines_of_refuses_the_first_bad_pair_as_index_of_does(case):
    ctx, pairs, error, message = case
    with pytest.raises(error) as exc:
        ctx.lines_of(pairs)
    assert type(exc.value) is error and str(exc.value) == message


@PROPERTY
@given(block_lines())
@example((F256, [(F256.gen(), F256.one()), (F256.zero(), F256.gen() ** 9),
                 (F256.one(), F256.zero())]))
def test_hodge_span_is_the_eliminated_span(lines):
    # the wedge reference's Hodge subspace stacks the placed rows; here the
    # span is built by elimination from the unnormalized pairs instead
    ctx, pairs = lines
    n = len(pairs)
    vectors = []
    for i, (a, b) in enumerate(pairs):
        vec = [ctx.zero()] * (2 * n)
        vec[2 * i], vec[2 * i + 1] = a, b
        vectors.append(vec)
    z = HilbertZip(ctx, n, ctx.lines_of(pairs), [(0, 1)] * n)
    expected = Subspace.from_vectors(ctx, 2 * n, vectors)
    assert hodge_span(z) == expected and hodge_span(z).pivots == expected.pivots


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 9) | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=4),
    max_leaves=10)


@st.composite
def fuzzed_zip_json(draw):
    """Text for zip-check: arbitrary JSON, or a valid zip with one key
    dropped, with one value at any depth replaced by arbitrary JSON, or cut
    short."""
    kind = draw(st.sampled_from(["json", "drop", "replace", "replace", "replace", "cut"]))
    if kind == "json":
        return json.dumps(draw(json_values))
    obj = zip_to_json_obj(draw(zips()))
    text = json.dumps(obj)
    if kind == "cut":
        return text[:draw(st.integers(0, len(text) - 1))]
    key = draw(st.sampled_from(sorted(obj)))
    if kind == "drop":
        del obj[key]
        return json.dumps(obj)
    parent = obj
    while isinstance(parent[key], (list, dict)) and parent[key] and draw(st.booleans()):
        parent = parent[key]
        key = draw(st.sampled_from(sorted(parent) if isinstance(parent, dict)
                                   else range(len(parent))))
    parent[key] = draw(json_values)
    return json.dumps(obj)


# the input space is wide and each example costs about a millisecond
@settings(PROPERTY, max_examples=300)
@given(fuzzed_zip_json())
@example('{"p": 2, "k": 8, "n": 1, "omega": [[[0, 1], [1]]], "conj": [[[1], 0]]}')
@example('{"p": 2, "k": 8, "n": 1, "omega": [[[0, 1], [1]]], "conj": [[0, 0]]}')
@example("[" * 100000 + "]" * 100000)  # deeper than the JSON parser recurses
def test_zip_check_on_fuzzed_json_keeps_the_exit_code_contract(text):
    # an exception escaping main() is what a command-line run prints as a
    # traceback, so calling main() directly checks both halves of the contract
    err = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(io.StringIO()), \
            redirect_stderr(err):
        code = main(["zip-check"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def f16_request(omega, conj, p=2, k=4):
    """zip-check text for one block over F_16 (or the given field)."""
    return json.dumps({"p": p, "k": k, "n": 1, "omega": [omega], "conj": [conj]})


def outcome(parse, obj):
    """The zip a parse returns, or the class and message of what it raises."""
    try:
        return parse(obj)
    except Exception as exc:  # any refusal is compared by class and message
        return type(exc), str(exc)


@settings(PROPERTY, max_examples=300)
@given(fuzzed_zip_json())
@example(f16_request([[1], [0, 1]], [[1, 0, 0, 0], [0, 1]]))  # short lists
@example(f16_request([[3, 0, 0, 0], [1, 1, 0, 1]], [[1, 0, 0, 0], [1, 3, 0, 1]]))  # unreduced
@example(f16_request([[-1, 0, 0, 0], [1, -1, 0, 1]], [[0, 0, 0, 0], [-3, 0, 0, 0]]))
@example(f16_request([[1, 0, 0, 0], [0, 0, 0, 0, 1]], [[1, 0, 0, 0], [0, 0, 0, 0]]))  # k + 1
@example(f16_request([[0, 0, 0, 0], [0, 0, 0, 0]], [[1, 0, 0, 0], [0, 0, 0, 0]]))  # zero pair
@example(f16_request([[1, 0, 0, 0], [0, 0, 0, 0, 1]], [[1, 0], [0, 0]], p=4))  # bad p, long list
@example(f16_request([[1, 0], "x"], [[1, 0], [0, 0]], p=4))  # bad p, bad line
@example(f16_request([[True, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 0, 0], [0, 0, 0, 0]]))
@example(f16_request([[1, 0, 0, 0], [1.0, 0, 0, 0]], [[1, 0, 0, 0], [0, 0, 0, 0]]))
@example(f16_request([[1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 1, 0, 1, 0, 0, 1]],
                     [[0, 0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]], k=8))
def test_zip_parse_matches_the_two_walk_reference(text):
    # resolving lists through the coefficient map changes no zip, no error
    # and no choice of which error a request raises first
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError):
        assume(False)
    expected = outcome(two_walk_zip_from_json_obj, obj)
    got = outcome(zip_from_json_obj, obj)
    assert got == expected
    if isinstance(got, HilbertZip):
        lines = got.ctx._lines
        assert all(any(pair is entry for entry in lines) for pair in got.omega + got.conj)


COMMANDS = sorted(_COMMANDS)
# first words that are no command, options before the command, and words
# after it that some or all commands do not take
NOT_COMMANDS = ["bogus", "Orbits", "orbit", "", "-h", "--help", "--", "--p=3", "-x"]
OPTIONS = ["-h", "--help", "--", "--p=3", "--n=2", "-x", "orbits"]
STRAYS = ["extra", "--", "-h", "-x", "--perm=x", "--target=eta", "--file={tmp}/zip.json",
          "--n", "--n=2", "--fo=json", "orbits"]
# zip-check's file, when the fuzzed argv names it
F4_ZIP = '{"p": 2, "k": 2, "n": 2, "omega": [[1, 0], [[0, 1], 1]], "conj": [[0, 1], [1, 1]]}'


def _mostly(draw, valid, malformed):
    """A value drawn from ``valid``, or one time in four from ``malformed``,
    so that most examples get past argument parsing."""
    return draw(malformed if draw(st.integers(0, 3)) == 0 else valid)


@st.composite
def fuzzed_argv(draw):
    """argv for one of the six commands, with {tmp} standing for a temporary
    directory that holds zip.json: any p in 0..260, k in -1..9 and n in
    -1..4, malformed targets and formats, and a directory or a path under a
    missing directory as --output.  --bound is always passed and at most
    10,000, so no example runs long; zip-check takes no --bound, and its
    file is a small zip, the directory or a missing path.  One draw in four
    also puts a word that is not a command first, prepends an option or
    appends a stray word, so that argparse's own help and errors are drawn."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if command == "zip-check":
        argv.append("--file=" + draw(st.sampled_from(["{tmp}/zip.json", "{tmp}", "{tmp}/none"])))
    else:
        p, k = _mostly(draw, st.sampled_from(FIELDS),
                       st.tuples(st.integers(0, 260), st.integers(-1, 9)))
        n = _mostly(draw, st.integers(1, 4), st.integers(-1, 4))
        argv += [f"--p={p}", f"--k={k}", f"--n={n}",
                 "--bound=" + _mostly(draw, st.integers(-1, 10_000).map(str),
                                      st.sampled_from(["", "1e3", "2.5", "x", "9" * 5000]))]
    if command == "weight-space":
        argv.append("--target=" + _mostly(
            draw, st.sampled_from(["eta", "w0eta"]),
            st.sampled_from(["", ";", "1;", ";1", "a;b", "1;2;3", "-1,-1;-2"])
            | st.text(alphabet="0123456789,;- ", max_size=12)))
    argv.append("--format=" + _mostly(draw, st.sampled_from(["tsv", "json"]),
                                      st.sampled_from(["", "TSV", "xml"])))
    argv.append("--output=" + _mostly(draw, st.sampled_from(["-", "{tmp}/out"]),
                                      st.sampled_from(["{tmp}", "{tmp}/none/out"])))
    mangle = draw(st.integers(0, 11))
    if mangle == 0:
        argv[0] = draw(st.sampled_from(NOT_COMMANDS))
    elif mangle == 1:
        argv.insert(0, draw(st.sampled_from(OPTIONS)))
    elif mangle == 2:
        argv.append(draw(st.sampled_from(STRAYS)))
    return argv


@PROPERTY
@given(fuzzed_argv())
@example(["weight-space", "--p=2", "--k=8", "--n=2", "--bound=-1", "--target=1,x;2",
          "--format=tsv", "--output=-"])
@example(["orbits", "--p=251", "--k=1", "--n=1", "--bound=10000", "--format=json",
          "--output={tmp}"])
@example(["verify-equivalence", "--p=257", "--k=0", "--n=1", "--bound=5", "--format=tsv",
          "--output=-"])
@example(["census", "--p=4", "--k=9", "--n=2", "--bound=" + "9" * 5000, "--format=tsv",
          "--output=-"])
@example(["strata-table", "--p=3", "--k=5", "--n=4", "--bound=10000", "--format=json",
          "--output={tmp}/none/out"])
@example(["census", "--p=3", "--k=1", "--n=2", "--bound=10000", "--format=json",
          "--output={tmp}/out"])
@example(["zip-check", "--file={tmp}/zip.json", "--format=json", "--output={tmp}/out"])
def test_every_command_on_fuzzed_argv_keeps_the_exit_code_contract(argv):
    code, _, err, _ = _run_fuzzed([argv])[0]
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


def _run_fuzzed(argvs, parse=None):
    """main on each argv in turn, with {tmp} a fresh temporary directory that
    holds zip.json and ``cli._parse_args`` replaced by ``parse`` if given:
    (exit code, stdout, stderr, text written to {tmp}/out or None) each, with
    the directory's name written back as {tmp}."""
    # hypothesis refuses function-scoped fixtures such as tmp_path
    runs = []
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli_mod, "_parse_args", parse or cli_mod._parse_args):
        with open(os.path.join(tmp, "zip.json"), "w") as fh:
            fh.write(F4_ZIP)
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main([arg.replace("{tmp}", tmp) for arg in argv])
                except SystemExit as exc:  # argparse exits on help and malformed argv
                    code = exc.code
            written = None
            if os.path.isfile(os.path.join(tmp, "out")):
                with open(os.path.join(tmp, "out")) as fh:
                    written = fh.read()
                os.remove(fh.name)
            runs.append((code, out.getvalue().replace(tmp, "{tmp}"),
                         err.getvalue().replace(tmp, "{tmp}"), written))
    return runs


@settings(PROPERTY, max_examples=200)
@given(fuzzed_argv())
@example(["bogus", "--p=3", "--k=1", "--n=2", "--bound=10000", "--format=tsv", "--output=-"])
@example(["--p=3", "orbits", "--p=3", "--k=1", "--n=2", "--bound=10000", "--format=tsv",
          "--output=-"])
@example(["orbits", "--p=3", "--k=1", "--n=2", "--bound=10000", "--format=tsv",
          "--output={tmp}/out", "extra"])
@example(["orbits", "--p=3", "--k=1", "--n=2", "--bound=10000", "--format=tsv",
          "--output=-", "--"])
@example(["strata-table", "--p=3", "--k=1", "--n=2", "--bound=10000", "--format=tsv",
          "--output=-", "--target=eta"])
@example(["census", "--p=3", "--k=1", "--n=2", "--bound=10000", "--format=tsv",
          "--output=-", "-h"])
def test_every_command_parses_fuzzed_argv_as_the_full_parser_does(argv):
    # main parses a well-formed command with that command's parser alone; the
    # full tree and the same dispatch must give the same code and bytes, here
    # and in a second call after a first in the same process
    def full(argv):
        return cli_mod.build_parser().parse_args(argv)

    assert _run_fuzzed([argv, argv]) == _run_fuzzed([argv, argv], parse=full)
