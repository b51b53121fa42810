"""Randomized properties of the integer-index kernels over fields of up to
256 elements, each checked against an oracle that does not share their code
path: ranks by forward elimination, wedges by cofactor minors, and the field
axioms element by element.  Every test also runs its F_256 example."""

from math import comb

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hilbhasse.field import TABLE_LIMIT, FieldCtx
from hilbhasse.linalg import Matrix, Subspace, induced_filtration, rref, wedge_of_lines
from oracles import naive_rank, wedge_coords_by_minors

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
        rows.append([sum((c * s[j] for c, s in zip(coeffs, seeds)), ctx.zero())
                     for j in range(ncols)])
    return ctx, rows


def f256_rows():
    u = F256.gen()
    return F256, [[u, u * u, F256.one()], [u ** 3, u ** 4, u], [F256.zero(), u ** 200, u ** 7]]


@PROPERTY
@given(matrices())
@example(f256_rows())
def test_rref_rank_matches_naive_rank(m):
    ctx, rows = m
    reduced, rank = rref(Matrix.from_rows(ctx, rows))
    assert rank == naive_rank(rows)
    assert rref(reduced) == (reduced, rank)


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
    assert all(big.contains_vector(r) for r in inner) == expected


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
