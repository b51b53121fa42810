"""Canonical subspaces, wedge coordinates and the induced
exterior-power filtration."""

from itertools import product

import pytest

from hilbhasse.field import ContextMismatchError, FieldCtx
from hilbhasse.linalg import (Subspace, induced_filtration, wedge_basis_index,
                              wedge_basis_subsets, wedge_of_lines)
from oracles import filtration_level, is_rref_basis_of, naive_rank, wedge_coords_by_minors


def lines_of_plane(ctx):
    """All q+1 lines of F^2 as normalized local coordinate pairs."""
    return [(ctx.one(), t) for t in ctx.elements()] + [(ctx.zero(), ctx.one())]


def block_line(ctx, n, i, pair):
    zero = ctx.zero()
    vec = [zero] * (2 * n)
    vec[2 * i], vec[2 * i + 1] = pair
    return Subspace.from_vectors(ctx, 2 * n, [vec])


def full_space(ctx, d):
    return Subspace.from_vectors(ctx, d, [[int(i == j) for j in range(d)] for i in range(d)])


# -- rref, through Subspace ------------------------------------------------------


def assert_canonical(ctx, rows, basis):
    """The span of rows has the given canonical basis, its dimension is the
    rank by forward elimination, and rebuilding from the basis changes nothing."""
    rows = [[ctx(x) for x in row] for row in rows]
    span = Subspace.from_vectors(ctx, len(rows[0]), rows)
    assert span.dim == naive_rank(rows)
    assert span.basis == tuple(tuple(map(ctx, row)) for row in basis)
    assert Subspace.from_vectors(ctx, span.ambient_dim, span.basis) == span


def test_rref_of_identity(F2):
    assert_canonical(F2, [[1, 0], [0, 1]], [[1, 0], [0, 1]])


def test_rref_of_zero(F2):
    assert_canonical(F2, [[0, 0, 0]] * 3, [])


def test_rref_of_rank_one_matrix(F2):
    assert_canonical(F2, [[1, 1], [1, 1]], [[1, 1]])


@pytest.mark.parametrize("p", [2, 3])
def test_rref_rank_matches_elimination_oracle(p):
    ctx = FieldCtx(p)
    elems = list(ctx.elements())
    for a, b, c, d in product(elems, repeat=4):
        rows = [[a, b], [c, d]]
        span = Subspace.from_vectors(ctx, 2, rows)
        assert span.dim == naive_rank(rows)
        assert is_rref_basis_of(rows, span.basis)
        assert Subspace.from_vectors(ctx, 2, span.basis) == span


# -- subspaces ------------------------------------------------------------------


def test_full_space_contains_everything(F2):
    full = full_space(F2, 2)
    for pair in lines_of_plane(F2):
        assert full.contains(Subspace.from_vectors(F2, 2, [pair]))


def test_distinct_axes_are_incomparable(F2):
    e1 = Subspace.from_vectors(F2, 2, [[1, 0]])
    e2 = Subspace.from_vectors(F2, 2, [[0, 1]])
    assert not e1.contains(e2)
    assert not e2.contains(e1)


def test_containment_is_reflexive(F2):
    diag = Subspace.from_vectors(F2, 2, [[1, 1]])
    assert diag.contains(diag)


def test_ambient_mismatch_is_an_error(F2):
    a = full_space(F2, 2)
    b = full_space(F2, 3)
    with pytest.raises(ValueError):
        a.contains(b)
    with pytest.raises(ValueError, match="^vector length differs from ambient dimension$"):
        Subspace.from_index_rows(F2, 2, [[1]])


def all_subspaces_of_plane(ctx):
    spaces = {Subspace.from_vectors(ctx, 2, []), full_space(ctx, 2)}
    for pair in lines_of_plane(ctx):
        spaces.add(Subspace.from_vectors(ctx, 2, [pair]))
    return sorted(spaces, key=lambda s: (s.dim, s.basis and str(s.basis)))


@pytest.mark.parametrize("p", [2, 3])
def test_containment_is_a_partial_order(p):
    ctx = FieldCtx(p)
    spaces = all_subspaces_of_plane(ctx)
    for a in spaces:
        assert a.contains(a)
        for b in spaces:
            if a.contains(b) and b.contains(a):
                assert a == b  # antisymmetry via canonical bases
            for c in spaces:
                if a.contains(b) and b.contains(c):
                    assert a.contains(c)


def test_subspaces_over_different_fields_stay_apart(F2, F4):
    # identical index rows ((1, 0),) over F_2 and F_4
    omega2 = Subspace.from_vectors(F2, 2, [[1, 0]])
    omega4 = Subspace.from_vectors(F4, 2, [[1, 0]])
    assert omega2.index_basis == omega4.index_basis
    assert omega2 != omega4
    # one memo key would hand the F_2 piece to the F_4 caller
    assert induced_filtration(omega2, 1).ctx is F2
    assert induced_filtration(omega4, 1).ctx is F4
    with pytest.raises(ContextMismatchError):
        omega2.contains(omega4)
    with pytest.raises(ContextMismatchError):
        wedge_of_lines([block_line(F2, 2, 0, (F2.one(), F2.zero())),
                        block_line(F4, 2, 1, (F4.one(), F4.zero()))])


def test_canonical_basis_ignores_presentation(F3):
    s1 = Subspace.from_vectors(F3, 3, [[1, 2, 0], [0, 0, 1]])
    s2 = Subspace.from_vectors(F3, 3, [[2, 4, 1], [0, 0, 2], [1, 2, 1]])
    assert s1 == s2 and hash(s1) == hash(s2)


# -- wedge coordinates --------------------------------------------------------------


def test_wedge_index_basics():
    assert wedge_basis_index(1, (0,)) == 0
    assert wedge_basis_index(2, (0, 1)) == 0
    assert wedge_basis_index(2, (2, 3)) == 5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wedge_index_enumerates_colex_order(n):
    # the oracle: sort all n-subsets by their reversed tuple
    from itertools import combinations
    subsets = sorted(combinations(range(2 * n), n), key=lambda s: tuple(reversed(s)))
    assert list(wedge_basis_subsets(n)) == subsets
    seen = [wedge_basis_index(n, s) for s in subsets]
    assert seen == list(range(len(subsets)))  # bijective and order preserving


def test_wedge_index_rejects_malformed_subsets():
    with pytest.raises(ValueError):
        wedge_basis_index(2, (1, 1))
    with pytest.raises(ValueError):
        wedge_basis_index(2, (0, 4))
    with pytest.raises(ValueError):
        wedge_basis_index(2, (0,))


def test_wedge_of_single_line(F2):
    line = block_line(F2, 1, 0, (F2.one(), F2.zero()))
    assert wedge_of_lines([line]).basis == ((F2.one(), F2.zero()),)


def test_wedge_of_standard_lines(F2):
    l0 = block_line(F2, 2, 0, (F2.one(), F2.zero()))
    l1 = block_line(F2, 2, 1, (F2.one(), F2.zero()))
    result = wedge_of_lines([l0, l1])
    expected = [F2.zero()] * 6
    expected[wedge_basis_index(2, (0, 2))] = F2.one()
    assert result == Subspace.from_vectors(F2, 6, [expected])


def test_wedge_of_skew_line(F2):
    l0 = block_line(F2, 2, 0, (F2.one(), F2.one()))
    l1 = block_line(F2, 2, 1, (F2.one(), F2.zero()))
    result = wedge_of_lines([l0, l1])
    expected = [F2.zero()] * 6
    expected[wedge_basis_index(2, (0, 2))] = F2.one()
    expected[wedge_basis_index(2, (1, 2))] = F2.one()
    assert result == Subspace.from_vectors(F2, 6, [expected])


@pytest.mark.parametrize("p", [2, 3])
def test_wedge_of_lines_matches_minor_oracle(p):
    ctx = FieldCtx(p)
    pairs = lines_of_plane(ctx)
    for pair0 in pairs:
        for pair1 in pairs:
            lines = [block_line(ctx, 2, 0, pair0), block_line(ctx, 2, 1, pair1)]
            vectors = [line.basis[0] for line in lines]
            oracle = wedge_coords_by_minors(vectors, 2)
            assert wedge_of_lines(lines) == Subspace.from_vectors(ctx, 6, [oracle])


def test_wedge_of_lines_rejects_non_lines(F2):
    plane = full_space(F2, 2)
    with pytest.raises(ValueError):
        wedge_of_lines([plane])
    with pytest.raises(ValueError, match="^need at least one line$"):
        wedge_of_lines([])


def test_wedge_of_lines_rejects_wrong_block(F2):
    off_block = Subspace.from_vectors(F2, 4, [[1, 0, 1, 0]])
    good = block_line(F2, 2, 1, (F2.one(), F2.zero()))
    with pytest.raises(ValueError):
        wedge_of_lines([off_block, good])


# -- induced filtration ----------------------------------------------------------------


def standard_omega(ctx, n):
    one, zero = ctx.one(), ctx.zero()
    rows = []
    for i in range(n):
        rows.append([one if j == 2 * i else zero for j in range(2 * n)])
    return Subspace.from_vectors(ctx, 2 * n, rows)


def test_filtration_piece_zero_is_everything(F2):
    from math import comb
    for n in (1, 2, 3):
        omega = standard_omega(F2, n)
        assert induced_filtration(omega, 0).dim == comb(2 * n, n)


def test_filtration_top_piece_for_a_line(F2):
    omega = Subspace.from_vectors(F2, 2, [[1, 0]])
    assert induced_filtration(omega, 1) == omega  # ambient is its own wedge


def test_filtration_middle_piece_n2(F2):
    omega = standard_omega(F2, 2)
    fil1 = induced_filtration(omega, 1)
    assert fil1.dim == 5
    # every standard wedge coordinate except the one indexed {1, 3}
    missing = wedge_basis_index(2, (1, 3))
    rows = []
    for idx in range(6):
        if idx != missing:
            rows.append([F2.one() if j == idx else F2.zero() for j in range(6)])
    assert fil1 == Subspace.from_vectors(F2, 6, rows)
    assert missing == 4


def test_filtration_rejects_bad_input(F2):
    omega = standard_omega(F2, 2)
    with pytest.raises(ValueError):
        induced_filtration(omega, 3)
    with pytest.raises(ValueError):
        induced_filtration(omega, -1)
    line = Subspace.from_vectors(F2, 4, [[1, 0, 0, 0]])
    with pytest.raises(ValueError):
        induced_filtration(line, 1)
    with pytest.raises(ValueError, match="^ambient dimension must be even$"):
        induced_filtration(Subspace.from_vectors(F2, 3, [[1, 0, 0]]), 1)


def test_filtration_level_rejects_bad_shapes(F2):
    omega = standard_omega(F2, 2)
    with pytest.raises(ValueError):
        filtration_level(omega, [[1, 0, 0, 0]])
    line = Subspace.from_vectors(F2, 4, [[1, 0, 0, 0]])
    with pytest.raises(ValueError):
        filtration_level(line, [[1, 0, 0, 0], [0, 1, 0, 0]])


def block_omegas(ctx, n):
    pairs = lines_of_plane(ctx)
    for combo in product(pairs, repeat=n):
        rows = []
        zero = ctx.zero()
        for i, pair in enumerate(combo):
            vec = [zero] * (2 * n)
            vec[2 * i], vec[2 * i + 1] = pair
            rows.append(vec)
        yield Subspace.from_vectors(ctx, 2 * n, rows)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_filtration_is_decreasing(n, F2):
    for omega in block_omegas(F2, n):
        previous = induced_filtration(omega, 0)
        for m in range(1, n + 1):
            current = induced_filtration(omega, m)
            assert previous.contains(current)
            previous = current


@pytest.mark.parametrize("n", [1, 2, 3])
def test_graded_dimensions_for_block_omegas(n, F2):
    from math import comb
    for omega in block_omegas(F2, n):
        dims = [induced_filtration(omega, m).dim for m in range(n + 1)]
        for m in range(n):
            assert dims[m] - dims[m + 1] == comb(n, m) ** 2
        assert dims[n] == 1


def test_graded_dimensions_mixed_cases():
    from math import comb
    F3 = FieldCtx(3)
    for omega in block_omegas(F3, 2):
        dims = [induced_filtration(omega, m).dim for m in range(3)]
        assert [dims[0] - dims[1], dims[1] - dims[2]] == [comb(2, 0) ** 2, comb(2, 1) ** 2]


def test_filtration_of_non_block_subspace_is_still_decreasing(F3):
    omega = Subspace.from_vectors(F3, 4, [[1, 0, 0, 1], [0, 1, 0, 0]])
    fil = [induced_filtration(omega, m) for m in range(3)]
    assert fil[0].contains(fil[1]) and fil[1].contains(fil[2])


def test_top_piece_matches_minor_oracle(F3):
    # non-block vectors force genuine sign bookkeeping in the expansion
    rows = [[1, 0, 0, 1], [0, 1, 0, 0]]
    omega = Subspace.from_vectors(F3, 4, rows)
    vectors = [tuple(F3(x) for x in r) for r in rows]
    oracle = wedge_coords_by_minors(vectors, 2)
    assert induced_filtration(omega, 2) == Subspace.from_vectors(F3, 6, [oracle])
