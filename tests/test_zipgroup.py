"""Enumeration of the determinant-matched group and its acting pairs, orbit
partition, cell census."""

import time
from itertools import product
from math import comb

import pytest

from hilbhasse.errors import BoundExceededError
from hilbhasse.field import FieldCtx
from hilbhasse.schubert import (GroupElem, bruhat_word, hasse_section, stratum_label,
                                vanishing_order_on_stratum)
from hilbhasse.weyl import CocharDatum, WeylElem, all_weyl_elems
from hilbhasse.zipgroup import (ZipGroupElem, borel_order, bruhat_census, cell_witness,
                                enumerate_E, enumerate_G, generator_count, group_order, orbits,
                                zip_act, zip_group_generators)
from oracles import orbit_partition
from test_acceptance import ORBIT_SCALE


def det(m):
    """Determinant of a 2x2 matrix from its rows."""
    (a, b), (c, d) = m
    return a * d - b * c


def test_group_sizes_match_the_counting_formula(F2, F3):
    # |GL2(F_q)| = (q^2 - 1)(q^2 - q), brute-checked by the enumerator
    assert len(enumerate_G(F2, 1)) == 6 == (4 - 1) * (4 - 2)
    assert len(enumerate_G(F3, 1)) == 48 == (9 - 1) * (9 - 3)


def test_group_size_with_determinant_condition(F2, F3):
    assert len(enumerate_G(F2, 2)) == 36  # condition vacuous over F2
    # independent filter: pairs of GL2(F3) elements with equal determinants
    singles = enumerate_G(F3, 1)
    expected = sum(1 for a in singles for b in singles
                   if det(a.factors[0]) == det(b.factors[0]))
    assert len(enumerate_G(F3, 2)) == expected == 1152


def test_group_enumeration_bound(F3):
    with pytest.raises(BoundExceededError):
        enumerate_G(F3, 2, bound=1000)


def brute_force_E(ctx, n):
    """Exhaustive filter over all lower x upper matrix tuples."""
    lowers, uppers = [], []
    zero = ctx.zero()
    for d0, d1, x in product(ctx.elements(), repeat=3):
        if d0 and d1:
            lowers.append(((d0, zero), (x, d1)))
            uppers.append(((d0, x), (zero, d1)))
    found = []
    for a_fac in product(lowers, repeat=n):
        if len({det(f) for f in a_fac}) != 1:
            continue
        for b_fac in product(uppers, repeat=n):
            if len({det(f) for f in b_fac}) != 1:
                continue
            ok = all(fb[0][0] == fa[0][0].frobenius() and fb[1][1] == fa[1][1].frobenius()
                     for fa, fb in zip(a_fac, b_fac))
            if ok:
                found.append((a_fac, b_fac))
    return found


@pytest.mark.parametrize("p,n,expected", [(2, 1, 4), (3, 1, 36), (2, 2, 16)])
def test_acting_pairs_match_brute_force_filter(p, n, expected):
    ctx = FieldCtx(p)
    pairs = enumerate_E(ctx, n)
    assert len(pairs) == expected
    brute = set(brute_force_E(ctx, n))
    mine = {(e.a.factors, e.b.factors) for e in pairs}
    assert mine == brute


def test_identity_pair_is_present(F3):
    pairs = enumerate_E(F3, 1)
    identity = GroupElem.identity(F3, 1)
    assert any(e.a == identity and e.b == identity for e in pairs)


def test_pair_validation(F2):
    lower = GroupElem(F2, ([[1, 0], [1, 1]],))
    upper = GroupElem(F2, ([[1, 1], [0, 1]],))
    ZipGroupElem(lower, upper)  # fine
    with pytest.raises(ValueError):
        ZipGroupElem(upper, upper)  # left not lower
    with pytest.raises(ValueError):
        ZipGroupElem(lower, lower)  # right not upper


def test_coupling_is_checked(F2, F3, F4):
    lower = GroupElem(F3, ([[2, 0], [0, 1]],))
    bad_upper = GroupElem(F3, ([[1, 0], [0, 2]],))
    with pytest.raises(ValueError):
        ZipGroupElem(lower, bad_upper)
    # each diagonal entry is checked
    u = F4.gen()
    lower = GroupElem(F4, ([[u, 0], [1, 1]],))
    ZipGroupElem(lower, GroupElem(F4, ([[u * u, 1], [0, 1]],)))
    for d0, d1 in ((u, 1), (u * u, u)):  # u^2 != u in F_4
        with pytest.raises(ValueError):
            ZipGroupElem(lower, GroupElem(F4, ([[d0, 0], [0, d1]],)))
    # the identities over F_2 and F_4 share their index factors
    with pytest.raises(ValueError):
        ZipGroupElem(GroupElem.identity(F2, 1), GroupElem.identity(F4, 1))


def test_action_law_exhaustively(F2):
    g_list = enumerate_G(F2, 1)
    e_list = enumerate_E(F2, 1)
    for e1 in e_list:
        for e2 in e_list:
            combined = ZipGroupElem(e1.a * e2.a, e1.b * e2.b)
            for g in g_list:
                assert zip_act(e1, zip_act(e2, g)) == zip_act(combined, g)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
def test_orbits_partition_the_group(p, n):
    ctx = FieldCtx(p)
    g_list = enumerate_G(ctx, n)
    partition = orbit_partition(g_list, enumerate_E(ctx, n))
    assert sum(partition.sizes()) == len(g_list)
    seen = set()
    for cls in partition.classes:
        for g in cls:
            assert g not in seen
            seen.add(g)
    assert len(seen) == len(g_list)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
def test_orbit_labels_are_constant(p, n):
    # orbit_partition() raises on non-constant labels; verify the labels again here
    ctx = FieldCtx(p)
    datum = CocharDatum.split(n, p)
    partition = orbit_partition(enumerate_G(ctx, n), enumerate_E(ctx, n))
    for cls, label in zip(partition.classes, partition.labels):
        assert {stratum_label(g, datum) for g in cls} == {label}


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
def test_translated_lift_lands_in_its_label_class(p, n):
    ctx = FieldCtx(p)
    partition = orbit_partition(enumerate_G(ctx, n), enumerate_E(ctx, n))
    z_inv = GroupElem.weyl_lift(ctx, WeylElem.longest(n)).inverse()
    for w in all_weyl_elems(n):
        probe = GroupElem.weyl_lift(ctx, w) * z_inv
        hits = [label for cls, label in zip(partition.classes, partition.labels)
                if probe in cls]
        assert hits == [w]


def test_census_over_f2(F2):
    assert bruhat_census(F2, 1) == [2, 4]


def test_census_over_f3(F3):
    assert bruhat_census(F3, 1) == [12, 36]


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_census_law(p, n):
    ctx = FieldCtx(p)
    counts = bruhat_census(ctx, n)
    assert len(counts) == n + 1
    for length, count in enumerate(counts):
        assert count == ctx.q ** length * counts[0]
    # comb(n, l) cells of each length l
    assert sum(comb(n, length) * count for length, count in enumerate(counts)) == len(
        enumerate_G(ctx, n))


@pytest.mark.parametrize("p,k,n", [(2, 4, 10), (7, 1, 8)])
def test_census_law_beyond_enumeration(p, k, n):
    # |G| is about 10^37 for F_16 with n = 10 and 10^24 for F_7 with n = 8,
    # so only the factored census reaches these; |B| and |G| are closed forms
    ctx = FieldCtx(p, k)
    counts = bruhat_census(ctx, n)
    assert counts == [ctx.q ** length * borel_order(ctx, n) for length in range(n + 1)]
    assert sum(comb(n, length) * count
               for length, count in enumerate(counts)) == group_order(ctx, n)


@pytest.mark.parametrize("p,k,n", [(2, 1, 2), (3, 1, 2), (2, 2, 2)])
def test_cell_witness_is_the_first_element_of_its_cell(p, k, n):
    # the census replay names the element a scan of G would have found first
    ctx = FieldCtx(p, k)
    g_list = enumerate_G(ctx, n)
    for w in all_weyl_elems(n):
        assert cell_witness(ctx, w) == next(g for g in g_list if bruhat_word(g) == w)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2)])
def test_orbit_labels_agree_with_stratum_orders(p, n):
    # cross-module consistency: the order of the product section along the
    # stratum labeled w is the codimension n - l(w)
    ctx = FieldCtx(p)
    partition = orbit_partition(enumerate_G(ctx, n), enumerate_E(ctx, n))
    h = hasse_section(ctx, n)
    for label in partition.labels:
        assert vanishing_order_on_stratum(h, label) == n - label.length()


# -- the generating set ----------------------------------------------------------

GENERATOR_SCALE = [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2), (2, 2, 1)]


def closure(gens, identity):
    """Every product of generators, by breadth-first search from the identity."""
    seen = {ZipGroupElem(identity, identity)}
    frontier = list(seen)
    while frontier:
        step = []
        for e in frontier:
            for s in gens:
                prod = ZipGroupElem(e.a * s.a, e.b * s.b)
                if prod not in seen:
                    seen.add(prod)
                    step.append(prod)
        frontier = step
    return seen


@pytest.mark.parametrize("p,k,n", GENERATOR_SCALE)
def test_generators_generate_the_full_group(p, k, n):
    ctx = FieldCtx(p, k)
    gens = zip_group_generators(ctx, n)
    # the closed form that the CLI's orbit-scan refusal counts with, and the
    # same count written out
    assert len(gens) == generator_count(ctx, n) == 2 * n * k + (n + 1 if ctx.q > 2 else 0)
    assert closure(gens, GroupElem.identity(ctx, n)) == set(enumerate_E(ctx, n))


@pytest.mark.parametrize("p,k,n", GENERATOR_SCALE + [(5, 1, 1), (2, 1, 3)])
def test_generator_orbits_equal_full_group_orbits(p, k, n):
    ctx = FieldCtx(p, k)
    g_list = enumerate_G(ctx, n)
    assert (orbit_partition(g_list, zip_group_generators(ctx, n))
            == orbit_partition(g_list, enumerate_E(ctx, n)))


def exhaustive_sizes(ctx, n, gens):
    """The orbit sizes by label, in decreasing order, from the orbit search
    over all of G under the given pairs."""
    partition = orbit_partition(enumerate_G(ctx, n), gens)
    return {w: sorted(map(len, classes), reverse=True)
            for w, classes in partition.by_label().items()}


@pytest.mark.parametrize("p,k,n", ORBIT_SCALE + [(5, 1, 2), (3, 1, 3), (2, 3, 1), (3, 2, 1),
                                   (7, 1, 1), (2, 4, 1)])
def test_orbit_sizes_equal_the_exhaustive_partition(p, k, n):
    # the factor scan and the torus search against the orbit search over all
    # of G, label by label, orbit size by orbit size.  With k >= 3 the
    # unipotent moves add u^j times a row or column for j >= 2, F_9 adds u
    # in odd characteristic, and F_7 scales by a torus of order 6
    ctx = FieldCtx(p, k)
    assert orbits(ctx, n) == exhaustive_sizes(ctx, n, zip_group_generators(ctx, n))


@pytest.mark.parametrize("side, entry", [("b", 1), ("a", 2)])
@pytest.mark.parametrize("p,k,n", GENERATOR_SCALE)
def test_orbits_follow_the_generating_set(monkeypatch, p, k, n, side, entry):
    # orbits reads every move from zip_group_generators, so without the
    # pairs whose b (or a) has an off-diagonal entry it finds the orbits of
    # the smaller group that the rest generate
    import hilbhasse.zipgroup as zipgroup_mod
    real = zipgroup_mod.zip_group_generators

    def patched(ctx, n):
        return [e for e in real(ctx, n)
                if not any(f[entry] for f in getattr(e, side).index_factors)]

    monkeypatch.setattr(zipgroup_mod, "zip_group_generators", patched)
    ctx = FieldCtx(p, k)
    assert orbits(ctx, n) == exhaustive_sizes(ctx, n, patched(ctx, n))


def powers(e):
    """e, e^2, ..., e^ord(e), the last being the identity pair."""
    identity = GroupElem.identity(e.a.ctx, e.a.n)
    out = [e]
    while out[-1] != ZipGroupElem(identity, identity):
        out.append(ZipGroupElem(out[-1].a * e.a, out[-1].b * e.b))
    return out


@pytest.mark.parametrize("p,k,n,stride", [(3, 1, 2, 97), (2, 2, 1, 23), (2, 2, 2, 3455)])
def test_one_pair_has_the_orbits_of_its_powers(p, k, n, stride):
    # a single pair is not closed under inverses, but its inverse is one of
    # its powers, so closing each element under e alone finds the orbits of
    # the cyclic group e generates
    ctx = FieldCtx(p, k)
    g_list = enumerate_G(ctx, n)
    e_list = enumerate_E(ctx, n)
    for e in zip_group_generators(ctx, n) + e_list[stride // 2::stride]:
        assert orbit_partition(g_list, [e]) == orbit_partition(g_list, powers(e))


def test_generators_in_f4_carry_frobenius_coupled_diagonals(F4):
    # over F_4 the coupling is not the identity: some diagonal entry d of a
    # generator has d^2 != d on the right
    pairs = [(fa[i][i], fb[i][i]) for e in zip_group_generators(F4, 2)
             for fa, fb in zip(e.a.factors, e.b.factors) for i in (0, 1)]
    assert all(db == da ** 2 for da, db in pairs)
    assert any(db != da for da, db in pairs)


def test_fields_without_tables_are_refused():
    # every context has tables, so a field too large for them is refused
    # before any modulus search: F_{2^20} used to take seconds to build
    start = time.perf_counter()
    for p, k in ((257, 1), (2, 9), (2, 20)):
        with pytest.raises(ValueError):
            FieldCtx(p, k)
    assert time.perf_counter() - start < 0.1


def test_enumerate_g_is_bounded_by_the_exact_group_order(F3):
    # |G| = (q-1)(q(q^2-1))^n = 1152 for q = 3, n = 2
    assert len(enumerate_G(F3, 2, bound=1152)) == 1152
    with pytest.raises(BoundExceededError):
        enumerate_G(F3, 2, bound=1151)
