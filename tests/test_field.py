"""Field contexts: modulus selection, arithmetic axioms, Frobenius."""

import copy
import hashlib
import pickle
import sys
from fractions import Fraction

import pytest

from hilbhasse.field import TABLE_LIMIT, ContextMismatchError, FieldCtx
from hilbhasse.schubert import PointP1n
from oracles import poly_divmod, poly_mul_mod

# every field with at most 81 elements that the artifact might touch,
# plus one larger prime as a sanity case
SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                (3, 1), (3, 2), (3, 3), (3, 4),
                (5, 1), (5, 2), (7, 1), (7, 2), (79, 1)]

PRIMES = [p for p in range(2, TABLE_LIMIT + 1) if all(p % d for d in range(2, p))]
ALL_FIELDS = [(p, k) for p in PRIMES for k in range(1, 9) if p ** k <= TABLE_LIMIT]

# sha256 over (p, k, modulus, add, neg, mul, inv, frob, primitive) of every
# field in ALL_FIELDS, one field's repr at a time, taken from tables built
# entry by entry from coefficient lists; a change to any modulus, element
# order or single entry changes it
TABLES_SHA256 = "4885e581fe15891b8229f1d167ab4d9aaf745d1e2a1599268e349e7356f1cbf3"


def test_prime_field_modulus_is_x():
    for p in (2, 3, 5):
        ctx = FieldCtx(p, 1)
        assert ctx.modulus == (0, 1)
        assert ctx.q == p


def test_f4_modulus_is_the_unique_irreducible_quadratic():
    # a monic quadratic over F2 is irreducible iff it has no root
    candidates = [(c0, c1, 1) for c0 in (0, 1) for c1 in (0, 1)]
    irreducible = [c for c in candidates
                   if all((c[0] + c[1] * x + x * x) % 2 for x in (0, 1))]
    assert irreducible == [(1, 1, 1)]
    assert FieldCtx(2, 2).modulus == (1, 1, 1)


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 2)])
def test_modulus_is_first_rootless_candidate(p, k):
    # for degree 2 and 3, irreducible == no root in F_p; enumerate candidates
    # in the same low-degree-first lexicographic order and take the first
    from itertools import product
    for low in product(range(p), repeat=k):
        coeffs = low + (1,)
        if all(sum(c * x ** i for i, c in enumerate(coeffs)) % p for x in range(p)):
            assert FieldCtx(p, k).modulus == coeffs
            return
    raise AssertionError("oracle found no candidate")


def test_creation_is_deterministic():
    assert FieldCtx(3, 4).modulus == FieldCtx(3, 4).modulus
    assert FieldCtx(2, 2) == FieldCtx(2, 2)


def test_create_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FieldCtx(4)
    with pytest.raises(ValueError):
        FieldCtx(1)
    with pytest.raises(ValueError):
        FieldCtx(2, 0)
    with pytest.raises(ValueError, match="^prime field has no polynomial generator$"):
        FieldCtx(3).gen()


def test_bools_are_refused_and_leave_the_shared_context_alone(monkeypatch):
    # built first, FieldCtx(3, True) must not become the process-wide F_3
    monkeypatch.setattr(FieldCtx, "_shared", {})
    for p, k in ((3, True), (True, 1), (2, False)):
        with pytest.raises(ValueError, match="not bools"):
            FieldCtx(p, k)
    assert type(FieldCtx(3).k) is int and FieldCtx(3).k == 1


@pytest.mark.parametrize("p,k", [(3, 5), (251, 1), (2, 8)])
def test_table_build_makes_no_python_call_per_entry(p, k, monkeypatch):
    # the build makes O(q) Python calls (an element object per index and
    # the modulus search's divisions) and none per entry of a q x q table or
    # per step of the exp chain; a build that calls once per entry makes
    # over 500q, and an exp chain of polynomial products about 24q at F_256
    monkeypatch.setattr(FieldCtx, "_shared", {})
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        ctx = FieldCtx(p, k)
    finally:
        sys.setprofile(previous)
    assert ctx.q == p ** k and calls < 16 * ctx.q


def test_table_build_makes_no_polynomial_product(monkeypatch):
    # the modulus search divides polynomials; the tables are built from the
    # add table and multiplication by u, with no polynomial arithmetic
    from hilbhasse import field
    monkeypatch.setattr(FieldCtx, "_shared", {})
    inside, outside = 0, 0
    searching = False
    poly_rem, smallest_irreducible = field._poly_rem, field._smallest_irreducible

    def counted_rem(*args):
        nonlocal inside, outside
        inside += searching
        outside += not searching
        return poly_rem(*args)

    def search(*args):
        nonlocal searching
        searching = True
        try:
            return smallest_irreducible(*args)
        finally:
            searching = False

    monkeypatch.setattr(field, "_poly_rem", counted_rem)
    monkeypatch.setattr(field, "_smallest_irreducible", search)
    for p, k in [(3, 5), (251, 1), (2, 8)]:
        FieldCtx(p, k)
    assert inside > 0 and outside == 0
    assert not hasattr(field, "_poly_mul")


def test_modulus_search_divides_by_irreducibles_only(monkeypatch):
    # F_256's search trial-divides by the 8 monic irreducibles of degree 1..4
    # over F_2, not by all 30 monic polynomials of those degrees, and skips
    # every candidate of degree 2 or more that x divides (a zero constant
    # term): 82 _poly_rem calls, against 224 without the skip and 260 for a
    # search by all 30
    from itertools import product

    from hilbhasse import field
    modulus = FieldCtx(2, 8).modulus
    poly_rem, divisors = field._poly_rem, []

    def counted_rem(a, monic, p):
        divisors.append(tuple(monic))
        return poly_rem(a, monic, p)

    def monic(d):
        return [low + (1,) for low in product((0, 1), repeat=d)]

    monkeypatch.setattr(field, "_poly_rem", counted_rem)
    assert field._smallest_irreducible(2, 8) == modulus
    irreducible = {f for d in range(1, 5) for f in monic(d)
                   if all(poly_divmod(f, g, 2)[1] for e in range(1, d // 2 + 1) for g in monic(e))}
    assert len(irreducible) == 8 and set(divisors) == irreducible
    assert len(divisors) == 82


def test_addition_in_characteristic_two(F2):
    assert F2(1) + F2(1) == F2(0)


def test_f4_square_of_generator_matches_division_oracle(F4):
    u = F4.gen()
    # reduce x^2 by the modulus with the schoolbook oracle
    _, rem = poly_divmod([0, 0, 1], list(F4.modulus), 2)
    assert rem == [1, 1]
    assert (u * u).coeffs == (1, 1)


def test_inverse_of_two_in_f3(F3):
    assert F3(2).inverse() == F3(2)


def test_cross_context_arithmetic_is_an_error(F2, F3, F4):
    with pytest.raises(ContextMismatchError):
        F2(1) + F3(1)
    with pytest.raises(ContextMismatchError):
        F2(1) * F3(2)
    # same characteristic, same element index, different fields
    with pytest.raises(ContextMismatchError):
        F2(1) + F4(1)
    with pytest.raises(ContextMismatchError):
        F4(F2(1))
    assert F2(1) != F4(1)


def test_contexts_are_shared_per_field(F4):
    assert FieldCtx(2, 2) is F4 and FieldCtx(2) is FieldCtx(2) is not F4
    # copies and pickles resolve to the shared context, so equality, which
    # is identity, survives them
    assert copy.deepcopy(F4) is F4
    assert pickle.loads(pickle.dumps(F4.gen())) == F4.gen()


def test_inverse_of_zero_is_an_error(F2):
    with pytest.raises(ZeroDivisionError):
        F2(0).inverse()


def test_frobenius_fixes_prime_subfield(F4):
    assert F4(0).frobenius() == F4(0)
    assert F4(1).frobenius() == F4(1)


def test_frobenius_of_generator_in_f4(F4):
    u = F4.gen()
    assert u.frobenius() == u * u  # x^p with p = 2
    assert u.frobenius().coeffs == (1, 1)


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_frobenius_iterated_k_times_is_identity(p, k):
    ctx = FieldCtx(p, k)
    for x in ctx.elements():
        y = x
        for _ in range(k):
            y = y.frobenius()
        assert y == x


@pytest.mark.parametrize("p,k", [pk for pk in SMALL_FIELDS if pk[0] ** pk[1] <= 81])
def test_frobenius_is_a_ring_homomorphism(p, k):
    ctx = FieldCtx(p, k)
    elems = list(ctx.elements())
    for x in elems:
        for y in elems:
            assert (x * y).frobenius() == x.frobenius() * y.frobenius()
            assert (x + y).frobenius() == x.frobenius() + y.frobenius()


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_every_nonzero_element_has_an_inverse(p, k):
    ctx = FieldCtx(p, k)
    one = ctx.one()
    for x in ctx.elements():
        if x:
            assert x * x.inverse() == one


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (2, 3)])
def test_field_axioms_exhaustively(p, k):
    ctx = FieldCtx(p, k)
    elems = list(ctx.elements())
    for x in elems:
        for y in elems:
            assert x + y == y + x
            assert x * y == y * x
    for x in elems:
        for y in elems:
            for z in elems:
                assert x * (y + z) == x * y + x * z


def test_serialization_round_trip(F4):
    for x in F4.elements():
        assert F4(x.to_list()) == x
    assert F4([1, 1]).to_list() == [1, 1]


def test_int_coercion_embeds_prime_subfield(F4):
    assert F4(3).coeffs == (1, 0)
    assert F4.gen() + 1 == F4([1, 1])


def test_non_int_coefficients_are_refused(F4):
    # the base-p fold of 1.0 and 1 would be the "index" 3.0, a bare float is
    # no iterable, and a str or None coefficient has no int fold; a bool
    # coefficient is still the int it equals.  A set has no coefficient order
    # (it would fold in hash order) and a mapping would fold its keys, so both
    # are refused before any fold
    for value in ([1.0, 1], [1.5], [Fraction(1), 1], (Fraction(1, 2),), 1.0, None,
                  "ab", ["1"], [None]):
        with pytest.raises(ValueError):
            F4.index_of(value)
        with pytest.raises(ValueError):
            F4(value)
    for value in ({1: "x"}, {0, 1}, frozenset({1}), {}, set()):
        with pytest.raises(ValueError, match="^cannot coerce "):
            F4.index_of(value)
        with pytest.raises(ValueError, match="^cannot coerce "):
            F4(value)
    with pytest.raises(ValueError, match="^cannot coerce "):
        PointP1n(F4, [({1: 0}, 1)])
    assert F4.index_of([True, 1]) == F4.index_of(True) + 2 == 3


def test_iterated_frobenius_twist(F4):
    u = F4.gen()
    assert u.frobenius(2) == u
    assert u.frobenius(0) == u
    with pytest.raises(ValueError):
        u.frobenius(-1)


def test_tables_of_every_field_are_pinned():
    assert len(ALL_FIELDS) == 70
    digest = hashlib.sha256()
    for p, k in ALL_FIELDS:
        ctx = FieldCtx(p, k)
        digest.update(repr((p, k, ctx.modulus, ctx._add, ctx._neg, ctx._mul, ctx._inv,
                            ctx._frob, ctx._primitive)).encode())
    assert digest.hexdigest() == TABLES_SHA256


def _digits(idx, p, k):
    return [idx // p ** d % p for d in range(k)]


def _index(digits, p):
    return sum(c * p ** d for d, c in enumerate(digits))


@pytest.mark.parametrize("p,k", ALL_FIELDS)
def test_table_rows_match_coefficient_arithmetic(p, k):
    # every pair for q <= 27; otherwise the rows of 0, 1, p - 1, each p^d,
    # q - 1 and the primitive element, against every b
    ctx = FieldCtx(p, k)
    rows = {0, 1, p - 1, ctx.q - 1, ctx._primitive} | {p ** d for d in range(k)}
    for a in range(ctx.q) if ctx.q <= 27 else sorted(rows):
        da = _digits(a, p, k)
        assert ctx._neg[a] == _index([-x % p for x in da], p)
        for b in range(ctx.q):
            db = _digits(b, p, k)
            assert ctx._add[a][b] == _index([(x + y) % p for x, y in zip(da, db)], p)
            assert ctx._mul[a][b] == _index(poly_mul_mod(da, db, ctx.modulus, p), p)
