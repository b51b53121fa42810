"""Field contexts: modulus selection, arithmetic axioms, Frobenius."""

import copy
import pickle

import pytest

from hilbhasse.field import ContextMismatchError, FieldCtx
from oracles import poly_divmod

# every field with at most 81 elements that the artifact might touch,
# plus one larger prime as a sanity case
SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                (3, 1), (3, 2), (3, 3), (3, 4),
                (5, 1), (5, 2), (7, 1), (7, 2), (79, 1)]


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


def test_iterated_frobenius_twist(F4):
    u = F4.gen()
    assert u.frobenius(2) == u
    assert u.frobenius(0) == u
    with pytest.raises(ValueError):
        u.frobenius(-1)
