"""Sign-vector Weyl group, characters with parity, and the pullback rule."""

import pytest

from hilbhasse.weyl import (Character, CocharDatum, WeylElem, all_weyl_elems,
                            galois_act, hodge_character, inverse_perm, weyl_act,
                            zipflag_pullback)


def test_length_counts_minus_entries():
    assert WeylElem((1, 1, 1)).length() == 0
    assert WeylElem((-1, -1, -1)).length() == 3
    assert WeylElem((-1, 1, -1)).length() == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unchecked_constructor_matches_the_checked_one(n):
    from itertools import product
    for signs in product((1, -1), repeat=n):
        w, checked = WeylElem.from_signs(signs), WeylElem(list(signs))
        assert type(w) is WeylElem and w.signs == checked.signs == signs
        assert w == checked and hash(w) == hash(checked) and repr(w) == repr(checked)
    assert list(all_weyl_elems(n)) == [WeylElem(s) for s in product((1, -1), repeat=n)]


def test_length_endpoints():
    for n in range(1, 5):
        assert WeylElem.identity(n).length() == 0
        assert WeylElem.longest(n).length() == n


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_length_is_subadditive(n):
    elems = list(all_weyl_elems(n))
    for u in elems:
        for w in elems:
            assert (u * w).length() <= u.length() + w.length()


def test_group_law_and_involution():
    w = WeylElem((-1, 1, -1))
    assert w * w == WeylElem.identity(3)


def test_character_parity_is_enforced():
    Character((1, 1), 2)  # fine
    Character((1, 0), 1)  # fine
    with pytest.raises(ValueError):
        Character((1, 0), 0)


def test_character_arithmetic():
    chi = Character((1, -1), 2)
    assert chi + chi == Character((2, -2), 4)
    assert -chi == Character((-1, 1), -2)
    assert 3 * chi == Character((3, -3), 6)
    assert chi + -chi == Character.zero(2)


def test_hodge_character_values():
    assert hodge_character(1) == Character((-1,), -1)
    assert hodge_character(3) == Character((-1, -1, -1), -3)


def test_longest_element_flips_hodge_character():
    eta = hodge_character(2)
    assert weyl_act(WeylElem.longest(2), eta) == Character((1, 1), -2)


def test_weyl_act_examples():
    chi = Character((2, 3), 1)
    assert weyl_act(WeylElem.identity(2), chi) == chi
    assert weyl_act(WeylElem((-1, 1)), chi) == Character((-2, 3), 1)
    assert weyl_act(WeylElem.longest(2), Character((-1, -1), -2)) == Character((1, 1), -2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weyl_act_is_a_group_action_preserving_parity(n):
    chis = [hodge_character(n), Character.zero(n),
            Character(tuple(range(1, n + 1)), sum(range(1, n + 1)))]
    for u in all_weyl_elems(n):
        for w in all_weyl_elems(n):
            for chi in chis:
                acted = weyl_act(u, weyl_act(w, chi))
                assert acted == weyl_act(u * w, chi)
                assert (sum(acted.a) - acted.c) % 2 == 0


def test_galois_act_composes_and_fixes_c():
    chi = Character((1, 2, 3), 6)
    cycle = (1, 2, 0)
    acted = galois_act(cycle, chi)
    assert acted.c == 6
    assert galois_act(cycle, galois_act(inverse_perm(cycle), chi)) == chi


def test_datum_presets():
    split = CocharDatum.split(3, 2)
    inert = CocharDatum.inert(3, 2)
    assert split.sigma == (0, 1, 2)
    assert sorted(inert.sigma) == [0, 1, 2] and inert.sigma != split.sigma
    assert split.z == WeylElem.longest(3) == inert.z
    with pytest.raises(ValueError):
        CocharDatum(2, 4, (0, 1), WeylElem.longest(2))


def test_pullback_of_zero_is_zero():
    datum = CocharDatum.split(2, 3)
    zero = Character.zero(2)
    assert zipflag_pullback(zero, zero, datum) == zero


def test_pullback_with_zero_twist_is_first_argument():
    datum = CocharDatum.inert(3, 5)
    mu = Character((2, 0, 2), 4)
    assert zipflag_pullback(mu, Character.zero(3), datum) == mu


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("preset", [CocharDatum.split, CocharDatum.inert])
def test_pullback_key_identity(p, n, preset):
    # the pullback of (-eta, w0 . eta) must be (p - 1) . eta
    datum = preset(n, p)
    eta = hodge_character(datum.n)
    w0eta = weyl_act(WeylElem.longest(n), eta)
    assert zipflag_pullback(-eta, w0eta, datum) == (p - 1) * eta
