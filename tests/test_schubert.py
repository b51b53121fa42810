"""Sections on products of projective lines, Bruhat words, stratum labels
and exact vanishing orders."""

import re
from itertools import product

import pytest

from hilbhasse.errors import BoundExceededError
from hilbhasse.field import FieldCtx
from hilbhasse.schubert import (INFINITE_ORDER, GroupElem, MultiPoly, PointP1n,
                                all_points, bruhat_word, hasse_section,
                                monomial_weight, stratum_label,
                                torus_weight_space, vanishing_order_at_point,
                                vanishing_order_on_stratum)
from hilbhasse.weyl import WeylElem, all_weyl_elems, hodge_character, weyl_act
from oracles import chart_order_at_point, mat_mul_2x2


def borel_elements(ctx):
    """All invertible lower-triangular 2x2 matrices as rows (test-local build)."""
    out = []
    for d0, d1, low in product(ctx.elements(), repeat=3):
        if d0 and d1:
            out.append(((d0, ctx.zero()), (low, d1)))
    return out


def gl2_elements(ctx):
    out = []
    for a, b, c, d in product(ctx.elements(), repeat=4):
        if a * d - b * c:
            out.append(((a, b), (c, d)))
    return out


# -- sections -------------------------------------------------------------------


def test_hasse_section_single_factor(F2):
    h = hasse_section(F2, 1)
    assert h == MultiPoly(F2, 1, {((1, 0),): 1})
    assert str(h) == "x10"


def test_hasse_section_two_factors(F2):
    h = hasse_section(F2, 2)
    assert h == MultiPoly(F2, 2, {((1, 0), (1, 0)): 1})
    assert str(h) == "x10*x20"


def test_hasse_section_nonvanishing_at_base_chart(F3):
    h = hasse_section(F3, 3)
    pt = PointP1n(F3, [(1, 0)] * 3)
    assert vanishing_order_at_point(h, pt) == 0


def test_multipoly_printing_and_equality(F2, F3, F4):
    assert str(MultiPoly(F3, 2, {((1, 0), (0, 1)): 2})) == "2*x10*x21"
    assert str(MultiPoly(F4, 2, {((1, 0), (0, 1)): [0, 1]})) == "[0, 1]*x10*x21"
    assert str(MultiPoly(F3, 1, {((0, 0),): 2})) == "2"
    assert str(MultiPoly(F3, 1, {((0, 0),): 1})) == "1"
    assert str(MultiPoly(F4, 1, {((0, 0),): [1, 1]})) == "[1, 1]"
    assert str(MultiPoly(F2, 2, {((2, 0), (0, 3)): 1})) == "x10^2*x21^3"
    # terms print in ascending order of their exponent records
    f = MultiPoly(F3, 2, {((1, 1), (0, 1)): 1, ((1, 0), (1, 0)): 1,
                          ((0, 1), (1, 0)): 2, ((0, 0), (0, 0)): 1})
    assert str(f) == "1 + 2*x11*x20 + x10*x20 + x10*x11*x21"
    assert str(MultiPoly(F2, 1, {})) == "0"
    assert str(MultiPoly(F3, 1, {((1, 0),): 3})) == "0"
    # int, coefficient list and element spellings of one coefficient
    for ctx, spellings in ((F3, (2, -1, [2], F3(2))),
                           (F4, ([0, 1], (0, 1), F4.gen())),
                           (F4, (1, [1], F4.one()))):
        polys = [MultiPoly(ctx, 2, {((1, 0), (0, 1)): c, ((0, 0), (2, 0)): 1})
                 for c in spellings]
        assert all(g == polys[0] and hash(g) == hash(polys[0]) for g in polys)
    assert MultiPoly(F3, 1, {((1, 0),): 1}) != MultiPoly(F3, 1, {((1, 0),): 2})


def test_torus_weight_space_at_hodge_weight(F2):
    for n in (1, 2, 3, 4):
        basis = torus_weight_space(F2, n, hodge_character(n))
        assert basis == [hasse_section(F2, n)]


def test_torus_weight_space_at_flipped_weight(F3):
    n = 2
    target = weyl_act(WeylElem.longest(n), hodge_character(n))
    basis = torus_weight_space(F3, n, target)
    assert basis == [MultiPoly(F3, 2, {((0, 1), (0, 1)): 1})]
    assert str(basis[0]) == "x11*x21"


def test_torus_weight_space_parity_violation_is_empty(F2):
    assert torus_weight_space(F2, 2, ((1, 0), -2)) == []


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_weight_spaces_exhaust_the_section_space(n, F2):
    # the full space of degree-(1,...,1) sections has dimension 2^n and the
    # monomial weight vectors split it into one-dimensional weight spaces
    total = 0
    seen = set()
    for eps in product((0, 1), repeat=n):
        target = monomial_weight(n, eps)
        basis = torus_weight_space(F2, n, target)
        total += len(basis)
        seen.update(str(b) for b in basis)
    assert total == 2 ** n
    assert len(seen) == 2 ** n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weight_space_is_read_off_the_target(n, F3):
    # every raw target near the monomial weights: exactly the monomials whose
    # weight it is, and nothing for any other (a, c)
    weights = {}
    for eps in product((0, 1), repeat=n):
        weight = monomial_weight(n, eps)
        weights[(weight.a, weight.c)] = tuple((1, 0) if e == 0 else (0, 1) for e in eps)
    assert len(weights) == 2 ** n
    for a in product(range(-2, 3), repeat=n):
        for c in range(-n - 2, -n + 3):
            exps = weights.get((a, c))
            expected = [] if exps is None else [MultiPoly(F3, n, {exps: 1})]
            assert torus_weight_space(F3, n, (a, c)) == expected, (a, c)


# -- Bruhat words and labels ------------------------------------------------------


def test_bruhat_word_of_lower_triangular(F3):
    g = GroupElem(F3, ([[1, 0], [2, 1]], [[2, 0], [0, 2]]))
    assert bruhat_word(g) == WeylElem.identity(2)


def test_bruhat_word_of_reflection_lift(F2):
    s = [[0, 1], [1, 0]]
    e = [[1, 0], [0, 1]]
    assert bruhat_word(GroupElem(F2, (s, e))) == WeylElem((-1, 1))


def test_bruhat_word_against_brute_force_cells(F2):
    # brute-force double cosets of GL2(F2): B itself and B s B
    G = gl2_elements(F2)
    B = borel_elements(F2)
    s = ((F2.zero(), F2.one()), (F2.one(), F2.zero()))  # -1 == 1 mod 2
    cell_e = {mat_mul_2x2(a, b) for a in B for b in B}
    cell_s = {mat_mul_2x2(mat_mul_2x2(a, s), b) for a in B for b in B}
    assert len(cell_e) == 2 and len(cell_s) == 4
    assert cell_e | cell_s == set(G)
    for g in G:
        word = bruhat_word(GroupElem(F2, (g,)))
        assert (word == WeylElem((1,))) == (g in cell_e)
        assert (word == WeylElem((-1,))) == (g in cell_s)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2])
def test_stratum_label_of_translated_lifts(p, n):
    ctx = FieldCtx(p)
    z_lift = GroupElem.weyl_lift(ctx, WeylElem.longest(n))
    z_inv = z_lift.inverse()
    for w in all_weyl_elems(n):
        g = GroupElem.weyl_lift(ctx, w) * z_inv
        assert stratum_label(g) == w
    assert stratum_label(z_inv) == WeylElem.identity(n)


def test_group_elem_validation(F3):
    identity, det2 = [[1, 0], [0, 1]], [[2, 0], [0, 1]]
    for factors in ([],  # no factor
                    [[[1, 0], [0, 1], [0, 0]]],  # three rows
                    [[[1, 0, 0], [0, 1]]],  # a row of length 3
                    identity,  # one factor without the outer list
                    [[[1, 1], [1, 1]]],  # singular
                    [identity, det2]):  # unequal determinants
        with pytest.raises(ValueError):
            GroupElem(F3, factors)
    with pytest.raises(ValueError, match="^factor count mismatch$"):
        GroupElem(F3, [identity]) * GroupElem(F3, [identity, identity])


# (a call on malformed input, its exact message)
VIOLATIONS = {
    "section of no factor": (lambda: hasse_section(FieldCtx(2), 0), "need at least one factor"),
    "weight space of no factor": (lambda: torus_weight_space(FieldCtx(2), 0, ((), 0)),
                                  "need at least one factor"),
    "weight space of a rank 1 target": (
        lambda: torus_weight_space(FieldCtx(2), 2, hodge_character(1)), "target rank mismatch"),
    "exponent record of 1 factor": (lambda: MultiPoly(FieldCtx(2), 2, {((1, 0),): 1}),
                                    "exponent record has 1 factors, expected 2"),
    "negative exponent": (lambda: MultiPoly(FieldCtx(2), 1, {((-1, 0),): 1}),
                          "negative exponent"),
    "float exponent": (lambda: MultiPoly(FieldCtx(3), 1, {((1.5, 0),): 1}),
                       "factor 1 has exponents (1.5, 0), not two ints"),
    "str exponent": (lambda: MultiPoly(FieldCtx(3), 2, {((1, 0), ("1", 0)): 1}),
                     "factor 2 has exponents ('1', 0), not two ints"),
    "bool exponent": (lambda: MultiPoly(FieldCtx(3), 1, {((0, True),): 1}),
                      "factor 1 has exponents (0, True), not two ints"),
    "None for a pair": (lambda: MultiPoly(FieldCtx(3), 1, {(None,): 1}),
                        "factor 1 has exponents None, not two ints"),
    "exponent triple": (lambda: MultiPoly(FieldCtx(3), 1, {((1, 0, 0),): 1}),
                        "factor 1 has exponents (1, 0, 0), not two ints"),
    "exponent record not a tuple": (lambda: MultiPoly(FieldCtx(3), 1, {5: 1}),
                                    "exponent record 5 is not a tuple"),
    "order at a point of 2 factors": (
        lambda: vanishing_order_at_point(hasse_section(FieldCtx(2), 1),
                                         PointP1n(FieldCtx(2), [(1, 0), (1, 0)])),
        "point and polynomial are incompatible"),
    "order at a point of another field": (
        lambda: vanishing_order_at_point(hasse_section(FieldCtx(2), 1),
                                         PointP1n(FieldCtx(3), [(1, 0)])),
        "point and polynomial are incompatible"),
    "order on a cell of rank 2": (
        lambda: vanishing_order_on_stratum(hasse_section(FieldCtx(2), 1), WeylElem((1, -1))),
        "sign vector and polynomial are incompatible"),
}


@pytest.mark.parametrize("call, message", VIOLATIONS.values(), ids=VIOLATIONS)
def test_malformed_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# -- vanishing orders ----------------------------------------------------------------


def test_order_at_nonvanishing_point(F2):
    h = hasse_section(F2, 2)
    assert vanishing_order_at_point(h, PointP1n(F2, [(1, 1), (1, 1)])) == 0


def test_order_at_simple_zero(F2):
    h = hasse_section(F2, 2)
    assert vanishing_order_at_point(h, PointP1n(F2, [(0, 1), (1, 1)])) == 1


def test_order_at_double_zero(F2):
    h = hasse_section(F2, 2)
    assert vanishing_order_at_point(h, PointP1n(F2, [(0, 1), (0, 1)])) == 2


def test_order_at_point_over_extension_field(F4):
    u = F4.gen()
    # (x10 - u x11) x20, vanishing at [u : 1] in the first factor only
    f = MultiPoly(F4, 2, {((1, 0), (1, 0)): 1, ((0, 1), (1, 0)): -u})
    assert vanishing_order_at_point(f, PointP1n(F4, [(u, 1), (1, 0)])) == 1
    assert vanishing_order_at_point(f, PointP1n(F4, [(1, 1), (1, 0)])) == 0


def test_order_at_point_reduces_binomials_mod_p(F2):
    # x11^2 + x10^2 at [1 : 1]: (1 + w)^2 + 1 = 2w + w^2 = w^2 over F_2
    f = MultiPoly(F2, 1, {((0, 2),): 1, ((2, 0),): 1})
    assert vanishing_order_at_point(f, PointP1n(F2, [(1, 1)])) == 2


def test_order_at_point_sums_before_dropping_zeros(F3):
    # x11 - x10 at [1 : 1]: (1 + w) - 1 = w, the constants cancel
    f = MultiPoly(F3, 1, {((0, 1),): 1, ((1, 0),): -1})
    assert vanishing_order_at_point(f, PointP1n(F3, [(1, 1)])) == 1


def test_chart_rows_depend_on_field_and_degree():
    # x11^d - v^d x10^d at [1 : v] restricts to (v + w)^d - v^d, of order the
    # least j >= 1 with C(d, j) != 0 mod p: the chart rows of one v index
    # differ between fields of different p, and within one field with d
    orders = {}
    for d in (2, 3, 4):
        for ctx in (FieldCtx(2), FieldCtx(3), FieldCtx(2, 2)):
            for v in range(1, min(ctx.q, 3)):
                c = ctx.from_index(v)
                f = MultiPoly(ctx, 1, {((0, d),): 1, ((d, 0),): -(c ** d)})
                pt = PointP1n(ctx, [(1, c)])
                orders[ctx.q, v, d] = vanishing_order_at_point(f, pt)
                assert orders[ctx.q, v, d] == chart_order_at_point(f, pt), (ctx, v, d)
    assert [orders[q, 1, d] for q in (2, 3, 4) for d in (2, 3, 4)] == [2, 1, 4, 1, 3, 1, 2, 1, 4]


def test_points_of_different_fields_differ(F2, F4):
    assert PointP1n(F2, [(1, 1)]).index_coords == PointP1n(F4, [(1, 1)]).index_coords
    assert PointP1n(F2, [(1, 1)]) != PointP1n(F4, [(1, 1)])


def test_order_on_stratum_of_a_cancelling_restriction(F2):
    # x10 + x10^2 on the cell of -: both terms restrict to 1 and cancel
    f = MultiPoly(F2, 1, {((1, 0),): 1, ((2, 0),): 1})
    assert vanishing_order_on_stratum(f, WeylElem((-1,))) == INFINITE_ORDER


def test_order_of_zero_polynomial_is_an_error(F2):
    with pytest.raises(ValueError):
        vanishing_order_at_point(MultiPoly(F2, 1, {}), PointP1n(F2, [(1, 0)]))
    with pytest.raises(ValueError):
        vanishing_order_on_stratum(MultiPoly(F2, 1, {}), WeylElem((1,)))


def test_stratum_orders_of_the_product_section(F2):
    h = hasse_section(F2, 3)
    assert vanishing_order_on_stratum(h, WeylElem.longest(3)) == 0
    assert vanishing_order_on_stratum(h, WeylElem.identity(3)) == 3
    assert vanishing_order_on_stratum(h, WeylElem((-1, 1, -1))) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_stratum_orders_follow_the_codimension_rule(n, F2):
    h = hasse_section(F2, n)
    for w in all_weyl_elems(n):
        assert vanishing_order_on_stratum(h, w) == n - w.length()


def cell_of_point(pt):
    """Sign vector of the cell containing a point: +1 at [0 : 1] factors."""
    signs = []
    for u, v in pt.coords:
        signs.append(1 if not u else -1)
    return WeylElem(signs)


def test_all_points_needs_a_factor(F2):
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least one factor"):
            all_points(F2, n)


def test_all_points_refuses_before_building(monkeypatch):
    import hilbhasse.schubert as schubert_mod

    def no_points(*args):
        raise AssertionError("a point was built before the bound check")

    monkeypatch.setattr(schubert_mod, "PointP1n", no_points)
    with pytest.raises(BoundExceededError) as exc:
        all_points(FieldCtx(2, 8), 4)
    assert str(exc.value) == ("point enumeration would visit 4362470401 items, "
                              "above the bound 1000000")


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cells_partition_the_points(p, k, n):
    ctx = FieldCtx(p, k)
    points = all_points(ctx, n)
    assert len(points) == (ctx.q + 1) ** n
    counts = {}
    for pt in points:
        w = cell_of_point(pt)
        counts[w.signs] = counts.get(w.signs, 0) + 1
    for w in all_weyl_elems(n):
        assert counts[w.signs] == ctx.q ** w.length()
    assert sum(counts.values()) == (ctx.q + 1) ** n


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_point_orders_match_stratum_orders_on_cells(p, k, n):
    # closed points of the cell with nonzero affine parameters see exactly
    # the generic vanishing order of the product section
    ctx = FieldCtx(p, k)
    h = hasse_section(ctx, n)
    nonzero = [t for t in ctx.elements() if t]
    for w in all_weyl_elems(n):
        stratum_order = vanishing_order_on_stratum(h, w)
        factor_choices = []
        for sign in w.signs:
            if sign == -1:
                factor_choices.append([(ctx.one(), t) for t in nonzero])
            else:
                factor_choices.append([(ctx.zero(), ctx.one())])
        for combo in product(*factor_choices):
            pt = PointP1n(ctx, combo)
            assert vanishing_order_at_point(h, pt) == stratum_order


# -- descent of orders along the group ------------------------------------------------


def quotient_point(g: GroupElem) -> PointP1n:
    """Image of g in the product of projective lines: the second column of
    each factor, which right translation by the Borel only rescales."""
    pairs = [(f[0][1], f[1][1]) for f in g.factors]
    return PointP1n(g.ctx, pairs)


@pytest.mark.parametrize("p", [2, 3])
def test_order_descends_along_borel_translations(p):
    ctx = FieldCtx(p)
    h = hasse_section(ctx, 1)
    G = [GroupElem(ctx, (m,)) for m in gl2_elements(ctx)]
    B = borel_elements(ctx)
    for g in G:
        base = vanishing_order_at_point(h, quotient_point(g))
        for a in B:
            for b in B:
                moved = GroupElem(ctx, (a,)) * g * GroupElem(ctx, (b,))
                assert vanishing_order_at_point(h, quotient_point(moved)) == base


@pytest.mark.parametrize("p", [2, 3])
def test_translated_pullback_is_the_top_left_product(p):
    # after right translation by the lift of the longest element, the
    # quotient point picks up the first column, so the pulled-back section
    # reads off the product of top-left entries; its order is invariant
    # under the lower-triangular x upper-triangular pairs that the
    # Frobenius-coupled action lives in
    ctx = FieldCtx(p)
    h = hasse_section(ctx, 1)
    z_lift = GroupElem.weyl_lift(ctx, WeylElem.longest(1))
    G = [GroupElem(ctx, (m,)) for m in gl2_elements(ctx)]
    B = borel_elements(ctx)
    B_plus = [((a, c), (b, d)) for (a, b), (c, d) in B]
    for g in G:
        pt = quotient_point(g * z_lift)
        order = vanishing_order_at_point(h, pt)
        assert order == (1 if not g.factors[0][0][0] else 0)
        for a in B:
            for b in B_plus:
                moved = GroupElem(ctx, (a,)) * g * GroupElem(ctx, (b,))
                moved_pt = quotient_point(moved * z_lift)
                assert vanishing_order_at_point(h, moved_pt) == order


def test_infinite_order_sentinel_is_distinguished():
    assert INFINITE_ORDER > 10 ** 9
    assert INFINITE_ORDER == float("inf")
