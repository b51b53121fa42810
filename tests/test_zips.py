"""Zip data: construction, Hasse flags, filtration levels and the
exhaustive equivalence check."""

import io
import json
import re
import sys
from itertools import product

import pytest

import hilbhasse.cli as cli_mod
import hilbhasse.linalg as linalg_mod
import hilbhasse.schubert as schubert_mod
import hilbhasse.zips as zips_mod
from hilbhasse.cli import main
from hilbhasse.errors import BoundExceededError
from hilbhasse.field import FieldCtx
from hilbhasse.linalg import Subspace
from hilbhasse.schubert import (MultiPoly, PointP1n, all_points, hasse_section,
                                projective_line_reps,
                                vanishing_order_at_point, vanishing_order_on_stratum)
from hilbhasse.weyl import WeylElem
from hilbhasse.zips import (HilbertZip, ZipReport, _block_level, check_equivalence,
                            enumerate_zips, line_in_block, max_hodge_level, partial_hasse_flags,
                            zip_from_json_obj, zip_to_json_obj)
from oracles import block_point_and_sign, conj_rows, filtration_level, hodge_span
from test_acceptance import EQUIVALENCE_SCALE


def first_lines(n):
    """Omega_i = span(first basis vector of block i) for every block."""
    return ((1, 0),) * n


def second_lines(n):
    return ((0, 1),) * n


def wedge_level(z):
    """The reference Hodge level: the least pivot count of the conjugate wedge."""
    return filtration_level(hodge_span(z), conj_rows(z))


# -- construction ------------------------------------------------------------------


def test_zip_validation(F2):
    omega = first_lines(2)
    with pytest.raises(ValueError):
        HilbertZip(F2, 2, omega[:1], omega)  # fewer lines than n
    with pytest.raises(ValueError):
        HilbertZip(F2, 2, (omega[0], (0, 0)), omega)  # no line in block 1


def test_line_in_block_rejects_zero_vector(F2):
    with pytest.raises(ValueError):
        line_in_block(F2, 2, 0, (0, 0))


@pytest.mark.parametrize("block", [-1, 2])
def test_line_in_block_rejects_a_block_out_of_range(F2, block):
    with pytest.raises(ValueError, match="^block index out of range$"):
        line_in_block(F2, 2, block, (1, 0))


# -- flags and orders ------------------------------------------------------------------


def test_flags_all_set_when_lines_coincide(F2):
    n = 3
    omega = first_lines(n)
    z = HilbertZip(F2, n, omega, omega)
    assert partial_hasse_flags(z) == (True,) * n


def test_flags_all_clear_when_lines_differ(F2):
    n = 3
    z = HilbertZip(F2, n, first_lines(n), second_lines(n))
    assert partial_hasse_flags(z) == (False,) * n


def test_flags_mixed_case(F2):
    omega = first_lines(2)
    z = HilbertZip(F2, 2, omega, ((1, 0), (1, 1)))
    assert partial_hasse_flags(z) == (True, False)


def test_max_level_when_conjugate_equals_hodge(F2):
    for n in (1, 2, 3):
        omega = first_lines(n)
        z = HilbertZip(F2, n, omega, omega)
        assert max_hodge_level(z) == n


def test_max_level_when_all_lines_differ(F2):
    for n in (1, 2, 3):
        z = HilbertZip(F2, n, first_lines(n), second_lines(n))
        assert max_hodge_level(z) == 0


def test_max_level_zero_for_every_fully_split_configuration(F2):
    # exhaustive over F_2, n <= 3: whenever no conjugate line matches its
    # Hodge line, the wedge line escapes even the first filtration piece
    for n in (1, 2, 3):
        for z in enumerate_zips(F2, n):
            if all(c != o for c, o in zip(z.conj, z.omega)):
                assert max_hodge_level(z) == 0


def test_max_level_mixed_case(F2):
    omega = first_lines(2)
    z = HilbertZip(F2, 2, omega, (omega[0], (0, 1)))
    assert max_hodge_level(z) == 1


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_block_kernel_is_the_one_block_wedge(p, k):
    # every field with q <= 9 and all (q+1)^2 (Omega, C) pairs: the level is
    # the wedge reference on the lines line_in_block places with n = 1, and
    # the flag is the equality of those lines
    ctx = FieldCtx(p, k)
    reps = projective_line_reps(ctx)
    for omega_xy, conj_xy in product(reps, repeat=2):
        o, c = ctx.lines_of([omega_xy, conj_xy])
        omega_line = line_in_block(ctx, 1, 0, omega_xy)
        conj_line = line_in_block(ctx, 1, 0, conj_xy)
        level = filtration_level(omega_line, list(conj_line.index_basis))
        assert _block_level(ctx, o, c) == level, (o, c)
        assert partial_hasse_flags(HilbertZip(ctx, 1, (o,), (c,))) == (omega_line == conj_line,)


def test_check_equivalence_reports(F2):
    n = 2
    omega = first_lines(n)
    ordinary = HilbertZip(F2, n, omega, second_lines(n))
    r = check_equivalence(ordinary)
    assert (r.hasse_order, r.m_max, r.consistent) == (0, 0, True)
    superspecial = HilbertZip(F2, n, omega, omega)
    r = check_equivalence(superspecial)
    assert (r.hasse_order, r.m_max, r.consistent) == (n, n, True)


def test_all_f2_n2_configurations_are_consistent(zip_reports):
    reports = zip_reports(2, 1, 2)
    assert len(reports) == 81
    assert all(r.consistent for r in reports.values())


# -- enumeration ---------------------------------------------------------------------


def test_enumeration_counts(F2, F3):
    assert len(list(enumerate_zips(F2, 1))) == 9
    assert len(list(enumerate_zips(F2, 2))) == 81
    assert len(list(enumerate_zips(F3, 1))) == 16


def test_enumeration_is_deterministic(F2):
    a = [zip_to_json_obj(z) for z in enumerate_zips(F2, 1)]
    b = [zip_to_json_obj(z) for z in enumerate_zips(F2, 1)]
    assert a == b


def test_enumeration_respects_bound(F3):
    with pytest.raises(BoundExceededError):
        list(enumerate_zips(F3, 3, bound=100))


def test_enumeration_needs_a_factor(F2):
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least one factor"):
            next(enumerate_zips(F2, n))


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (2, 8)])
def test_field_lines_are_the_projective_line_reps(p, k):
    # one line order for the sweep, the zip parse and the points
    ctx = FieldCtx(p, k)
    assert ctx._lines == tuple((u.index, v.index) for u, v in projective_line_reps(ctx))


@pytest.mark.parametrize("p, k", [(3, 1), (2, 2)])
def test_sweep_order_is_omega_then_conj_lexicographic(p, k):
    # the sweep bench's expected flags and the failure order of
    # verify-equivalence --format json both follow this order
    ctx, n = FieldCtx(p, k), 2
    reps = [(u.index, v.index) for u, v in projective_line_reps(ctx)]
    expected = [(omega, conj) for omega in product(reps, repeat=n)
                for conj in product(reps, repeat=n)]
    assert [(z.omega, z.conj) for z in enumerate_zips(ctx, n)] == expected


def test_seeded_hodge_and_level_match_a_fresh_zip():
    # these scales lie outside the acceptance sweeps.  A parsed zip stores
    # no level, so max_hodge_level computes its own, and the wedge is the
    # reference
    for p, n in ((5, 1), (5, 2), (3, 3)):
        for z in enumerate_zips(FieldCtx(p), n):
            fresh = zip_from_json_obj(zip_to_json_obj(z))
            assert fresh._level is None
            assert fresh == z and hodge_span(fresh) == hodge_span(z), zip_to_json_obj(z)
            assert z._level == max_hodge_level(fresh), zip_to_json_obj(z)
            assert z._level == wedge_level(z), zip_to_json_obj(z)


@pytest.mark.parametrize("p, k, n", EQUIVALENCE_SCALE)
def test_stored_and_parsed_levels_are_the_wedge_level(p, k, n):
    # the program sums block levels; the reference wedges the conjugate
    # rows and reads the least pivot count
    for z in enumerate_zips(FieldCtx(p, k), n):
        fresh = zip_from_json_obj(zip_to_json_obj(z))
        assert z._level == max_hodge_level(fresh) == wedge_level(z), zip_to_json_obj(z)


def count_calls(monkeypatch, counts, owner, name):
    """Patch ``owner.name`` to add one to ``counts[name]`` per call."""
    fn = getattr(owner, name)

    def wrapper(*args):
        counts[name] += 1
        return fn(*args)
    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("p, k, n", [(2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_sweep_work_has_closed_form_counts(capsys, monkeypatch, p, k, n):
    # one block level per (Omega_i, candidate C line), shared by all blocks,
    # and no wedge and no vector of F^(2n), neither in the sweep nor in a
    # zip-check request; a CLI sweep computes no block level again, and takes
    # one flag tuple and one stored level per zip.  A request whose lists
    # hold k reduced coefficients each folds none of them in index_of, nor
    # does one whose omega is given as plain ints; a short list misses the
    # coefficient map and is folded once
    counts = dict.fromkeys(["_block_level", "partial_hasse_flags", "max_hodge_level",
                            "_wedge_terms", "__init__", "index_of"], 0)
    for name in ("_block_level", "partial_hasse_flags", "max_hodge_level"):
        count_calls(monkeypatch, counts, zips_mod, name)
    count_calls(monkeypatch, counts, linalg_mod, "_wedge_terms")
    count_calls(monkeypatch, counts, linalg_mod.Subspace, "__init__")
    count_calls(monkeypatch, counts, FieldCtx, "index_of")
    ctx = FieldCtx(p, k)
    s = ctx.q + 1
    zips = list(enumerate_zips(ctx, n))
    assert len(zips) == s ** (2 * n)
    assert counts == {"_block_level": s ** 2, "partial_hasse_flags": 0, "max_hodge_level": 0,
                      "_wedge_terms": 0, "__init__": 0, "index_of": 0}
    counts.update(_block_level=0)
    assert main(["verify-equivalence", "--p", str(p), "--k", str(k), "--n", str(n)]) == 0
    assert capsys.readouterr().out == f"{len(zips)}/{len(zips)} consistent\n"
    assert counts == {"_block_level": s ** 2, "partial_hasse_flags": len(zips),
                      "max_hodge_level": len(zips), "_wedge_terms": 0, "__init__": 0,
                      "index_of": 0}
    for case in ("lists", "short", "int omega"):
        request = zip_to_json_obj(zips[-1])
        counts.update(dict.fromkeys(counts, 0))
        if case == "short":  # the zero coordinate u of [0 : 1] given with no coefficients
            assert request["omega"][0][0] == [0] * k
            request["omega"][0][0] = []
        if case == "int omega":  # every omega coordinate lies in F_p; conj keeps its lists
            assert all(c[1:] == [0] * (k - 1) for pair in request["omega"] for c in pair)
            request["omega"] = [[c[0] for c in pair] for pair in request["omega"]]
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(request)))
        assert main(["zip-check"]) == 0
        assert capsys.readouterr().out.endswith(f"\t{n}\t{n}\t1\n")
        assert counts == {"_block_level": n, "partial_hasse_flags": 1, "max_hodge_level": 1,
                          "_wedge_terms": 0, "__init__": 0, "index_of": int(case == "short")}


@pytest.mark.parametrize("p, k, n", [(2, 1, 8), (3, 1, 4), (2, 2, 3)])
def test_order_work_has_closed_form_counts(capsys, monkeypatch, p, k, n):
    # strata-table takes one order along a cell and one at a point per
    # length, and builds no word and no chart row.  A lone term's order at a
    # point is read off its exponents, so neither the Hasse section nor the
    # product of the second coordinates builds a chart row at any of the
    # (q+1)^n points.  The terms of (x11 - c x10) x20 ... xn0, c != 0, tie
    # where the first factor is [1 : t], t != 0, and there each term builds
    # one row per factor off [0 : 1]: (t, 1) or (t, 0) in the first factor,
    # (v, 0) in a factor [1 : v]
    rows, real_row = [], schubert_mod._binomial_row

    def recorded_row(ctx, v, d):
        rows.append((v, d))
        return real_row(ctx, v, d)

    monkeypatch.setattr(schubert_mod, "_binomial_row", recorded_row)
    counts = {"vanishing_order_on_stratum": 0, "vanishing_order_at_point": 0, "to_string": 0}
    count_calls(monkeypatch, counts, cli_mod, "vanishing_order_on_stratum")
    count_calls(monkeypatch, counts, schubert_mod, "vanishing_order_at_point")
    count_calls(monkeypatch, counts, WeylElem, "to_string")
    assert main(["strata-table", "--p", str(p), "--k", str(k), "--n", str(n)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 ** n
    assert counts == {"vanishing_order_on_stratum": n + 1, "vanishing_order_at_point": n + 1,
                      "to_string": 0}
    assert rows == []
    ctx = FieldCtx(p, k)
    q, h = ctx.q, hasse_section(ctx, n)
    second = MultiPoly(ctx, n, {((0, 1),) * n: 1})
    c = q - 1
    rest = ((1, 0),) * (n - 1)
    tied = MultiPoly(ctx, n, {((0, 1),) + rest: 1, ((1, 0),) + rest: -ctx.from_index(c)})
    points = all_points(ctx, n)
    for pt in points:
        # the first coordinate vanishes at [0 : 1] alone, the second at [1 : 0]
        assert vanishing_order_at_point(h, pt) == pt.index_coords.count((0, 1))
        assert vanishing_order_at_point(second, pt) == pt.index_coords.count((1, 0))
    assert rows == []
    for pt in points:
        # x11 - c x10 restricts to (t - c) + w at [1 : t], and to 1 - c w at [0 : 1]
        first, others = pt.index_coords[0], pt.index_coords[1:]
        assert vanishing_order_at_point(tied, pt) == (first == (1, c)) + others.count((0, 1))
    assert len(rows) == 2 * (q - 1) * ((q + 1) ** (n - 1) + (n - 1) * q * (q + 1) ** (n - 2))
    assert set(rows) == {(t, 1) for t in range(1, q)} | {(v, 0) for v in range(q)}


def test_monotone_flag_flip_at_small_scale(zip_reports):
    # replacing one differing conjugate line by the Hodge line raises both
    # computed orders by exactly one
    reports = zip_reports(2, 1, 2)
    for (omega, conj), report in reports.items():
        for i, flag in enumerate(report.flags):
            if not flag:
                flipped = conj[:i] + (omega[i],) + conj[i + 1:]
                other = reports[(omega, flipped)]
                assert other.hasse_order == report.hasse_order + 1
                assert other.m_max == report.m_max + 1


# -- one zip, one point, one Weyl word -----------------------------------------------


@pytest.mark.parametrize("p, k, n", EQUIVALENCE_SCALE)
def test_zip_point_and_word_give_one_order(zip_reports, p, k, n):
    # the three quantities of the paper at one point, from three views: the
    # zip (Hasse order, Hodge level), the point of (P^1)^n that its
    # conjugate lines give in the Hodge chart, and the stratum of its
    # relative-position word
    ctx = FieldCtx(p, k)
    h = hasse_section(ctx, n)
    for (omega, conj), report in zip_reports(p, k, n).items():
        pairs, signs = zip(*(block_point_and_sign(ctx, o, c) for o, c in zip(omega, conj)))
        w = WeylElem(signs)
        orders = (report.hasse_order, report.m_max,
                  vanishing_order_at_point(h, PointP1n(ctx, pairs)),
                  vanishing_order_on_stratum(h, w), n - w.length())
        assert len(set(orders)) == 1, (zip_to_json_obj(HilbertZip(ctx, n, omega, conj)),
                                       orders)


# -- serialization ----------------------------------------------------------------------


def test_json_round_trip(F3):
    z = HilbertZip(F3, 2, first_lines(2), ((1, 2), (0, 1)))
    obj = zip_to_json_obj(z)
    assert set(obj) == {"p", "k", "n", "omega", "conj"}
    assert obj["p"] == 3 and obj["k"] == 1
    parsed = zip_from_json_obj(json.loads(json.dumps(obj)))
    assert parsed == z


def test_parsed_zip_equals_the_checked_construction(F4):
    obj = {"p": 2, "k": 2, "n": 2, "omega": [[[0, 1], 1], [0, [1]]],
           "conj": [[1, [1, 1]], [[1], 0]]}
    z = zip_from_json_obj(obj)
    checked = HilbertZip(F4, 2, F4.lines_of(obj["omega"]), F4.lines_of(obj["conj"]))
    assert z == checked and hash(z) == hash(checked)
    assert z.omega == ((1, 3), (0, 1)) and z.conj == ((1, 3), (1, 0))
    assert max_hodge_level(z) == max_hodge_level(checked) == 1


def test_json_accepts_plain_int_coefficients():
    obj = {"p": 2, "k": 1, "n": 1, "omega": [[1, 0]], "conj": [[1, 1]]}
    z = zip_from_json_obj(obj)
    assert z.omega == ((1, 0),) and z.conj == ((1, 1),)


GOOD_OBJ = {"p": 2, "k": 1, "n": 1, "omega": [[1, 0]], "conj": [[1, 1]]}


@pytest.mark.parametrize("extra", [{"perm": [0]}, {"perm": ["0"]}, {"note": None}])
def test_json_ignores_keys_outside_the_schema(extra):
    # zip JSON written before the index permutation was dropped carries a
    # "perm" key
    assert zip_from_json_obj({**GOOD_OBJ, **extra}) == zip_from_json_obj(GOOD_OBJ)


SCHEMA_VIOLATIONS = [
    ({"p": True}, "'p' must be an integer, got True"),  # bools are not integers
    ({"n": 1.0}, "'n' must be an integer, got 1.0"),
    ({"k": "2"}, "'k' must be an integer, got '2'"),
    ({"n": 0, "omega": [], "conj": []}, "'n' must be at least 1, got 0"),
    ({"omega": [[1, 0], [1, 0]]}, "'omega' must be a list of 1 coordinate pairs"),
    ({"omega": [[1, 0, 1]]}, "omega[0] must be a pair of field elements"),
    ({"omega": [[[1, 1], 0]]}, "expected at most 1 coefficients"),  # more than k
    ({"conj": [[1, None]]}, "conj[0] holds None, not an int or a list of ints"),
    ({"conj": {"0": [1, 0]}}, "'conj' must be a list of 1 coordinate pairs"),
    ({"conj": [[[True], 0]]}, "conj[0] holds [True], not an int or a list of ints"),
    ({"conj": [[[1.0], 0]]}, "conj[0] holds [1.0], not an int or a list of ints"),
]


# the whole message is pinned, so a change to the type checks cannot drift its text
@pytest.mark.parametrize("change, message", SCHEMA_VIOLATIONS,
                         ids=[f"change{i}" for i in range(len(SCHEMA_VIOLATIONS))])
def test_json_schema_violations_raise_value_error(change, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        zip_from_json_obj({**GOOD_OBJ, **change})


@pytest.mark.parametrize("obj", [[1, 2], "zip", None,
                                 {key: v for key, v in GOOD_OBJ.items() if key != "conj"}])
def test_json_that_is_no_zip_object_raises_value_error(obj):
    with pytest.raises(ValueError):
        zip_from_json_obj(obj)


def test_report_serialization(F2):
    z = HilbertZip(F2, 2, first_lines(2), first_lines(2))
    r = check_equivalence(z)
    assert r.to_json_obj() == {"flags": [True, True], "hasse_order": 2,
                               "m_max": 2, "consistent": True}
    assert r.tsv_row() == "11\t2\t2\t1"
    # the totals are derived from the flags; no real zip disagrees, so
    # build a report that does
    r = ZipReport((True, False, True), 1)
    assert r.to_json_obj() == {"flags": [True, False, True], "hasse_order": 2,
                               "m_max": 1, "consistent": False}
    assert r.tsv_row() == "101\t2\t1\t0"


def test_zip_equality_ignores_nothing(F2):
    omega = first_lines(1)
    z1 = HilbertZip(F2, 1, omega, omega)
    z2 = HilbertZip(F2, 1, omega, second_lines(1))
    assert z1 != z2


def test_consistency_with_subspace_wedge(F2):
    # the top filtration piece of the total Hodge subspace is exactly the
    # wedge line of the Hodge lines themselves
    from hilbhasse.linalg import induced_filtration, wedge_of_lines
    omega_lines = [line_in_block(F2, 2, i, (1, 0)) for i in range(2)]
    total = Subspace.from_vectors(F2, 4, [r for s in omega_lines for r in s.basis])
    assert induced_filtration(total, 2) == wedge_of_lines(omega_lines)
