"""Zip data: construction from Frobenius matrices, Hasse flags, filtration
levels and the exhaustive equivalence check."""

import json

import pytest

from hilbhasse.errors import BoundExceededError
from hilbhasse.linalg import Matrix, Subspace
from hilbhasse.zips import (DegenerateZipError, HilbertZip, ZipReport, check_equivalence,
                            enumerate_zips, hasse_order, inert_perm,
                            line_in_block, max_hodge_level, partial_hasse_flags,
                            split_perm, zip_from_frobenius, zip_from_json_obj,
                            zip_to_json_obj)


def first_lines(ctx, n):
    """Omega_i = span(first basis vector of block i) for every block."""
    return tuple(line_in_block(ctx, n, i, (1, 0)) for i in range(n))


def second_lines(ctx, n):
    return tuple(line_in_block(ctx, n, i, (0, 1)) for i in range(n))


# -- construction ------------------------------------------------------------------


def test_zip_validation(F2):
    omega = first_lines(F2, 2)
    with pytest.raises(ValueError):
        HilbertZip(F2, 2, (0, 0), omega, omega)  # not a permutation
    off_block = (line_in_block(F2, 2, 1, (1, 0)), line_in_block(F2, 2, 1, (0, 1)))
    with pytest.raises(ValueError):
        HilbertZip(F2, 2, (0, 1), off_block, omega)


def test_line_in_block_rejects_zero_vector(F2):
    with pytest.raises(ValueError):
        line_in_block(F2, 2, 0, (0, 0))


def test_inert_perm_is_a_cycle():
    assert split_perm(3) == (0, 1, 2)
    assert inert_perm(3) == (2, 0, 1)
    assert inert_perm(1) == (0,)


def test_frobenius_construction_ordinary(F2):
    n = 2
    omega = first_lines(F2, n)
    identity = [Matrix.identity(F2, 2)] * n
    z = zip_from_frobenius(F2, n, split_perm(n), omega, identity)
    assert z.conj == second_lines(F2, n)
    assert partial_hasse_flags(z) == (False, False)


def test_frobenius_construction_with_image_inside_omega(F3):
    n = 2
    omega = first_lines(F3, n)
    into_omega = [Matrix.from_rows(F3, [[0, 1], [0, 0]])] * n
    z = zip_from_frobenius(F3, n, split_perm(n), omega, into_omega)
    assert z.conj == omega
    assert partial_hasse_flags(z) == (True, True)


def test_frobenius_construction_rejects_zero_matrix(F2):
    omega = first_lines(F2, 1)
    with pytest.raises(DegenerateZipError):
        zip_from_frobenius(F2, 1, split_perm(1), omega, [Matrix.zeros(F2, 2, 2)])


def test_frobenius_construction_rejects_killed_complement(F2):
    omega = first_lines(F2, 1)
    kills_e1 = Matrix.from_rows(F2, [[1, 0], [0, 0]])
    with pytest.raises(DegenerateZipError):
        zip_from_frobenius(F2, 1, split_perm(1), omega, [kills_e1])


def test_frobenius_construction_twists_coefficients(F4):
    u = F4.gen()
    omega = first_lines(F4, 1)
    m = Matrix.from_rows(F4, [[0, u], [0, 1]])
    z = zip_from_frobenius(F4, 1, split_perm(1), omega, [m])
    # complement generator is the standard e1, fixed by Frobenius, so the
    # conjugate line is the matrix column span(u, 1)
    assert z.conj[0] == line_in_block(F4, 1, 0, (u, 1))


def test_frobenius_construction_inert_routing(F2):
    n = 2
    omega = (line_in_block(F2, n, 0, (1, 0)), line_in_block(F2, n, 1, (1, 1)))
    identity = [Matrix.identity(F2, 2)] * n
    z = zip_from_frobenius(F2, n, inert_perm(n), omega, identity)
    # block 0 is fed from block 1 whose line is (1, 1): complement generator
    # is e0, image is e0 placed in block 0; block 1 is fed from block 0 whose
    # line is (1, 0): complement generator is e1
    assert z.conj[0] == line_in_block(F2, n, 0, (1, 0))
    assert z.conj[1] == line_in_block(F2, n, 1, (0, 1))


# -- flags and orders ------------------------------------------------------------------


def test_flags_all_set_when_lines_coincide(F2):
    n = 3
    omega = first_lines(F2, n)
    z = HilbertZip(F2, n, split_perm(n), omega, omega)
    assert partial_hasse_flags(z) == (True,) * n
    assert hasse_order(z) == n


def test_flags_all_clear_when_lines_differ(F2):
    n = 3
    z = HilbertZip(F2, n, split_perm(n), first_lines(F2, n), second_lines(F2, n))
    assert partial_hasse_flags(z) == (False,) * n
    assert hasse_order(z) == 0


def test_flags_mixed_case(F2):
    omega = first_lines(F2, 2)
    conj = (line_in_block(F2, 2, 0, (1, 0)), line_in_block(F2, 2, 1, (1, 1)))
    z = HilbertZip(F2, 2, split_perm(2), omega, conj)
    assert partial_hasse_flags(z) == (True, False)
    assert hasse_order(z) == 1


def test_max_level_when_conjugate_equals_hodge(F2):
    for n in (1, 2, 3):
        omega = first_lines(F2, n)
        z = HilbertZip(F2, n, split_perm(n), omega, omega)
        assert max_hodge_level(z) == n


def test_max_level_when_all_lines_differ(F2):
    for n in (1, 2, 3):
        z = HilbertZip(F2, n, split_perm(n), first_lines(F2, n), second_lines(F2, n))
        assert max_hodge_level(z) == 0


def test_max_level_zero_for_every_fully_split_configuration(F2):
    # exhaustive over F_2, n <= 3: whenever no conjugate line matches its
    # Hodge line, the wedge line escapes even the first filtration piece
    for n in (1, 2, 3):
        for z in enumerate_zips(F2, n, split_perm(n)):
            if all(c != o for c, o in zip(z.conj, z.omega)):
                assert max_hodge_level(z) == 0


def test_max_level_mixed_case(F2):
    omega = first_lines(F2, 2)
    conj = (omega[0], line_in_block(F2, 2, 1, (0, 1)))
    z = HilbertZip(F2, 2, split_perm(2), omega, conj)
    assert max_hodge_level(z) == 1


def test_check_equivalence_reports(F2):
    n = 2
    omega = first_lines(F2, n)
    ordinary = HilbertZip(F2, n, split_perm(n), omega, second_lines(F2, n))
    r = check_equivalence(ordinary)
    assert (r.hasse_order, r.m_max, r.consistent) == (0, 0, True)
    superspecial = HilbertZip(F2, n, split_perm(n), omega, omega)
    r = check_equivalence(superspecial)
    assert (r.hasse_order, r.m_max, r.consistent) == (n, n, True)


def test_all_f2_n2_configurations_are_consistent(zip_reports):
    reports = zip_reports(2, 2, "split")
    assert len(reports) == 81
    assert all(r.consistent for r in reports.values())


# -- enumeration ---------------------------------------------------------------------


def test_enumeration_counts(F2, F3):
    assert len(list(enumerate_zips(F2, 1, split_perm(1)))) == 9
    assert len(list(enumerate_zips(F2, 2, split_perm(2)))) == 81
    assert len(list(enumerate_zips(F3, 1, split_perm(1)))) == 16


def test_enumeration_is_deterministic(F2):
    a = [zip_to_json_obj(z) for z in enumerate_zips(F2, 1, split_perm(1))]
    b = [zip_to_json_obj(z) for z in enumerate_zips(F2, 1, split_perm(1))]
    assert a == b


def test_enumeration_respects_bound(F3):
    with pytest.raises(BoundExceededError):
        list(enumerate_zips(F3, 3, split_perm(3), bound=100))


def test_enumeration_needs_a_factor(F2):
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least one factor"):
            next(enumerate_zips(F2, n, split_perm(0)))


def test_consistency_does_not_depend_on_perm(zip_reports):
    # the flags and the filtration level only read the line data, so the
    # index permutation cannot break the equivalence
    split_reports = zip_reports(2, 2, "split")
    inert_reports = zip_reports(2, 2, "inert")
    assert split_reports.keys() == inert_reports.keys()
    for key, report in split_reports.items():
        other = inert_reports[key]
        assert report.consistent and other.consistent
        assert (report.hasse_order, report.m_max) == (other.hasse_order, other.m_max)


def test_monotone_flag_flip_at_small_scale(zip_reports):
    # replacing one differing conjugate line by the Hodge line raises both
    # computed orders by exactly one
    reports = zip_reports(2, 2, "split")
    for (omega, conj), report in reports.items():
        for i, flag in enumerate(report.flags):
            if not flag:
                flipped = conj[:i] + (omega[i],) + conj[i + 1:]
                other = reports[(omega, flipped)]
                assert other.hasse_order == report.hasse_order + 1
                assert other.m_max == report.m_max + 1


# -- serialization ----------------------------------------------------------------------


def test_json_round_trip(F3):
    omega = first_lines(F3, 2)
    conj = (line_in_block(F3, 2, 0, (1, 2)), line_in_block(F3, 2, 1, (0, 1)))
    z = HilbertZip(F3, 2, inert_perm(2), omega, conj)
    obj = zip_to_json_obj(z)
    assert obj["p"] == 3 and obj["k"] == 1 and obj["perm"] == [1, 0]
    parsed = zip_from_json_obj(json.loads(json.dumps(obj)))
    assert parsed == z


def test_json_accepts_plain_int_coefficients():
    obj = {"p": 2, "k": 1, "n": 1, "perm": [0], "omega": [[1, 0]], "conj": [[1, 1]]}
    z = zip_from_json_obj(obj)
    assert z.omega[0] == line_in_block(z.ctx, 1, 0, (1, 0))
    assert z.conj[0] == line_in_block(z.ctx, 1, 0, (1, 1))


GOOD_OBJ = {"p": 2, "k": 1, "n": 1, "perm": [0], "omega": [[1, 0]], "conj": [[1, 1]]}


@pytest.mark.parametrize("change", [
    {"p": True},                        # bools are not integers
    {"n": 1.0},
    {"k": "2"},
    {"n": 0, "omega": [], "conj": []},
    {"perm": 0},
    {"perm": ["0"]},
    {"omega": [[1, 0], [1, 0]]},        # more lines than n
    {"omega": [[1, 0, 1]]},             # not a pair
    {"omega": [[[1, 1], 0]]},           # more coefficients than k
    {"conj": [[1, None]]},
    {"conj": {"0": [1, 0]}},
])
def test_json_schema_violations_raise_value_error(change):
    with pytest.raises(ValueError):
        zip_from_json_obj({**GOOD_OBJ, **change})


@pytest.mark.parametrize("obj", [[1, 2], "zip", None,
                                 {key: v for key, v in GOOD_OBJ.items() if key != "conj"}])
def test_json_that_is_no_zip_object_raises_value_error(obj):
    with pytest.raises(ValueError):
        zip_from_json_obj(obj)


def test_report_serialization(F2):
    z = HilbertZip(F2, 2, split_perm(2), first_lines(F2, 2), first_lines(F2, 2))
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
    omega = first_lines(F2, 1)
    z1 = HilbertZip(F2, 1, (0,), omega, omega)
    z2 = HilbertZip(F2, 1, (0,), omega, second_lines(F2, 1))
    assert z1 != z2


def test_consistency_with_subspace_wedge(F2):
    # the top filtration piece of the total Hodge subspace is exactly the
    # wedge line of the Hodge lines themselves
    from hilbhasse.linalg import induced_filtration, wedge_of_lines
    omega_lines = first_lines(F2, 2)
    total = Subspace.from_vectors(F2, 4, [r for s in omega_lines for r in s.basis])
    assert induced_filtration(total, 2) == wedge_of_lines(omega_lines)
