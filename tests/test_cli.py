"""Command-line driver: outputs, exit codes, determinism."""

import json
import sys
from math import comb
from types import SimpleNamespace

import pytest

import hilbhasse.cli as cli_mod
import hilbhasse.schubert as schubert_mod
import test_acceptance
from hilbhasse.cli import main
from hilbhasse.errors import BoundExceededError, refuse_above
from hilbhasse.field import FieldCtx
from hilbhasse.schubert import (PointP1n, hasse_section, vanishing_order_at_point,
                                vanishing_order_on_stratum)
from hilbhasse.weyl import all_weyl_elems
from hilbhasse.zipgroup import borel_order, bruhat_census, group_order, orbits
from hilbhasse.zips import check_equivalence, zip_from_json_obj, zip_to_json_obj
from oracles import (chart_order_at_point, chart_order_on_stratum, conj_rows, filtration_level, hodge_span,
                     render_table)
from test_acceptance import EQUIVALENCE_SCALE

CONSISTENT_ZIP = {"p": 2, "k": 1, "n": 2,
                  "omega": [[[1], [0]], [[1], [0]]],
                  "conj": [[[1], [0]], [[0], [1]]]}


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_equivalence_f2_n2(capsys):
    code, out = run_cli(capsys, ["verify-equivalence", "--p", "2", "--n", "2"])
    assert code == 0
    assert out == "81/81 consistent\n"


def test_verify_equivalence_json_format(capsys):
    code, out = run_cli(capsys, ["verify-equivalence", "--p", "3", "--n", "1",
                                 "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {"total": 16, "consistent": 16, "failures": []}


@pytest.mark.parametrize("p, k, n", EQUIVALENCE_SCALE)
def test_sweep_agrees_with_fresh_zips(capsys, monkeypatch, p, k, n):
    # the sweep stores each zip's level; a zip rebuilt from its JSON
    # computes its own, and the conjugate wedge is the reference
    import hilbhasse.cli as cli_mod
    seen = []

    def recording(z):
        report = check_equivalence(z)
        seen.append((z, report))
        return report

    monkeypatch.setattr(cli_mod, "check_equivalence", recording)
    code, out = run_cli(capsys, ["verify-equivalence", "--p", str(p), "--k", str(k),
                                 "--n", str(n)])
    total = (p ** k + 1) ** (2 * n)
    assert code == 0 and out == f"{total}/{total} consistent\n"
    assert len(seen) == total
    for z, report in seen:
        fresh = zip_from_json_obj(zip_to_json_obj(z))
        assert fresh == z, zip_to_json_obj(z)
        assert report == check_equivalence(fresh), zip_to_json_obj(z)
        assert report.m_max == filtration_level(hodge_span(z), conj_rows(z)), zip_to_json_obj(z)


def test_strata_table(capsys):
    code, out = run_cli(capsys, ["strata-table", "--n", "3"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "w\tlength\tcodim\tord"
    assert len(lines) == 9
    for line in lines[1:]:
        w, length, codim, order = line.split("\t")
        assert int(order) == 3 - int(length) == int(codim)


def table_orders(out: str, fmt: str) -> list[tuple[str, int]]:
    """(w, ord) per row of a strata-table in either format."""
    if fmt == "json":
        return [(row["w"], row["ord"]) for row in json.loads(out)]
    return [(w, int(order)) for w, _, _, order in
            (line.split("\t") for line in out.splitlines()[1:])]


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize("p, k, max_n", [(2, 1, 10), (3, 1, 6), (2, 2, 5)])
def test_strata_table_orders_match_the_chart_oracle(capsys, p, k, max_n, fmt):
    # the table takes one order per length; each row's ord must still be the
    # order along its own cell, restricted by the oracle's ChartPoly algebra
    ctx = FieldCtx(p, k)
    for n in range(1, max_n + 1):
        code, out = run_cli(capsys, ["strata-table", "--p", str(p), "--k", str(k),
                                     "--n", str(n), "--format", fmt])
        assert code == 0
        rows = table_orders(out, fmt)
        assert len(rows) == 2 ** n
        h = hasse_section(ctx, n)
        for (label, order), w in zip(rows, all_weyl_elems(n)):
            assert (label, order) == (w.to_string(), chart_order_on_stratum(h, w)), (p, k, n)


def test_a_fault_beyond_the_length_fails_criterion_2(capsys, monkeypatch):
    # one too large on every cell but the first of its length: strata-table
    # asks only those first cells, so its rows stay those of the true order,
    # and criterion 2, which asks every cell up to n = 6, must fail
    def fault(f, w):
        n, length = w.n, w.length()
        first = w.signs == (1,) * (n - length) + (-1,) * length
        return vanishing_order_on_stratum(f, w) + (not first)

    argv = ["strata-table", "--n", "6"]
    expected = run_cli(capsys, argv)
    monkeypatch.setattr(cli_mod, "vanishing_order_on_stratum", fault)
    monkeypatch.setattr(test_acceptance, "vanishing_order_on_stratum", fault)
    assert run_cli(capsys, argv) == expected
    with pytest.raises(AssertionError):
        test_acceptance.run_stratum_orders()


def test_strata_table_order_mismatch_exits_1(capsys, monkeypatch):
    # each length's order along its cell is compared with the codimension:
    # one too large from length 2 on is written as it is, and the first bad
    # length's cell replays with its point, whose order is the true one
    def fault(f, w):
        return vanishing_order_on_stratum(f, w) + (w.length() >= 2)

    monkeypatch.setattr(cli_mod, "vanishing_order_on_stratum", fault)
    code = main(["strata-table", "--n", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.out.splitlines()) == 1 + 2 ** 5
    assert "+++--\t2\t3\t4\n" in captured.out
    message, replay = captured.err.split("\t")
    assert message == ("strata-table mismatch: cell +++-- has codimension 3 but order 4 "
                       "along the cell and 3 at its point")
    replay = json.loads(replay)
    assert (replay["p"], replay["k"], replay["n"], replay["w"]) == (2, 1, 5, "+++--")
    # [0 : 1] in each + factor, [1 : 0] in each - factor
    ctx = FieldCtx(replay["p"], replay["k"])
    pt = PointP1n(ctx, replay["point"])
    assert pt.index_coords == ((0, 1),) * 3 + ((1, 0),) * 2
    h = hasse_section(ctx, replay["n"])
    assert vanishing_order_at_point(h, pt) == chart_order_at_point(h, pt) == 3


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_strata_table_point_order_mismatch_exits_1(capsys, monkeypatch, fmt):
    # the order at each length's point is asked through schubert's
    # attribute and compared too: one too small wherever a factor is
    # [1 : 0] leaves every row's bytes as they were, and fails at length 1
    argv = ["strata-table", "--p", "3", "--n", "4", "--format", fmt]
    expected = run_cli(capsys, argv)[1]
    real = schubert_mod.vanishing_order_at_point

    def fault(f, pt):
        return real(f, pt) - ((1, 0) in pt.index_coords)

    monkeypatch.setattr(schubert_mod, "vanishing_order_at_point", fault)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, expected)
    message, replay = captured.err.split("\t")
    assert message == ("strata-table mismatch: cell +++- has codimension 3 but order 3 "
                       "along the cell and 2 at its point")
    assert json.loads(replay) == {"p": 3, "k": 1, "n": 4, "w": "+++-",
                                  "point": [[[0], [1]]] * 3 + [[[1], [0]]]}


def test_weight_space_eta(capsys):
    code, out = run_cli(capsys, ["weight-space", "--n", "2", "--target", "eta"])
    assert code == 0
    assert out == "dimension\t1\nx10*x20\n"


def test_weight_space_w0eta_and_raw_target(capsys):
    code, out = run_cli(capsys, ["weight-space", "--n", "2", "--target", "w0eta"])
    assert code == 0 and out == "dimension\t1\nx11*x21\n"
    code, out = run_cli(capsys, ["weight-space", "--n", "2",
                                 "--target", "1,0;-2"])
    assert code == 0 and out == "dimension\t0\n"


def test_census(capsys):
    code, out = run_cli(capsys, ["census", "--p", "2", "--n", "1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "w\tlength\tcell_size\texpected"
    assert lines[1] == "+\t0\t2\t2"
    assert lines[2] == "-\t1\t4\t4"
    assert lines[-1].endswith("OK")


def test_orbits(capsys):
    code, out = run_cli(capsys, ["orbits", "--p", "2", "--n", "1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "w\tlength\tcell_size\torbit_count\torbit_sizes"
    sizes = [int(line.split("\t")[2]) for line in lines[1:]]
    assert sum(sizes) == 6


def test_zip_check_agrees_with_library(capsys, tmp_path):
    path = tmp_path / "zip.json"
    path.write_text(json.dumps(CONSISTENT_ZIP))
    code, out = run_cli(capsys, ["zip-check", "--file", str(path)])
    assert code == 0
    report = check_equivalence(zip_from_json_obj(CONSISTENT_ZIP))
    assert out.strip().split("\n")[1] == report.tsv_row()
    code, out = run_cli(capsys, ["zip-check", "--file", str(path),
                                 "--format", "json"])
    assert code == 0
    assert json.loads(out) == report.to_json_obj()


def test_identical_configs_are_byte_identical(capsys):
    argv = ["orbits", "--p", "3", "--n", "1", "--format", "json"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second


def test_output_file(tmp_path, capsys):
    target = tmp_path / "table.tsv"
    code, out = run_cli(capsys, ["strata-table", "--n", "2",
                                 "--output", str(target)])
    assert code == 0 and out == ""
    assert target.read_text().startswith("w\tlength\tcodim\tord\n")


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize("argv", [["strata-table", "--n", "13"],
                                  ["census", "--p", "2", "--n", "13"]],
                         ids=["strata-table", "census"])
def test_streamed_tables_hold_flat_memory(capsys, tmp_path, argv, fmt):
    # both commands write their 2^13 rows in blocks as they compute them;
    # built whole, the rows and their text peak at 3.7-8.7 MB here
    import tracemalloc
    argv = argv + ["--format", fmt]
    target = tmp_path / "table.out"
    tracemalloc.start()
    try:
        code = main(argv + ["--output", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 2 * 2 ** 20, peak
    assert run_cli(capsys, argv) == (0, target.read_text())


TABLE_NS = [1, 2, 3, 4, 5, 6, 7, 8, 13]


def oracle_table(command, ctx, n, fmt):
    """The bytes a table command wrote with one dict or line per row, from
    the library's values, or None where the command refuses n."""
    if command == "strata-table":
        h = hasse_section(ctx, n)
        rows = [(w.to_string(), w.length(), n - w.length(), int(vanishing_order_on_stratum(h, w)))
                for w in all_weyl_elems(n)]
        return render_table(fmt, ("w", "length", "codim", "ord"), rows)
    if command == "census":
        counts = bruhat_census(ctx, n)
        borel, group = borel_order(ctx, n), group_order(ctx, n)
        expected = [ctx.q ** length * borel for length in range(n + 1)]
        total = sum(comb(n, length) * c for length, c in enumerate(counts))
        ok = counts == expected and total == group
        rows = [(w.to_string(), w.length(), counts[w.length()], expected[w.length()])
                for w in all_weyl_elems(n)]
        return render_table(fmt, ("w", "length", "cell_size", "expected"), rows,
                            tail=[f"total\t{total}\tgroup\t{group}\t{'OK' if ok else 'MISMATCH'}"],
                            **({"total": total, "group_size": group, "ok": ok}
                               if fmt == "json" else {}))
    try:
        by_label = orbits(ctx, n)
    except BoundExceededError:
        return None
    rows = [(w.to_string(), w.length(), sum(sizes), len(sizes),
             sizes if fmt == "json" else ",".join(map(str, sizes)))
            for w, sizes in by_label.items()]
    return render_table(fmt, ("w", "length", "cell_size", "orbit_count", "orbit_sizes"), rows)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)], ids=["F2", "F3", "F4"])
@pytest.mark.parametrize("command", ["strata-table", "census", "orbits"])
def test_tables_match_one_render_per_row(capsys, command, p, k):
    # the writer renders the text around each label once per distinct row
    # values and joins a block of rows per head; the bytes are those of one
    # dict or line per row.  From n = 14 the 2^6 cap on a block's rows splits
    # each head count into several blocks, at even and odd n
    ctx = FieldCtx(p, k)
    for n in TABLE_NS + [14, 15] * (p ** k == 2):
        for fmt in ("tsv", "json"):
            expected = oracle_table(command, ctx, n, fmt)
            argv = [command, "--p", str(p), "--k", str(k), "--n", str(n), "--format", fmt]
            assert run_cli(capsys, argv) == ((0, expected) if expected else (3, "")), (n, fmt)


@pytest.mark.parametrize("fmt", ["tsv", "json"])
@pytest.mark.parametrize("command", ["strata-table", "census", "orbits"])
def test_table_output_file_matches_one_render_per_row(tmp_path, capsys, command, fmt):
    n = 3 if command == "orbits" else 5  # the orbit scan refuses F_3 from n = 4
    target = tmp_path / f"table.{fmt}"
    code, out = run_cli(capsys, [command, "--p", "3", "--n", str(n), "--format", fmt,
                                 "--output", str(target)])
    assert (code, out) == (0, "")
    assert target.read_text() == oracle_table(command, FieldCtx(3), n, fmt)


@pytest.mark.parametrize("argv, most", [(["strata-table", "--n", "16"], 2 * (16 + 2)),
                                        (["census", "--p", "2", "--n", "16"], 2 * (16 + 2)),
                                        (["orbits", "--n", "5"], 1)],
                         ids=["strata-table", "census", "orbits"])
def test_json_tables_encode_once_per_length(monkeypatch, tmp_path, argv, most):
    # the sign tables' values depend only on the length, so their 2^n rows
    # need n + 1 encodings and the census frame one more: at most 2(n + 2).
    # orbits encodes its 2^n rows as one list, once
    calls = []
    dumps = json.dumps

    def counted(*args, **kwargs):
        calls.append(1)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counted)
    assert main(argv + ["--format", "json", "--output", str(tmp_path / "t.json")]) == 0
    assert 0 < len(calls) <= most, len(calls)


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_strata_table_writes_a_block_per_head(monkeypatch, fmt):
    # 2^(n - 6) heads of 2^6 rows each at n = 16, one write per block, and
    # one each for the header and the end
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    assert main(["strata-table", "--n", "16", "--format", fmt]) == 0
    assert len(writes) <= 2 ** (16 - 6) + 2, len(writes)


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_census_memory_does_not_grow_with_n(tmp_path, fmt):
    # the census keeps n + 1 counts and streams its 2^n rows, so 16 times
    # the rows cost only their longer lines: the traced peak grows by 27 KB
    # (tsv) and 37 KB (json) from n = 10 to n = 14 here, where one count
    # kept per cell grew it by 650 KB
    import tracemalloc

    def peak(n):
        argv = ["census", "--p", "2", "--n", str(n), "--format", fmt,
                "--output", str(tmp_path / f"n{n}.out")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(14)  # the first run's one-off allocations are not the census's
    small, large = peak(10), peak(14)
    assert large - small < 128 * 2 ** 10, (small, large)


def test_bound_refusal_exit_code(capsys):
    code = main(["verify-equivalence", "--p", "3", "--n", "3", "--bound", "100"])
    assert code == 3


def test_sign_vector_bound_is_checked_up_front(capsys):
    # 2^14 = 16,384 sign vectors: one above the bound is refused before
    # anything is printed, the bound itself is accepted
    code, out = run_cli(capsys, ["strata-table", "--n", "14", "--bound", "16383"])
    assert code == 3 and out == ""
    code, out = run_cli(capsys, ["strata-table", "--n", "14", "--bound", "16384"])
    assert code == 0 and len(out.splitlines()) == 1 + 2 ** 14
    code, out = run_cli(capsys, ["weight-space", "--n", "30"])
    assert code == 3 and out == ""


@pytest.mark.parametrize("argv", [["strata-table", "--n", "20000"],
                                  ["verify-equivalence", "--n", "5000"]])
def test_refusal_of_a_count_too_long_to_print(capsys, argv):
    # 2^20000 and 3^10000 have more digits than str() converts
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("refused: ") and "about 2^" in err


def test_refusal_is_exact_up_to_the_bound_and_estimates_huge_counts():
    refuse_above(9, "scan", 3, 2)
    with pytest.raises(BoundExceededError,
                       match="^scan would visit 18 items, above the bound 17$"):
        refuse_above(17, "scan", 3, 2, 2)
    with pytest.raises(BoundExceededError, match=r"visit about 2\^64 items"):
        refuse_above(0, "scan", 2, 64)
    # near and above the bits at which the exact power is no longer computed,
    # the exponent from logarithms is the exact one
    for exponent in (41000, 41500, 42000, 50000):
        with pytest.raises(BoundExceededError) as exc:
            refuse_above(1, "scan", 3, exponent, 2)
        assert f"about 2^{(2 * 3 ** exponent).bit_length() - 1} " in str(exc.value)
    # a count this large is not certainly above a bound as large
    refuse_above(2 ** 70000, "scan", 2, 70000)
    # a power this large is never computed
    with pytest.raises(BoundExceededError) as exc:
        refuse_above(1_000_000, "scan", 2, 10 ** 18)
    assert str(exc.value) == ("scan would visit about 2^1000000000000000000 items, "
                              "above the bound 1000000")


@pytest.mark.parametrize("argv, err", [
    (["orbits", "--p", "3", "--n", "2", "--bound", "5000"],
     "refused: orbit scan would visit 8064 items, above the bound 5000\n"),
    (["orbits", "--p", "2", "--k", "2", "--n", "3", "--bound", "5000"],
     "refused: orbit scan would visit 10368000 items, above the bound 5000\n"),
    (["orbits", "--p", "2", "--n", "3", "--bound", "1295"],
     "refused: orbit scan would visit 1296 items, above the bound 1295\n"),
    (["orbits", "--p", "3", "--n", "1000000"],
     "refused: orbit scan would visit about 2^4584985 items, above the bound 1000000\n"),
])
def test_orbit_scan_is_refused_before_any_generator_is_built(capsys, monkeypatch, argv, err):
    import hilbhasse.zipgroup as zipgroup_mod

    def unexpected(ctx, n):
        raise AssertionError("generators built for a refused scan")

    monkeypatch.setattr(zipgroup_mod, "zip_group_generators", unexpected)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", err)


@pytest.mark.parametrize("n, code, err", [
    (19, 0, ""),
    (20, 3, "refused: conjugate-wedge expansion would visit 1048576 items, "
            "above the bound 1000000\n"),
    (4000, 3, "refused: conjugate-wedge expansion would visit about 2^4000 items, "
              "above the bound 1000000\n"),
])
def test_zip_check_refuses_a_conjugate_wedge_above_the_bound(capsys, monkeypatch, tmp_path,
                                                             n, code, err):
    # the wedge of n conjugate lines off their Hodge lines has 2^n terms;
    # the check is stubbed, so n = 19 does not pay for them.  A refused zip
    # builds no subspace of its 2n lines of 2n coordinates
    import hilbhasse.cli as cli_mod
    from hilbhasse.linalg import Subspace
    from hilbhasse.zips import ZipReport

    def placed(*args):
        raise AssertionError("a line was placed before the refusal")

    monkeypatch.setattr(cli_mod, "check_equivalence", lambda z: ZipReport((False,) * z.n, 0))
    if code == 3:
        monkeypatch.setattr(Subspace, "__init__", placed)
    path = tmp_path / "zip.json"
    path.write_text(json.dumps({"p": 2, "n": n, "omega": [[1, 0]] * n, "conj": [[1, 1]] * n}))
    assert main(["zip-check", "--file", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.err == err
    assert (captured.out == "") == (code == 3)


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("command", ["verify-equivalence", "strata-table", "weight-space",
                                     "census", "orbits"])
def test_fewer_than_one_factor_is_a_usage_error(capsys, command, n):
    code = main([command, "--n", n])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: need at least one factor\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["strata-table"])  # missing required --n
    assert exc.value.code == 2


def test_missing_zip_file_is_a_usage_error(capsys):
    code = main(["zip-check", "--file", "/no/such/file.json"])
    assert code == 2


def test_bad_perm_is_a_usage_error(capsys):
    # the equivalence does not depend on the splitting type of p, and
    # verify-equivalence takes no permutation
    with pytest.raises(SystemExit) as exc:
        main(["verify-equivalence", "--p", "2", "--n", "2", "--perm", "0,1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --perm" in capsys.readouterr().err


def test_failed_equivalence_prints_replayable_counterexample(capsys, monkeypatch):
    # no real zip is inconsistent, so force a failing report to exercise the
    # counterexample-first output path
    import hilbhasse.cli as cli_mod
    from hilbhasse.zips import ZipReport

    def broken(z):
        flags = (False,) * z.n
        return ZipReport(flags, z.n)

    monkeypatch.setattr(cli_mod, "check_equivalence", broken)
    code, out = run_cli(capsys, ["verify-equivalence", "--p", "2", "--n", "1"])
    assert code == 1
    lines = out.strip().split("\n")
    assert lines[-1] == "0/9 consistent"
    assert len(lines) == 10
    # every counterexample line carries the full zip datum, replayable as is
    first = json.loads(lines[0].split("\t")[1])
    assert set(first) == {"p", "k", "n", "omega", "conj"}
    assert zip_from_json_obj(first) is not None


@pytest.mark.parametrize("text", [
    '{"p": 3, "n": 1, "omega": 5, "conj": [[1, 0]]}',
    '[1, 2]',
    '{"p": 3, "n": 1, "omega": [[1.5, 0]], "conj": [[1, 0]]}',
    # well formed, but F_{2^20} is above the field size limit
    '{"p": 2, "k": 20, "n": 1, "omega": [[[1], [0]]], "conj": [[[1], [0]]]}',
    # n = 20 would refuse the conjugate wedge, but each zip is malformed first
    json.dumps({"p": 2, "n": 20, "omega": [[1, 0]] * 20, "conj": [[1, 1]] * 19 + [[0, 0]]}),
    json.dumps({"p": 2, "n": 20, "omega": [[1, 0]] * 20, "conj": [[1, [0, 1]]] * 20}),
    json.dumps({"p": 4, "n": 20, "omega": [[1, 0]] * 20, "conj": [[1, 1]] * 20}),
])
def test_malformed_zip_json_is_a_usage_error(capsys, tmp_path, text):
    path = tmp_path / "zip.json"
    path.write_text(text)
    code = main(["zip-check", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_orbit_scan_refusal(capsys):
    # |G| = 1,152 passes the group bound; 1,152 x 7 generator actions do not
    code = main(["orbits", "--p", "3", "--n", "2", "--bound", "5000"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "orbit scan" in captured.err


def test_orbit_label_inconsistency_exits_1(capsys, monkeypatch):
    # no real orbit carries two labels, so make the label depend on an entry
    # that varies along every orbit of more than one element
    from hilbhasse.field import FieldCtx
    from hilbhasse.schubert import GroupElem
    from hilbhasse.zipgroup import enumerate_E
    from oracles import zip_act
    from test_golden import FAULTS, label_follows_lower_left as broken

    monkeypatch.setattr(*FAULTS["label_follows_lower_left"])
    code = main(["orbits", "--p", "2", "--n", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("orbit label inconsistency: orbit of size ")
    # after a tab, two members of the orbit replay with their labels
    replay = json.loads(captured.err.split("\t", 1)[1])
    assert (replay["p"], replay["k"], replay["n"]) == (2, 1, 1)
    ctx = FieldCtx(replay["p"], replay["k"])
    members = [GroupElem(FieldCtx(replay["p"], replay["k"]), m["factors"])
               for m in replay["members"]]
    labels = [m["label"] for m in replay["members"]]
    assert len(members) == 2 and labels[0] != labels[1]
    assert [broken(g).to_string() for g in members] == labels
    assert any(zip_act(e, members[0]) == members[1] for e in enumerate_E(ctx, 1))


def test_orbit_label_inconsistency_along_the_torus_exits_1(capsys, monkeypatch):
    # a fault no unipotent move can show: the label flips on factors whose
    # top-left entry is 0 and top-right entry is 1.  Both entries are fixed
    # along every U-orbit with a zero top-left entry, but the torus pair
    # (diag(gamma, 1), diag(gamma^p, 1)) sends the top-right entry b to gamma b
    from hilbhasse.field import FieldCtx
    from hilbhasse.schubert import GroupElem
    from hilbhasse.zipgroup import enumerate_E
    from oracles import zip_act
    from test_golden import FAULTS, label_flips_at_top_row_0_1 as broken

    monkeypatch.setattr(*FAULTS["label_flips_at_top_row_0_1"])
    code = main(["orbits", "--p", "3", "--n", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("orbit label inconsistency: orbit of size ")
    replay = json.loads(captured.err.split("\t", 1)[1])
    assert (replay["p"], replay["k"], replay["n"]) == (3, 1, 1)
    ctx = FieldCtx(replay["p"], replay["k"])
    members = [GroupElem(ctx, m["factors"]) for m in replay["members"]]
    labels = [m["label"] for m in replay["members"]]
    assert len(members) == 2 and labels[0] != labels[1]
    assert [broken(g).to_string() for g in members] == labels
    assert any(zip_act(e, members[0]) == members[1] for e in enumerate_E(ctx, 1))


@pytest.mark.parametrize("p, k, n", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 2, 1),
                                     (2, 4, 1)])
def test_orbit_work_has_closed_form_counts(capsys, monkeypatch, p, k, n):
    # one label per invertible 2x2 matrix, one visit per tuple of U-orbit
    # ids of one determinant (q - 1 orbits of size q^2 and q - 1 of size q
    # per determinant), one generating set, one move-table entry per matrix
    # and unipotent of one factor and per tuple and diagonal pair, no 2x2
    # matrix product, and G is never enumerated.  A determinant is taken once
    # per U-orbit and once per factor of each generator's inverse, never per
    # matrix.  census does none of this work
    import hilbhasse.cli as cli_mod
    import hilbhasse.schubert as schubert_mod
    import hilbhasse.zipgroup as zipgroup_mod
    counts = {"labels": 0, "tuples": 0, "generators": 0, "entries": 0, "products": 0,
              "dets": 0}
    real_label, real_tuples = zipgroup_mod.stratum_label, zipgroup_mod._equal_det_tuples
    real_generators, real_search = zipgroup_mod.zip_group_generators, zipgroup_mod._orbit_search
    real_mul, real_det = schubert_mod.mul_2x2, schubert_mod.det_2x2

    def counted_label(g):
        counts["labels"] += 1
        return real_label(g)

    def counted_tuples(groups, n):
        for t in real_tuples(groups, n):
            counts["tuples"] += 1
            yield t

    def counted_generators(ctx, n):
        counts["generators"] += 1
        return real_generators(ctx, n)

    def counted_search(count, moves):
        assert all(len(move) == count for move in moves)
        counts["entries"] += count * len(moves)
        return real_search(count, moves)

    def counted_mul(x, y, mul, add):
        counts["products"] += 1
        return real_mul(x, y, mul, add)

    def counted_det(f, ctx):
        counts["dets"] += 1
        return real_det(f, ctx)

    def unexpected(*args, **kwargs):
        raise AssertionError("G enumerated")

    monkeypatch.setattr(zipgroup_mod, "stratum_label", counted_label)
    monkeypatch.setattr(zipgroup_mod, "_equal_det_tuples", counted_tuples)
    monkeypatch.setattr(zipgroup_mod, "zip_group_generators", counted_generators)
    monkeypatch.setattr(zipgroup_mod, "_orbit_search", counted_search)
    monkeypatch.setattr(schubert_mod, "mul_2x2", counted_mul)
    monkeypatch.setattr(schubert_mod, "det_2x2", counted_det)
    monkeypatch.setattr(zipgroup_mod, "det_2x2", counted_det)
    monkeypatch.setattr(cli_mod, "enumerate_G", unexpected)
    monkeypatch.setattr(zipgroup_mod, "enumerate_G", unexpected)
    q = p ** k
    gl2 = (q - 1) * q * (q * q - 1)
    tuples = (q - 1) * (2 * (q - 1)) ** n
    expected = {"labels": gl2, "tuples": tuples, "generators": 1,
                "entries": 2 * k * gl2 + (q > 2) * (n + 1) * tuples, "products": 0,
                "dets": 2 * (q - 1) ** 2 + n * zipgroup_mod.generator_count(FieldCtx(p, k), n)}
    for command in ("orbits", "census"):
        code, out, err = _run_in_process(capsys, [command, "--p", str(p), "--k", str(k),
                                                  "--n", str(n)])
        assert (code, err) == (0, ""), command
        assert counts == expected, command


@pytest.mark.parametrize("p, k, n", [(2, 1, 12), (3, 1, 5), (2, 2, 3)])
def test_census_work_has_closed_form_counts(capsys, monkeypatch, p, k, n):
    # a cell's size depends only on its length, so the census is n + 1 sums
    # of counts read off the multiplication table, with no 2x2 determinant
    # taken, and a passing census builds no WeylElem; a failing one builds
    # the first bad cell and names its Weyl lift, still with no determinant
    import hilbhasse.zipgroup as zipgroup_mod
    from hilbhasse.weyl import WeylElem
    from test_golden import FAULTS
    counts = {"determinants": 0, "cells": 0}
    real_det, real_from_signs = zipgroup_mod.det_2x2, WeylElem.from_signs

    def counted_det(f, ctx):
        counts["determinants"] += 1
        return real_det(f, ctx)

    def counted_from_signs(cls, signs):
        counts["cells"] += 1
        return real_from_signs(signs)

    monkeypatch.setattr(zipgroup_mod, "det_2x2", counted_det)
    monkeypatch.setattr(WeylElem, "from_signs", classmethod(counted_from_signs))
    argv = ["census", "--p", str(p), "--k", str(k), "--n", str(n)]
    code, out, err = _run_in_process(capsys, argv)
    assert (code, err, counts) == (0, "", {"determinants": 0, "cells": 0})
    monkeypatch.setattr(*FAULTS["census_doubled"])
    code, out, err = _run_in_process(capsys, argv)
    assert code == 1 and err.startswith(f"census mismatch: cell {'+' * n} ")
    assert counts == {"determinants": 0, "cells": 1}


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                  (31, 1)])
def test_census_counts_from_products_match_the_matrix_scan(p, k):
    # c(d, +1) and c(d, -1) from the q^2 products equal the counts of one
    # scan of the q^4 2x2 matrices by determinant and top-right entry; and
    # the scan's first matrices at the least determinant index, 1, are the
    # Weyl lift's factors, so the lift is the census witness
    import hilbhasse.zipgroup as zipgroup_mod
    from hilbhasse.schubert import GroupElem
    from oracles import det_sign_table, scanned_cell_witness
    ctx = FieldCtx(p, k)
    plus, minus = zipgroup_mod._det_sign_counts(ctx)
    table = det_sign_table(ctx)
    assert {(d, s): c for (d, s), (c, _) in table.items()} == {
        **{(d, 1): plus[d] for d in range(1, ctx.q)},
        **{(d, -1): minus[d] for d in range(1, ctx.q)}}
    for n in (1, 2, 3):
        for w in all_weyl_elems(n):
            assert GroupElem.weyl_lift(ctx, w) == scanned_cell_witness(ctx, w)


def test_census_json(capsys):
    code, out = run_cli(capsys, ["census", "--p", "3", "--n", "1", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {
        "rows": [{"w": "+", "length": 0, "cell_size": 12, "expected": 12},
                 {"w": "-", "length": 1, "cell_size": 36, "expected": 36}],
        "total": 48, "group_size": 48, "ok": True}


def test_census_mismatch_exits_1(capsys, monkeypatch):
    # the census is compared with closed forms for |B| and |G|, so counts
    # that are wrong by a common factor still fail
    import hilbhasse.cli as cli_mod
    from hilbhasse.field import FieldCtx
    from hilbhasse.schubert import GroupElem, bruhat_word
    real = cli_mod.bruhat_census

    def doubled(ctx, n, bound):
        return [2 * count for count in real(ctx, n, bound)]

    monkeypatch.setattr(cli_mod, "bruhat_census", doubled)
    code = main(["census", "--p", "2", "--n", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.endswith("total\t12\tgroup\t6\tMISMATCH\n")
    # after a tab, the first bad cell and one of its elements replay
    assert captured.err.startswith("census mismatch: cell + holds 4 elements, expected 2\t")
    replay = json.loads(captured.err.split("\t", 1)[1])
    assert (replay["p"], replay["k"], replay["n"], replay["w"]) == (2, 1, 1, "+")
    g = GroupElem(FieldCtx(replay["p"], replay["k"]), replay["factors"])
    assert bruhat_word(g).to_string() == replay["w"]


@pytest.mark.parametrize("fmt", ["tsv", "json"])
def test_orbits_size_mismatch_exits_1(capsys, monkeypatch, fmt):
    # the torus fault that only a T-orbit can show: F_2 has no torus pair,
    # so the broken labels reach the table, whose cell sizes are then off the
    # q^l(w) |B| law.  The table is finished before the stderr line
    from hilbhasse.field import FieldCtx
    from hilbhasse.schubert import GroupElem, stratum_label
    from test_golden import FAULTS

    monkeypatch.setattr(*FAULTS["label_flips_at_top_row_0_1"])
    code, out, err = _run_in_process(capsys, ["orbits", "--p", "2", "--n", "1",
                                              "--format", fmt])
    assert code == 1
    if fmt == "tsv":
        assert out == ("w\tlength\tcell_size\torbit_count\torbit_sizes\n"
                       "+\t0\t0\t0\t\n"
                       "-\t1\t6\t2\t4,2\n")
    else:
        assert json.loads(out) == [
            {"w": "+", "length": 0, "cell_size": 0, "orbit_count": 0, "orbit_sizes": []},
            {"w": "-", "length": 1, "cell_size": 6, "orbit_count": 2, "orbit_sizes": [4, 2]}]
    # after a tab, the first bad cell and one element of it replay
    assert err.startswith("orbits mismatch: cell + holds 0 elements, expected 2\t")
    assert err.count("\n") == 1
    replay = json.loads(err.split("\t", 1)[1])
    assert (replay["p"], replay["k"], replay["n"], replay["w"]) == (2, 1, 1, "+")
    g = GroupElem(FieldCtx(replay["p"], replay["k"]), replay["factors"])
    assert stratum_label(g).to_string() == replay["w"]


def test_orbits_size_mismatch_after_passing_rows(capsys, monkeypatch):
    # sizes doubled from length 1 on, over F_3 where -1 != 1, so the
    # replayed element is translated by the inverse of the lift of z: its
    # stratum label, not its Bruhat word, is the bad cell's
    import hilbhasse.cli as cli_mod
    from hilbhasse.field import FieldCtx
    from hilbhasse.schubert import GroupElem, bruhat_word, stratum_label
    real = cli_mod.orbits

    def doubled(ctx, n, bound):
        return {w: [2 * s for s in sizes] if w.length() else sizes
                for w, sizes in real(ctx, n, bound).items()}

    monkeypatch.setattr(cli_mod, "orbits", doubled)
    code, out, err = _run_in_process(capsys, ["orbits", "--p", "3", "--n", "2"])
    assert code == 1
    assert [line.split("\t")[:3] for line in out.splitlines()[1:]] == [
        ["++", "0", "72"], ["+-", "1", "432"], ["-+", "1", "432"], ["--", "2", "1296"]]
    assert err.startswith("orbits mismatch: cell +- holds 432 elements, expected 216\t")
    replay = json.loads(err.split("\t", 1)[1])
    assert (replay["p"], replay["k"], replay["n"], replay["w"]) == (3, 1, 2, "+-")
    ctx = FieldCtx(replay["p"], replay["k"])
    g = GroupElem(ctx, replay["factors"])
    assert stratum_label(g).to_string() == "+-"
    assert bruhat_word(g).to_string() != "+-"


def test_orbits_total_mismatch_exits_1(capsys, monkeypatch):
    # the total is held to |G| from its own closed form, so a wrong |G|
    # fails although every cell obeys the q^l(w) |B| law
    import hilbhasse.cli as cli_mod
    monkeypatch.setattr(cli_mod, "group_order", lambda ctx, n: 7)
    code, out, err = _run_in_process(capsys, ["orbits", "--p", "2", "--n", "1"])
    assert code == 1
    assert out.endswith("-\t1\t4\t1\t4\n")
    assert err == ('orbits mismatch: the cells hold 6 elements, expected 7\t'
                   '{"k": 1, "n": 1, "p": 2}\n')


def test_orbits_frobenius_coupled_n2(capsys):
    code, out = run_cli(capsys, ["orbits", "--p", "2", "--k", "2", "--n", "2"])
    assert code == 0
    sizes = [int(line.split("\t")[2]) for line in out.strip().split("\n")[1:]]
    assert sizes == [432, 1728, 1728, 6912]  # q^l(w) |B| with |B| = 3 * 12^2


def test_orbits_and_census_tables_over_f3_n2(capsys):
    # the full tables, so an orbit merged or split inside a cell shows here
    code, out = run_cli(capsys, ["orbits", "--p", "3", "--n", "2"])
    assert code == 0
    assert out == ("w\tlength\tcell_size\torbit_count\torbit_sizes\n"
                   "++\t0\t72\t4\t18,18,18,18\n"
                   "+-\t1\t216\t4\t54,54,54,54\n"
                   "-+\t1\t216\t4\t54,54,54,54\n"
                   "--\t2\t648\t8\t81,81,81,81,81,81,81,81\n")
    code, out = run_cli(capsys, ["census", "--p", "3", "--n", "2"])
    assert code == 0
    assert out == ("w\tlength\tcell_size\texpected\n"
                   "++\t0\t72\t72\n"
                   "+-\t1\t216\t216\n"
                   "-+\t1\t216\t216\n"
                   "--\t2\t648\t648\n"
                   "total\t1152\tgroup\t1152\tOK\n")


def _run_in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_emit_renders_only_the_format_asked_for(capsys, monkeypatch, fmt):
    # under the golden fault every zip fails: a json run dumps its one object
    # once and builds no FAIL line, a tsv run dumps the zip and the report of
    # each FAIL line and no object.  orbits' json is one dumps, its tsv none
    from test_golden import FAULTS
    calls = []
    real_dumps = json.dumps

    def counted_dumps(*args, **kwargs):
        calls.append(None)
        return real_dumps(*args, **kwargs)

    monkeypatch.setattr(cli_mod.json, "dumps", counted_dumps)
    monkeypatch.setattr(*FAULTS["every_report_fails"])
    code, out, err = _run_in_process(capsys, ["verify-equivalence", "--p", "2", "--n", "2",
                                              "--format", fmt])
    assert (code, err) == (1, "")
    assert len(calls) == (1 if fmt == "json" else 2 * 81)
    assert out.count("FAIL\t") == (0 if fmt == "json" else 81)
    calls.clear()
    code, out, err = _run_in_process(capsys, ["orbits", "--p", "3", "--n", "2", "--format", fmt])
    assert (code, err, len(calls)) == (0, "", int(fmt == "json"))


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch):
    # the shared field contexts outlive a call, so a call must not see
    # anything an earlier call left behind
    import subprocess
    import sys
    from pathlib import Path

    import hilbhasse

    orbits, census = ["orbits", "--p", "3", "--n", "2"], ["census", "--p", "3", "--n", "2"]
    runs = [["census", "--p", "3"], ["--help"], orbits, census, orbits]
    # the full tree after a command's own parser, and that parser after it
    for malformed in (["bogus"], ["orbits", "--n", "2", "extra"], ["orbits", "--help"]):
        runs += [malformed, orbits, census]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    env = {"PYTHONPATH": str(Path(hilbhasse.__file__).parents[1]), "COLUMNS": "80",
           "PYTHONDONTWRITEBYTECODE": "1"}
    fresh = [subprocess.run([sys.executable, "-c", "from hilbhasse.cli import entry; entry()"]
                            + argv, capture_output=True, text=True, env=env)
             for argv in runs]
    in_process = [_run_in_process(capsys, argv) for argv in runs]
    assert in_process == [(r.returncode, r.stdout, r.stderr) for r in fresh]
    assert [code for code, _, _ in in_process] == [2, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 0, 0, 0]


# the parsers build_parser makes: the top level, then one per command
FULL_TREE = ["hilbhasse"] + [f"hilbhasse {name}" for name in (
    "verify-equivalence", "strata-table", "weight-space", "census", "orbits", "zip-check")]


WELL_FORMED = [["verify-equivalence", "--n", "1"], ["strata-table", "--n", "1"],
               ["weight-space", "--n", "1", "--target", "w0eta"], ["census", "--n", "1"],
               ["orbits", "--n", "1", "--format", "json"],
               ["zip-check", "--file", "{tmp}/zip.json"]]


@pytest.mark.parametrize("argv, code, parsers", [
    *[(argv, 0, []) for argv in WELL_FORMED],
    (["--help"], 0, FULL_TREE),
    (["bogus"], 2, FULL_TREE),
    (["orbits", "--n", "1", "extra"], 2, FULL_TREE),
    *[([argv[0]] + [f"{opt}={value}" for opt, value in zip(argv[1::2], argv[2::2])], 0, [])
      for argv in WELL_FORMED],
    (["orbits", "--fo", "json", "--n", "1"], 0, FULL_TREE),
    (["orbits", "--n", "1", "--output", "-"], 0, []),
    (["orbits", "--n", "1", "--output"], 2, FULL_TREE),
    (["orbits", "--p", "-3", "--n", "1"], 2, FULL_TREE),
])
def test_parser_builds_have_closed_form_counts(capsys, monkeypatch, tmp_path, argv, code,
                                               parsers):
    # a well-formed command, with its values as separate words or joined by
    # "=" and a lone "-" among them, is read off its option table and builds
    # no parser; help, an unknown command, a stray word, an abbreviation, an
    # option that ends argv with no value and a separate value other than "-"
    # that starts with "-" build the tree's 7 parsers once, and no parser of
    # a command's own.  No parser outlives its call, so the same call again
    # builds the same parsers
    import argparse

    import hilbhasse.cli as cli_mod
    built, trees = [], []
    real_init, real_tree = argparse.ArgumentParser.__init__, cli_mod.build_parser

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    def counted_tree():
        trees.append(1)
        return real_tree()

    (tmp_path / "zip.json").write_text(json.dumps(CONSISTENT_ZIP))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(cli_mod, "build_parser", counted_tree)
    for _ in range(2):
        del built[:], trees[:]
        assert _run_in_process(capsys, argv)[0] == code
        assert built == parsers
        assert len(trees) == (parsers == FULL_TREE)


@pytest.mark.parametrize("argv, err", [
    (["census", "--p", "3", "--n", "10000000"],
     "refused: census row terms would visit about 2^10000001 items, above the bound 1000000\n"),
    (["census", "--p", "3", "--n", "6", "--bound", "127"],
     "refused: census row terms would visit 128 items, above the bound 127\n"),
    (["census", "--p", "2", "--k", "5", "--n", "1"],
     "refused: 2x2 matrix scan would visit 1048576 items, above the bound 1000000\n"),
    (["census", "--p", "3", "--n", "3", "--bound", "80"],
     "refused: 2x2 matrix scan would visit 81 items, above the bound 80\n"),
])
def test_census_is_refused_before_anything_is_built(capsys, monkeypatch, argv, err):
    # the census scans the q^4 2x2 matrices and sums (q-1) 2^n row terms,
    # each bounded on its own; G is never enumerated
    import hilbhasse.cli as cli_mod
    import hilbhasse.zipgroup as zipgroup_mod

    def unexpected(*args, **kwargs):
        raise AssertionError("G enumerated by the census")

    monkeypatch.setattr(cli_mod, "enumerate_G", unexpected)
    monkeypatch.setattr(zipgroup_mod, "enumerate_G", unexpected)
    assert _run_in_process(capsys, argv) == (3, "", err)
    # one step up, both counts are at their bounds and the census answers
    bound = int(err.split()[-1]) + 1
    if bound < 1000:
        code, out, _ = _run_in_process(capsys, argv[:-1] + [str(bound)])
        assert code == 0 and out.endswith("OK\n")


def test_census_mismatch_replays_without_scanning_g(capsys, monkeypatch):
    # |G| = 3 * 60^4 = 38,880,000 is above the default bound, so the replayed
    # element must come from the factor scan
    import hilbhasse.cli as cli_mod
    import hilbhasse.zipgroup as zipgroup_mod
    from hilbhasse.field import FieldCtx
    from hilbhasse.schubert import GroupElem, bruhat_word
    real = cli_mod.bruhat_census

    def doubled(ctx, n, bound):
        return [2 * count for count in real(ctx, n, bound)]

    def unexpected(*args, **kwargs):
        raise AssertionError("G enumerated by the census")

    monkeypatch.setattr(cli_mod, "bruhat_census", doubled)
    monkeypatch.setattr(cli_mod, "enumerate_G", unexpected)
    monkeypatch.setattr(zipgroup_mod, "enumerate_G", unexpected)
    code, out, err = _run_in_process(capsys, ["census", "--p", "2", "--k", "2", "--n", "4"])
    assert code == 1
    assert out.endswith("total\t77760000\tgroup\t38880000\tMISMATCH\n")
    # |B| = 3^5 * 4^4 = 62,208
    assert err.startswith("census mismatch: cell ++++ holds 124416 elements, "
                          "expected 62208\t")
    replay = json.loads(err.split("\t", 1)[1])
    assert (replay["p"], replay["k"], replay["n"], replay["w"]) == (2, 2, 4, "++++")
    # the checked constructor refuses singular factors and unequal determinants
    ctx = FieldCtx(replay["p"], replay["k"])
    g = GroupElem(ctx, replay["factors"])
    assert len({a * d - b * c for (a, b), (c, d) in g.factors} - {ctx.zero()}) == 1
    assert g.n == 4 and bruhat_word(g).to_string() == replay["w"]
