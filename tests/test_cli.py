"""Command-line driver: outputs, exit codes, determinism."""

import json

import pytest

from hilbhasse.cli import main
from hilbhasse.errors import BoundExceededError, refuse_above
from hilbhasse.zips import check_equivalence, zip_from_json_obj, zip_to_json_obj
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
    # computes its own
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
        assert z.hodge == fresh.hodge, zip_to_json_obj(z)
        assert report == check_equivalence(fresh), zip_to_json_obj(z)


def test_strata_table(capsys):
    code, out = run_cli(capsys, ["strata-table", "--n", "3"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "w\tlength\tcodim\tord"
    assert len(lines) == 9
    for line in lines[1:]:
        w, length, codim, order = line.split("\t")
        assert int(order) == 3 - int(length) == int(codim)


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
    import hilbhasse.cli as cli_mod

    def unexpected(ctx, n):
        raise AssertionError("generators built for a refused scan")

    monkeypatch.setattr(cli_mod, "zip_group_generators", unexpected)
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
    # places none of its 2n lines of 2n coordinates
    import hilbhasse.cli as cli_mod
    import hilbhasse.zips as zips_mod
    from hilbhasse.zips import ZipReport

    def placed(*args):
        raise AssertionError("a line was placed before the refusal")

    monkeypatch.setattr(cli_mod, "check_equivalence", lambda z: ZipReport((False,) * z.n, 0))
    if code == 3:
        monkeypatch.setattr(zips_mod, "Subspace", placed)
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
    import hilbhasse.zipgroup as zipgroup_mod
    from hilbhasse.field import FieldCtx
    from hilbhasse.schubert import GroupElem
    from hilbhasse.weyl import CocharDatum, all_weyl_elems
    from hilbhasse.zipgroup import enumerate_E, zip_act

    def broken(g, datum):
        return all_weyl_elems(g.n)[bool(g.factors[0][1][0])]

    monkeypatch.setattr(zipgroup_mod, "stratum_label", broken)
    code = main(["orbits", "--p", "2", "--n", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("orbit label inconsistency: orbit of size ")
    # after a tab, two members of the orbit replay with their labels
    replay = json.loads(captured.err.split("\t", 1)[1])
    assert (replay["p"], replay["k"], replay["n"]) == (2, 1, 1)
    ctx = FieldCtx(replay["p"], replay["k"])
    datum = CocharDatum.split(replay["n"], ctx.p)
    members = [GroupElem(FieldCtx(replay["p"], replay["k"]), m["factors"])
               for m in replay["members"]]
    labels = [m["label"] for m in replay["members"]]
    assert len(members) == 2 and labels[0] != labels[1]
    assert [broken(g, datum).to_string() for g in members] == labels
    assert any(zip_act(e, members[0]) == members[1] for e in enumerate_E(ctx, 1))


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
        return [(w, 2 * count) for w, count in real(ctx, n, bound)]

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


def test_repeated_main_calls_match_fresh_processes(capsys, monkeypatch):
    # one parser serves every main call in a process, so a call must not see
    # anything an earlier call left behind
    import subprocess
    import sys
    from pathlib import Path

    import hilbhasse

    runs = [["census", "--p", "3"], ["--help"], ["orbits", "--p", "3", "--n", "2"],
            ["census", "--p", "3", "--n", "2"], ["orbits", "--p", "3", "--n", "2"]]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    env = {"PYTHONPATH": str(Path(hilbhasse.__file__).parents[1]), "COLUMNS": "80",
           "PYTHONDONTWRITEBYTECODE": "1"}
    fresh = [subprocess.run([sys.executable, "-c", "from hilbhasse.cli import entry; entry()"]
                            + argv, capture_output=True, text=True, env=env)
             for argv in runs]
    in_process = [_run_in_process(capsys, argv) for argv in runs]
    assert in_process == [(r.returncode, r.stdout, r.stderr) for r in fresh]
    assert [code for code, _, _ in in_process] == [2, 0, 0, 0, 0]


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
        return [(w, 2 * count) for w, count in real(ctx, n, bound)]

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
