"""The CLI's bytes, pinned: each row of ``golden_cli.json`` holds an argv,
the text fed to stdin (or null), an injected fault (or null), the exit code
(``["SystemExit", code]`` where argparse exits on help or malformed argv),
and the sha256 of the UTF-8 stdout and of the stderr.  Every row runs with
``COLUMNS=80``, since argparse wraps help and usage to the terminal width.

The table is data, never rewritten by this test.  A change that alters a
digest on purpose replaces that row and names its argv and the reason in
CHANGES.md.  A new row is built with ``python tests/make_golden_row.py
ARGV... [--stdin FILE] [--fault NAME]``, with ``PYTHONPATH`` pointing at
the ``src`` of the commit whose bytes it pins (the parent, for a row that
must pass before and after a change).
"""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hilbhasse.cli as cli_mod
import hilbhasse.zipgroup as zipgroup_mod
from hilbhasse.cli import main
from hilbhasse.schubert import stratum_label, vanishing_order_on_stratum
from hilbhasse.weyl import WeylElem, all_weyl_elems
from hilbhasse.zipgroup import bruhat_census
from hilbhasse.zips import ZipReport

ROWS = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


def every_report_fails(z):
    # no real zip is inconsistent; this drives the FAIL output path
    return ZipReport((False,) * z.n, z.n)


def census_doubled(ctx, n, bound):
    # every cell twice its size; drives the census-mismatch output
    return [2 * count for count in bruhat_census(ctx, n, bound)]


def census_doubled_from_length_2(ctx, n, bound):
    # the cells of length 2 and up twice their size: the first bad cell
    # follows rows that pass
    return [2 * count if length >= 2 else count
            for length, count in enumerate(bruhat_census(ctx, n, bound))]


def census_shifted_between_lengths(ctx, n, bound):
    # the length-1 cells one smaller and the length-3 cell three larger: at
    # n = 3 the total still equals |G|, so only the cells show the fault
    return [count - (length == 1) + 3 * (length == 3)
            for length, count in enumerate(bruhat_census(ctx, n, bound))]


def order_one_too_large_from_length_2(f, w):
    # the order along each cell of length 2 and up one too large: a fault
    # that depends on w only through l(w), so it reaches every such row
    return vanishing_order_on_stratum(f, w) + (w.length() >= 2)


def label_follows_lower_left(g):
    # no real orbit carries two labels; this label follows factor 0's
    # bottom-left entry, which a lower unipotent moves along every U-orbit
    return list(all_weyl_elems(g.n))[bool(g.factors[0][1][0])]


def label_flips_at_top_row_0_1(g):
    # flips the label of each factor whose top row is (0, 1).  That row is
    # fixed along every U-orbit, but the torus pair (diag(gamma, 1),
    # diag(gamma^p, 1)) scales it, so only a T-orbit shows two labels; F_2
    # has no torus pair, so there the broken labels reach the table
    signs = stratum_label(g).signs
    return WeylElem(tuple(-s if f[:2] == (0, 1) else s for s, f in zip(signs, g.index_factors)))


FAULTS = {"every_report_fails": (cli_mod, "check_equivalence", every_report_fails),
          "census_doubled": (cli_mod, "bruhat_census", census_doubled),
          "census_doubled_from_length_2": (cli_mod, "bruhat_census",
                                           census_doubled_from_length_2),
          "census_shifted_between_lengths": (cli_mod, "bruhat_census",
                                             census_shifted_between_lengths),
          "order_one_too_large_from_length_2": (cli_mod, "vanishing_order_on_stratum",
                                                order_one_too_large_from_length_2),
          "label_follows_lower_left": (zipgroup_mod, "stratum_label", label_follows_lower_left),
          "label_flips_at_top_row_0_1": (zipgroup_mod, "stratum_label",
                                         label_flips_at_top_row_0_1)}


def _id(i, row):
    return f"{i}:{' '.join(row['argv'])}" + (f" !{row['fault']}" if row["fault"] else "")


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_row(row, monkeypatch):
    """The row's exit code: its argv run with its stdin, its fault and
    ``COLUMNS=80``, each set through ``monkeypatch``."""
    monkeypatch.setenv("COLUMNS", "80")
    if row["stdin"] is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(row["stdin"]))
    if row["fault"] is not None:
        monkeypatch.setattr(*FAULTS[row["fault"]])
    try:
        return main(row["argv"])
    except SystemExit as exc:
        return ["SystemExit", exc.code]


@pytest.mark.parametrize("row", ROWS, ids=[_id(i, row) for i, row in enumerate(ROWS)])
def test_cli_bytes_match_the_table(capsys, monkeypatch, row):
    code = run_row(row, monkeypatch)
    captured = capsys.readouterr()
    assert (code, _sha256(captured.out), _sha256(captured.err)) == (
        row["code"], row["stdout"], row["stderr"]), captured.err


def test_building_a_row_writes_no_bytecode(tmp_path):
    # a row built without PYTHONDONTWRITEBYTECODE leaves no __pycache__ under
    # src/, where a later benchmark's fresh import would read it; the script
    # and a copy of src/ run from tmp_path, so nothing is written in the tree
    tests = Path(__file__).parent
    shutil.copytree(tests.parent / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tests").mkdir()
    for name in ("make_golden_row.py", "test_golden.py", "golden_cli.json"):
        shutil.copy(tests / name, tmp_path / "tests" / name)
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(tmp_path / "src")
    row = ROWS[0]
    run = subprocess.run([sys.executable, str(tmp_path / "tests" / "make_golden_row.py"),
                          *row["argv"]], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == row
    assert list(tmp_path.rglob("__pycache__")) == []
