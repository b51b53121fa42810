"""Print one row of ``golden_cli.json``, run the way ``test_golden`` runs it.

    python tests/make_golden_row.py ARGV... [--stdin FILE] [--fault NAME]

ARGV is the CLI's argv; ``--stdin FILE`` feeds the file's text to stdin and
``--fault NAME`` installs the fault of that name in ``test_golden.FAULTS``.
The row comes from ``test_golden.run_row``, with ``COLUMNS=80`` and the
fault set through ``pytest.MonkeyPatch.context()``, and prints as one JSON
line in the table's key order, without the separating comma.  The package
is imported from ``PYTHONPATH``, so a row that pins a commit's bytes is
built with ``PYTHONPATH`` pointing at that commit's ``src``.
"""

import io
import json
import sys

import pytest

from test_golden import FAULTS, _sha256, run_row


def parse(words: list[str]) -> dict:
    """The row's argv, stdin text and fault from this script's arguments."""
    row = {"argv": [], "stdin": None, "fault": None}
    words = iter(words)
    for word in words:
        if word == "--stdin":
            with open(next(words)) as fh:
                row["stdin"] = fh.read()
        elif word == "--fault":
            row["fault"] = next(words)
            if row["fault"] not in FAULTS:
                raise SystemExit(f"unknown fault {row['fault']!r}; one of {sorted(FAULTS)}")
        else:
            row["argv"].append(word)
    return row


def main(words: list[str]) -> str:
    row = parse(words)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "stdout", out)
        mp.setattr(sys, "stderr", err)
        row["code"] = run_row(row, mp)
    row["stdout"], row["stderr"] = _sha256(out.getvalue()), _sha256(err.getvalue())
    return json.dumps(row)


if __name__ == "__main__":
    print(main(sys.argv[1:]))
