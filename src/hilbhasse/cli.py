"""Command-line driver for the verification suites and table generators.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage error,
3 enumeration bound refused.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from functools import cache
from itertools import islice, product, starmap
from math import comb

from .errors import DEFAULT_ENUM_BOUND, BoundExceededError, refuse_above
from .field import FieldCtx
from .schubert import hasse_section, torus_weight_space, vanishing_order_on_stratum
from .weyl import WeylElem, all_weyl_elems, hodge_character, weyl_act
# enumerate_E and enumerate_G are not called here; they stay names of this
# module for code that wraps cli.enumerate_E and cli.enumerate_G.
from .zipgroup import (OrbitLabelError, borel_order, bruhat_census, cell_witness,  # noqa: F401
                       enumerate_E, enumerate_G, group_order, orbits)
from .zips import check_equivalence, enumerate_zips, zip_from_json_obj, zip_to_json_obj

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BOUND = 3


def _parse_target(spec: str, n: int):
    if spec == "eta":
        return hodge_character(n)
    if spec == "w0eta":
        return weyl_act(WeylElem.longest(n), hodge_character(n))
    a_part, c_part = spec.split(";")
    return (tuple(int(x) for x in a_part.split(",")), int(c_part))


def _open_output(args: argparse.Namespace):
    """--output as a context manager: the file, opened once and closed on
    leaving, or stdout, left open."""
    return nullcontext(sys.stdout) if args.output == "-" else open(args.output, "w")


def _emit(args: argparse.Namespace, obj, lines: list[str]):
    """A single object as sorted JSON, or its tsv lines, to --output."""
    text = (json.dumps(obj, sort_keys=True) if args.format == "json" else "\n".join(lines)) + "\n"
    with _open_output(args) as out:
        out.write(text)


_CHUNK = 1024  # rows built and written at a time, so memory stays flat in 2^n


def _stream(args: argparse.Namespace, fields: tuple[str, ...], rows, frame=("[", "]"),
            tail: tuple[str, ...] = ()):
    """An iterator of rows, tuples over fields, to --output _CHUNK at a time:
    a sorted JSON list of objects between the frame's two halves, or tsv
    lines under the fields and above the tail."""
    as_json = args.format == "json"
    line = "\t".join(["{}"] * len(fields)) + "\n"
    with _open_output(args) as out:
        out.write(frame[0] if as_json else "\t".join(fields) + "\n")
        sep = ""
        while chunk := list(islice(rows, _CHUNK)):
            if as_json:
                out.write(sep + json.dumps([dict(zip(fields, r)) for r in chunk],
                                           sort_keys=True)[1:-1])
                sep = ", "
            else:
                out.write("".join(starmap(line.format, chunk)))
        out.write(frame[1] + "\n" if as_json else "".join(t + "\n" for t in tail))


def _cmd_verify_equivalence(args: argparse.Namespace) -> int:
    ctx = FieldCtx(args.p, args.k)
    total = 0
    failures = []
    for z in enumerate_zips(ctx, args.n, bound=args.bound):
        total += 1
        report = check_equivalence(z)
        if not report.consistent:
            failures.append((zip_to_json_obj(z), report.to_json_obj()))
    ok = total - len(failures)
    lines = [f"FAIL\t{json.dumps(z, sort_keys=True)}\t{json.dumps(r, sort_keys=True)}"
             for z, r in failures]
    _emit(args, {"total": total, "consistent": ok,
                 "failures": [{"zip": z, "report": r} for z, r in failures]},
          lines + [f"{ok}/{total} consistent"])
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def _refuse_sign_vectors(args: argparse.Namespace):
    """Refuse before enumerating when the 2^n sign vectors exceed --bound."""
    refuse_above(args.bound, "sign-vector enumeration", 2, args.n)


def _cmd_strata_table(args: argparse.Namespace) -> int:
    _refuse_sign_vectors(args)
    ctx = FieldCtx(args.p, args.k)
    h = hasse_section(ctx, args.n)
    rows = ((w.to_string(), (length := w.length()), args.n - length,
             int(vanishing_order_on_stratum(h, w))) for w in all_weyl_elems(args.n))
    _stream(args, ("w", "length", "codim", "ord"), rows)
    return EXIT_OK


def _cmd_weight_space(args: argparse.Namespace) -> int:
    _refuse_sign_vectors(args)
    ctx = FieldCtx(args.p, args.k)
    target = _parse_target(args.target, args.n)
    basis = torus_weight_space(ctx, args.n, target)
    shown = [str(b) for b in basis]
    _emit(args, {"dimension": len(basis), "basis": shown},
          [f"dimension\t{len(basis)}"] + shown)
    return EXIT_OK


def _factors_json(g) -> list:
    """The factors of a group element as 2x2 rows of coefficient lists."""
    return [[[e.to_list() for e in row] for row in f] for f in g.factors]


def _cmd_census(args: argparse.Namespace) -> int:
    ctx = FieldCtx(args.p, args.k)
    counts = bruhat_census(ctx, args.n, bound=args.bound)  # refuses before the closed forms
    # closed forms, independent of the counts under test
    borel_size = borel_order(ctx, args.n)
    group_size = group_order(ctx, args.n)
    expected = [ctx.q ** length * borel_size for length in range(args.n + 1)]
    # counts[l] is the size of each of the comb(n, l) cells of length l.  The
    # first of them, "+" * (n - l) + "-" * l, sits at place 2^l - 1 in
    # all_weyl_elems order, so the first bad cell is the first of the least bad length
    total = sum(comb(args.n, length) * count for length, count in enumerate(counts))
    bad = next((length for length, law in enumerate(expected) if counts[length] != law), None)
    ok = bad is None and total == group_size
    # each place's label, in to_string's alphabet
    rows = (("".join(s), (length := s.count("-")), counts[length], expected[length])
            for s in product("+-", repeat=args.n))
    frame = ("[", "]")  # unused by tsv
    if args.format == "json":
        head, tail = json.dumps({"rows": [], "total": total, "group_size": group_size,
                                 "ok": ok}, sort_keys=True).split('"rows": []')
        frame = (head + '"rows": [', "]" + tail)
    _stream(args, ("w", "length", "cell_size", "expected"), rows, frame,
            tail=(f"total\t{total}\tgroup\t{group_size}\t{'OK' if ok else 'MISMATCH'}",))
    if bad is not None:
        # one element of the bad cell, replayable through GroupElem and
        # built from per-factor witnesses of one determinant, not from G
        w = WeylElem.from_signs((1,) * (args.n - bad) + (-1,) * bad)
        g = cell_witness(ctx, w, args.bound)
        replay = {"p": ctx.p, "k": ctx.k, "n": args.n, "w": w.to_string(),
                  "factors": _factors_json(g)}
        sys.stderr.write(f"census mismatch: cell {w.to_string()} holds {counts[bad]} elements, "
                         f"expected {expected[bad]}\t{json.dumps(replay, sort_keys=True)}\n")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_orbits(args: argparse.Namespace) -> int:
    ctx = FieldCtx(args.p, args.k)
    try:
        by_label = orbits(ctx, args.n, args.bound)
    except OrbitLabelError as exc:
        # two members with different labels, replayable through GroupElem
        members = [{"factors": _factors_json(g), "label": w.to_string()}
                   for g, w in exc.members]
        replay = {"p": ctx.p, "k": ctx.k, "n": args.n, "members": members}
        sys.stderr.write(f"orbit label inconsistency: {exc}\t"
                         f"{json.dumps(replay, sort_keys=True)}\n")
        return EXIT_CHECK_FAILED
    as_json = args.format == "json"
    rows = ((w.to_string(), w.length(), sum(sizes), len(sizes),
             sizes if as_json else ",".join(map(str, sizes))) for w, sizes in by_label.items())
    _stream(args, ("w", "length", "cell_size", "orbit_count", "orbit_sizes"), rows)
    return EXIT_OK


def _cmd_zip_check(args: argparse.Namespace) -> int:
    try:
        if args.file == "-":
            obj = json.load(sys.stdin)
        else:
            with open(args.file) as fh:
                obj = json.load(fh)
    except RecursionError:
        raise ValueError("the JSON is nested too deeply") from None
    report = check_equivalence(zip_from_json_obj(obj))
    _emit(args, report.to_json_obj(), ["flags\thasse_order\tm_max\tconsistent", report.tsv_row()])
    return EXIT_OK if report.consistent else EXIT_CHECK_FAILED


# name: (run, help)
_COMMANDS = {
    "verify-equivalence": (_cmd_verify_equivalence,
                           "check hasse order == filtration level on every zip"),
    "strata-table": (_cmd_strata_table, "vanishing orders along all cells"),
    "weight-space": (_cmd_weight_space, "monomial basis of a torus weight space"),
    "census": (_cmd_census, "Bruhat cell sizes vs the q^l(w) law"),
    "orbits": (_cmd_orbits, "orbit partition refined by stratum labels"),
    "zip-check": (_cmd_zip_check, "run the equivalence check on a zip JSON file"),
}


def _add_arguments(sp: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Command ``name``'s arguments, on its subparser or on a parser of its own."""
    if name == "zip-check":
        sp.add_argument("--file", default="-", help="zip JSON path, - for stdin")
    else:
        sp.add_argument("--p", type=int, default=2, help="field characteristic")
        sp.add_argument("--k", type=int, default=1, help="field extension degree")
        sp.add_argument("--n", type=int, required=True, help="number of factors")
        sp.add_argument("--bound", type=int, default=DEFAULT_ENUM_BOUND,
                        help="refuse enumerations larger than this")
    sp.add_argument("--format", choices=("tsv", "json"), default="tsv")
    sp.add_argument("--output", default="-",
                    help=None if name == "zip-check" else "output path, - for stdout")
    if name == "weight-space":
        sp.add_argument("--target", default="eta", help="eta, w0eta, or explicit 'a1,...,an;c'")
    return sp


@cache  # parse_args does not mutate the parser, so one serves every main call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbhasse",
        description="Exact desk-scale checks relating partial Hasse flags, "
                    "exterior-power filtration levels, Bruhat cells and "
                    "zip-group orbits over small finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


@cache
def _command_parser(name: str) -> argparse.ArgumentParser:
    return _add_arguments(argparse.ArgumentParser(prog=f"hilbhasse {name}"), name)


def _parse_args(argv) -> argparse.Namespace:
    """A well-formed command needs only its own parser.  The full tree parses
    help, an unknown command and stray words, so its messages name them."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _COMMANDS:
        args, extras = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        if "n" in args and args.n < 1:  # zip-check reads n from its file
            raise ValueError("need at least one factor")
        return _COMMANDS[args.command][0](args)
    except BoundExceededError as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return EXIT_BOUND
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
