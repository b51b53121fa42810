"""Command-line driver for the verification suites and table generators.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage error,
3 enumeration bound refused.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from itertools import product
from math import comb

from . import schubert
from .errors import DEFAULT_ENUM_BOUND, BoundExceededError, refuse_above
from .field import FieldCtx
from .schubert import GroupElem, hasse_section, torus_weight_space, vanishing_order_on_stratum
from .weyl import WeylElem, hodge_character, weyl_act
# all_weyl_elems, enumerate_E and enumerate_G are not called here; they stay
# names of this module for code that wraps cli.all_weyl_elems,
# cli.enumerate_E and cli.enumerate_G.
from .weyl import all_weyl_elems  # noqa: F401
from .zipgroup import (OrbitLabelError, bruhat_census, cell_law, enumerate_E,  # noqa: F401
                       enumerate_G, group_order, orbits)
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


def _emit(args: argparse.Namespace, obj, lines):
    """A single object as sorted JSON, or its tsv lines, to --output: each is
    a function of no arguments, and only the one --format asks for is called."""
    text = json.dumps(obj(), sort_keys=True) if args.format == "json" else "\n".join(lines())
    with _open_output(args) as out:
        out.write(text + "\n")


def _stream(args: argparse.Namespace, fields: tuple[str, ...], n: int, by_length,
            frame=("[", "]"), tail: tuple[str, ...] = ()):
    """The 2^n rows (w, by_length[l]) of the sign strings w of length n, l
    the count of "-" in w, in ``product("+-", repeat=n)`` order, to --output:
    a sorted JSON list of objects, w under the first field, between the
    frame's two halves, or tsv lines under the fields and above the tail.

    Permuting the factors carries a cell onto the cell of the permuted sign
    vector, so a row's values depend only on its length and the text around
    a label is rendered once per length.  A label is a head of n - m signs
    and a foot of m, m = min(n // 2, 6).  For each count of "-" in the head,
    the text before the first label and one link per foot (the foot, the
    text after its label, the joint, the text before the next label) are
    joined once, so a head takes one join and one write.  A label is written
    as it is, so it must need no JSON escaping, as a sign string does."""
    as_json = args.format == "json"
    hole = f'"{fields[0]}": ""'  # the label's place in a rendered object

    def render(values) -> tuple[str, str]:
        if as_json:
            obj = dict(zip(fields[1:], values), **{fields[0]: ""})
            before, _, after = json.dumps(obj, sort_keys=True).partition(hole)
            return before + hole[:-1], '"' + after
        return "", "\t" + "\t".join(map(str, values)) + "\n"

    around = [render(values) for values in by_length]  # text before and after, by length
    joint = ", " if as_json else ""
    m = min(n // 2, 6)  # 64 links a head count at most, so the joined lists stay small
    feet = [("".join(s), s.count("-")) for s in product("+-", repeat=m)]
    joined = []  # by the head's count of "-": (text before its first label, links)
    for count in range(n - m + 1):
        ends = [foot + around[count + lf][1] for foot, lf in feet]
        links = [end + joint + around[count + lf][0] for end, (_, lf) in zip(ends, feet[1:])]
        joined.append((around[count][0], links + ends[-1:]))
    with _open_output(args) as out:
        out.write(frame[0] if as_json else "\t".join(fields) + "\n")
        sep = ""
        for s in product("+-", repeat=n - m):
            first, links = joined[s.count("-")]
            head = "".join(s)
            out.write(sep + first + head + head.join(links))
            sep = joint
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
    _emit(args, lambda: {"total": total, "consistent": ok,
                         "failures": [{"zip": z, "report": r} for z, r in failures]},
          lambda: [f"FAIL\t{json.dumps(z, sort_keys=True)}\t{json.dumps(r, sort_keys=True)}"
                   for z, r in failures] + [f"{ok}/{total} consistent"])
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def _refuse_sign_vectors(args: argparse.Namespace):
    """Refuse before enumerating when the 2^n sign vectors exceed --bound."""
    refuse_above(args.bound, "sign-vector enumeration", 2, args.n)


def _cmd_strata_table(args: argparse.Namespace) -> int:
    _refuse_sign_vectors(args)
    n = args.n
    ctx = FieldCtx(args.p, args.k)
    h = hasse_section(ctx, n)
    # The Hasse section is the product of the first coordinates, so permuting
    # the factors fixes it and carries the cell of w onto the cell of the
    # permuted sign vector.  Its order along a cell therefore depends on w
    # only through l(w), as a census cell's size does: one order on the first
    # cell of each length, "+" * (n - l) + "-" * l, serves all comb(n, l)
    # cells of that length.
    firsts = [WeylElem.from_signs((1,) * (n - length) + (-1,) * length)
              for length in range(n + 1)]
    orders = [int(vanishing_order_on_stratum(h, w)) for w in firsts]
    # The paper's pointwise claim at the same cells: the order at the point
    # that is [0 : 1] in each + factor and [1 : 0] in each - factor.  Called
    # as schubert's attribute, where code that wraps it looks.
    points = [schubert.PointP1n(ctx, [(0, 1)] * (n - length) + [(1, 0)] * length)
              for length in range(n + 1)]
    at_points = [schubert.vanishing_order_at_point(h, pt) for pt in points]
    bad = next((length for length in range(n + 1)
                if orders[length] != n - length or at_points[length] != n - length), None)
    # each place's label, in to_string's alphabet and all_weyl_elems order
    _stream(args, ("w", "length", "codim", "ord"), n,
            [(length, n - length, order) for length, order in enumerate(orders)])
    if bad is None:
        return EXIT_OK
    w = firsts[bad].to_string()
    replay = {"p": ctx.p, "k": ctx.k, "n": n, "w": w,
              "point": [[u.to_list(), v.to_list()] for u, v in points[bad].coords]}
    _write_replay(f"strata-table mismatch: cell {w} has codimension {n - bad} but order "
                  f"{orders[bad]} along the cell and {at_points[bad]} at its point", replay)
    return EXIT_CHECK_FAILED


def _cmd_weight_space(args: argparse.Namespace) -> int:
    _refuse_sign_vectors(args)
    ctx = FieldCtx(args.p, args.k)
    target = _parse_target(args.target, args.n)
    basis = torus_weight_space(ctx, args.n, target)
    shown = [str(b) for b in basis]
    _emit(args, lambda: {"dimension": len(basis), "basis": shown},
          lambda: [f"dimension\t{len(basis)}"] + shown)
    return EXIT_OK


def _write_replay(message: str, replay: dict):
    """One stderr line: what failed, a tab, and the JSON that replays it."""
    sys.stderr.write(f"{message}\t{json.dumps(replay, sort_keys=True)}\n")


def _factors_json(g) -> list:
    """The factors of a group element as 2x2 rows of coefficient lists."""
    return [[[e.to_list() for e in row] for row in f] for f in g.factors]


def _write_cell_mismatch(args: argparse.Namespace, ctx: FieldCtx, w, size: int, law: int, g):
    """The stderr line of a cell off the q^l(w) |B| law, with g, an element
    of the cell, replayable through GroupElem."""
    _write_replay(f"{args.command} mismatch: cell {w.to_string()} holds {size} elements, "
                  f"expected {law}", {"p": ctx.p, "k": ctx.k, "n": args.n, "w": w.to_string(),
                                      "factors": _factors_json(g)})


def _cmd_census(args: argparse.Namespace) -> int:
    ctx = FieldCtx(args.p, args.k)
    counts = bruhat_census(ctx, args.n, bound=args.bound)  # refuses before the closed forms
    # closed forms, independent of the counts under test
    expected = cell_law(ctx, args.n)
    group_size = group_order(ctx, args.n)
    # counts[l] is the size of each of the comb(n, l) cells of length l.  The
    # first of them, "+" * (n - l) + "-" * l, sits at place 2^l - 1 in
    # all_weyl_elems order, so the first bad cell is the first of the least bad length
    total = sum(comb(args.n, length) * count for length, count in enumerate(counts))
    bad = next((length for length, law in enumerate(expected) if counts[length] != law), None)
    ok = bad is None and total == group_size
    frame = ("[", "]")  # unused by tsv
    if args.format == "json":
        head, tail = json.dumps({"rows": [], "total": total, "group_size": group_size,
                                 "ok": ok}, sort_keys=True).split('"rows": []')
        frame = (head + '"rows": [', "]" + tail)
    # each place's label, in to_string's alphabet
    _stream(args, ("w", "length", "cell_size", "expected"), args.n,
            list(zip(range(args.n + 1), counts, expected)), frame,
            tail=(f"total\t{total}\tgroup\t{group_size}\t{'OK' if ok else 'MISMATCH'}",))
    if bad is not None:
        # one element of the bad cell, replayable through GroupElem: the Weyl
        # lift, the cell's first element in enumerate_G order, since the least
        # determinant index is 1, whose first matrices are the lift's factors
        w = WeylElem.from_signs((1,) * (args.n - bad) + (-1,) * bad)
        _write_cell_mismatch(args, ctx, w, counts[bad], expected[bad], GroupElem.weyl_lift(ctx, w))
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
        _write_replay(f"orbit label inconsistency: {exc}", replay)
        return EXIT_CHECK_FAILED
    # closed forms, independent of the sizes under test: each cell holds
    # q^l(w) |B| elements, as census's Bruhat cells do, and all of them |G|
    expected = cell_law(ctx, args.n)
    cells = {w: sum(sizes) for w, sizes in by_label.items()}
    bad = next((w for w, size in cells.items() if size != expected[w.length()]), None)
    fields = ("w", "length", "cell_size", "orbit_count", "orbit_sizes")
    rows = [(w.to_string(), w.length(), cells[w], len(sizes), sizes)
            for w, sizes in by_label.items()]
    _emit(args, lambda: [dict(zip(fields, row)) for row in rows],
          lambda: ["\t".join(fields)] + ["\t".join([*map(str, head), ",".join(map(str, sizes))])
                                         for *head, sizes in rows])
    if bad is not None:
        # c z^(-1) has stratum label bruhat_word(c), z the longest element as
        # orbits labels with: the first element of the Bruhat cell of w, its
        # Weyl lift, times the lift of z^(-1)
        z_inv = GroupElem.weyl_lift(ctx, WeylElem.longest(args.n)).inverse()
        _write_cell_mismatch(args, ctx, bad, cells[bad], expected[bad.length()],
                             GroupElem.weyl_lift(ctx, bad) * z_inv)
        return EXIT_CHECK_FAILED
    if (total := sum(cells.values())) != (group_size := group_order(ctx, args.n)):
        _write_replay(f"orbits mismatch: the cells hold {total} elements, expected {group_size}",
                      {"p": ctx.p, "k": ctx.k, "n": args.n})
        return EXIT_CHECK_FAILED
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
    _emit(args, report.to_json_obj,
          lambda: ["flags\thasse_order\tm_max\tconsistent", report.tsv_row()])
    return EXIT_OK if report.consistent else EXIT_CHECK_FAILED


_FORMAT = ("--format", ("tsv", "json"), "tsv", None)
# each option as (name, int or str or its choices, default, help); no default: required
_FIELD_OPTIONS = (("--p", int, 2, "field characteristic"),
                  ("--k", int, 1, "field extension degree"),
                  ("--n", int, None, "number of factors"),
                  ("--bound", int, DEFAULT_ENUM_BOUND, "refuse enumerations larger than this"),
                  _FORMAT, ("--output", str, "-", "output path, - for stdout"))

# name: (run, help, options)
_COMMANDS = {
    "verify-equivalence": (_cmd_verify_equivalence,
                           "check hasse order == filtration level on every zip", _FIELD_OPTIONS),
    "strata-table": (_cmd_strata_table, "vanishing orders along all cells", _FIELD_OPTIONS),
    "weight-space": (_cmd_weight_space, "monomial basis of a torus weight space",
                     _FIELD_OPTIONS + (("--target", str, "eta",
                                        "eta, w0eta, or explicit 'a1,...,an;c'"),)),
    "census": (_cmd_census, "Bruhat cell sizes vs the q^l(w) law", _FIELD_OPTIONS),
    "orbits": (_cmd_orbits, "orbit partition refined by stratum labels", _FIELD_OPTIONS),
    "zip-check": (_cmd_zip_check, "run the equivalence check on a zip JSON file",
                  (("--file", str, "-", "zip JSON path, - for stdin"), _FORMAT,
                   ("--output", str, "-", None))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hilbhasse",
        description="Exact desk-scale checks relating partial Hasse flags, "
                    "exterior-power filtration levels, Bruhat cells and "
                    "zip-group orbits over small finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for opt, kind, default, opt_help in options:
            sp.add_argument(opt, **{"choices" if isinstance(kind, tuple) else "type": kind},
                            default=default, required=default is None, help=opt_help)
    return parser


def _read_args(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace the full tree gives a well-formed command, read off its
    option table: exact names as --opt value or --opt=value, the last repeat
    winning, a lone "-" a value as argparse reads it.  None for all else, for
    argparse to answer: help, "--", an unknown or abbreviated word, a missing
    or bad value, a missing --n, or a separate value other than "-" that
    starts with "-", which argparse may take for an option."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][2]
    kinds = {opt: kind for opt, kind, _, _ in options}
    values = {opt[2:]: default for opt, _, default, _ in options}
    words = iter(argv[1:])
    for word in words:
        opt, eq, value = word.partition("=")
        if opt not in kinds or not eq and ((value := next(words, None)) is None  # argv ended
                                           or value != "-" and value.startswith("-")):
            return None
        kind = kinds[opt]
        if isinstance(kind, tuple):
            if value not in kind:
                return None
        else:
            try:
                value = kind(value)
            except ValueError:
                return None
        values[opt[2:]] = value
    return None if None in values.values() else argparse.Namespace(command=argv[0], **values)


def _parse_args(argv) -> argparse.Namespace:
    """A well-formed command is read off its option table; argparse's full
    tree parses the rest and writes every help text and usage error."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read_args(argv)
    return build_parser().parse_args(argv) if args is None else args


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
