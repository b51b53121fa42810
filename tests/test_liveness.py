"""Every function in ``src/`` runs or names its role.

A subprocess installs ``sys.setprofile`` before the package is imported, so
that ``FrozenRecord.__init_subclass__`` is seen, and runs every row of
``golden_cli.json`` through ``test_golden.run_row``: the row's argv with its
stdin, its fault and ``COLUMNS=80``.  It reports each function of ``src/``
that some row entered.  An ``ast`` walk lists every def by qualified name.
A def that no row enters is listed in ``ROLES`` with the reason it stays;
an unlisted one fails, and so does a listed one that some row enters or
that no longer exists.

Run as a script, this file is that subprocess, and prints what it saw as
JSON.
"""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hilbhasse"
KEYS = ("bench:", "oracle:", "replay:", "value:", "claim:", "entry:")

# Every def that no golden row enters, with why it stays.  The key says what
# kind of need it is: bench (perfbench names or runs it), oracle (the tests'
# references compute with it), replay (it rebuilds a value from the form a
# failure, a copy or a pickle gives), value (the behaviour of a value type),
# claim (it carries one of the paper's claims or an acceptance criterion),
# entry (an entry point outside main).  The rest names the file or test that
# needs it.
ROLES = {
    "cli.entry": "entry: the hilbhasse console script of pyproject.toml",
    "field.FieldCtx.__reduce__":
        "value: copies and pickles resolve to the shared context, "
        "tests/test_field.py::test_contexts_are_shared_per_field",
    "field.FieldCtx.__call__":
        "value: an int or coefficient list as an element, tests/test_field.py",
    "field.FieldCtx.zero": "value: the zero the tests build vectors with, tests/test_linalg.py",
    "field.FieldCtx.one":
        "oracle: tests/oracles.py compares leads with one and builds chart terms",
    "field.FieldCtx.gen": "value: u, how tests/test_properties.py writes F_256 elements",
    "field.FieldCtx.elements":
        "value: every element in index order, tests/test_field.py's exhaustive field checks",
    "field.FieldCtx.__hash__":
        "value: a polynomial's hash includes its field's, "
        "tests/test_schubert.py::test_multipoly_printing_and_equality",
    "field.FieldCtx.__repr__": "value: names the field in records' reprs, tests/test_records.py",
    "field.FieldElem.ctx": "oracle: tests/oracles.py reads an element's field (is_rref_basis_of)",
    "field.FieldElem.index": "oracle: tests/test_properties.py turns oracle elements into indices",
    "field.FieldElem._coerce": "oracle: every operator below coerces through it, tests/oracles.py",
    "field.FieldElem.__add__": "oracle: tests/oracles.py sums elements (cofactor_det, ChartPoly)",
    "field.FieldElem.__neg__": "oracle: tests/oracles.py negates cofactor terms (cofactor_det)",
    "field.FieldElem.__sub__": "oracle: tests/oracles.py eliminates rows with it (naive_rank)",
    "field.FieldElem.__rsub__": "bench: perfbench/run.py FIELD_OPS counts it in field.elem_ops",
    "field.FieldElem.__mul__": "oracle: tests/oracles.py multiplies elements (mat_mul_2x2)",
    "field.FieldElem.inverse": "oracle: tests/oracles.py scales pivots with it (naive_rank)",
    "field.FieldElem.__truediv__":
        "value: held to the field axioms, "
        "tests/test_properties.py::test_field_axioms_on_random_triples",
    "field.FieldElem.__rtruediv__":
        "bench: perfbench/run.py FIELD_OPS counts it in field.elem_ops",
    "field.FieldElem.__pow__": "value: how tests/test_properties.py writes powers of u",
    "field.FieldElem.frobenius":
        "value: x -> x^p on elements, tests/test_field.py::test_frobenius_is_a_ring_homomorphism",
    "field.FieldElem.__eq__": "oracle: tests/oracles.py compares elements (is_rref_basis_of)",
    "field.FieldElem.__hash__":
        "value: matrices of elements in sets, "
        "tests/test_schubert.py::test_bruhat_word_against_brute_force_cells",
    "field.FieldElem.__repr__": "value: shows a point or subspace, tests/test_properties.py",
    "linalg._rref_rows": "claim: the canonical basis under criterion 7, tests/test_acceptance.py",
    "linalg.Subspace.__init__": "oracle: tests/oracles.py::hodge_span builds the Hodge span",
    "linalg.Subspace.from_vectors":
        "claim: criterion 7's block subspaces, tests/test_acceptance.py; also perfbench/run.py "
        "COUNTED",
    "linalg.Subspace.from_index_rows":
        "claim: the span under from_vectors and induced_filtration, tests/test_acceptance.py",
    "linalg.Subspace.dim":
        "claim: criterion 7 reads each piece's dimension, tests/test_acceptance.py",
    "linalg.Subspace.basis": "value: a subspace's basis as elements, tests/test_linalg.py",
    "linalg.Subspace.reduce": "oracle: tests/oracles.py::adapted_row reduces modulo omega",
    "linalg.Subspace.contains":
        "oracle: the level's definition, "
        "tests/test_properties.py::test_filtration_level_matches_induced_filtration; also "
        "perfbench/run.py COUNTED",
    "linalg.Subspace.__eq__": "claim: the induced_filtration memo's key, tests/test_acceptance.py",
    "linalg.Subspace.__hash__":
        "claim: the induced_filtration memo's key, tests/test_acceptance.py",
    "linalg.Subspace.__repr__":
        "value: shows a subspace in a failed comparison, tests/test_linalg.py",
    "linalg.wedge_basis_index":
        "value: the colex rank of a wedge coordinate, tests/test_linalg.py",
    "linalg.wedge_basis_subsets":
        "claim: the colex order under criterion 7, tests/test_acceptance.py",
    "linalg._colex_ranks": "claim: wedge coordinates under criterion 7, tests/test_acceptance.py",
    "linalg._wedge_terms": "oracle: tests/oracles.py::filtration_level wedges adapted rows",
    "linalg._wedge_coords": "claim: wedge coordinates under criterion 7, tests/test_acceptance.py",
    "linalg.wedge_of_lines":
        "oracle: the level's definition, "
        "tests/test_properties.py::test_filtration_level_matches_induced_filtration; also "
        "perfbench/tracing.py",
    "linalg.induced_filtration":
        "claim: criterion 7's graded dimensions, tests/test_acceptance.py; "
        "perfbench/workloads.py cold_start clears its memo",
    "record.FrozenRecord.__eq__": "value: tests/test_records.py::test_records_are_frozen_values",
    "record.FrozenRecord.__hash__": "value: tests/test_records.py::test_records_are_frozen_values",
    "record.FrozenRecord.__repr__": "value: tests/test_records.py::test_records_are_frozen_values",
    "record.FrozenRecord.__reduce__":
        "replay: copies and pickles go through the constructor, tests/test_records.py",
    "record.FrozenRecord.__ne__":
        "value: a record differs from a plain tuple, "
        "tests/test_records.py::test_records_are_frozen_values",
    "schubert.MultiPoly.__eq__":
        "claim: criterion 3 compares the weight space with the Hasse section, "
        "tests/test_acceptance.py",
    "schubert.MultiPoly.__hash__":
        "value: tests/test_schubert.py::test_multipoly_printing_and_equality",
    "schubert.MultiPoly.__repr__":
        "value: shows a polynomial in a failure, tests/test_properties.py",
    "schubert.PointP1n.n":
        "value: the number of factors, "
        "tests/test_properties.py::test_point_holds_the_normalized_index_pairs",
    "schubert.PointP1n.__eq__":
        "value: tests/test_schubert.py::test_points_of_different_fields_differ",
    "schubert.PointP1n.__hash__":
        "value: tests/test_properties.py::test_point_holds_the_normalized_index_pairs",
    "schubert.PointP1n.__repr__":
        "value: tests/test_properties.py::test_point_holds_the_normalized_index_pairs",
    "schubert.projective_line_reps":
        "claim: the points of one factor, under all_points, tests/test_schubert.py",
    "schubert.all_points":
        "claim: tests/test_schubert.py::test_point_orders_match_stratum_orders_on_cells",
    "schubert.GroupElem.__init__":
        "replay: rebuilds the factors of census and orbit failure JSON, tests/test_cli.py",
    "schubert.GroupElem.__eq__":
        "replay: a replayed member equals the acted one, tests/test_cli.py",
    "schubert.GroupElem.__hash__": "value: group elements in sets, tests/test_zipgroup.py",
    "schubert.GroupElem.__repr__":
        "value: shows a group element in a failure, tests/test_records.py",
    "schubert.bruhat_word":
        "oracle: tests/oracles.py::enumerated_census counts G's cells by it; "
        "also perfbench/tracing.py wraps zipgroup.bruhat_word",
    "schubert.monomial_weight":
        "claim: each monomial's torus weight, "
        "tests/test_schubert.py::test_weight_spaces_exhaust_the_section_space",
    "schubert._binomial_row":
        "claim: chart rows of vanishing_order_at_point where terms tie, tests/test_schubert.py",
    "weyl.WeylElem.identity": "value: the identity sign vector, tests/test_weyl.py",
    "weyl.WeylElem.__mul__":
        "claim: the group law weyl_act is an action of, "
        "tests/test_weyl.py::test_weyl_act_is_a_group_action_preserving_parity",
    "weyl.WeylElem.__eq__":
        "value: tests/test_weyl.py::test_unchecked_constructor_matches_the_checked_one",
    "weyl.WeylElem.__repr__":
        "value: tests/test_weyl.py::test_unchecked_constructor_matches_the_checked_one",
    "weyl.Character.__add__": "claim: criterion 4's pullback identity, tests/test_acceptance.py",
    "weyl.Character.__neg__": "claim: criterion 4's -eta, tests/test_acceptance.py",
    "weyl.Character.__rmul__": "claim: criterion 4's (p - 1) eta, tests/test_acceptance.py",
    "weyl.Character.zero": "value: the zero character, tests/test_weyl.py",
    "weyl.inverse_perm": "claim: criterion 4's sigma^(-1), tests/test_acceptance.py",
    "weyl._check_perm":
        "claim: criterion 4's sigma, checked by the datum and galois_act, tests/test_acceptance.py",
    "weyl.CocharDatum.__new__": "claim: criterion 4's datum, tests/test_acceptance.py",
    "weyl.CocharDatum.split": "claim: criterion 4's split preset, tests/test_acceptance.py",
    "weyl.CocharDatum.inert": "claim: criterion 4's inert preset, tests/test_acceptance.py",
    "weyl.galois_act": "claim: criterion 4's sigma^(-1) action, tests/test_acceptance.py",
    "weyl.zipflag_pullback": "claim: criterion 4's pullback identity, tests/test_acceptance.py",
    "zipgroup._by_det":
        "oracle: enumerate_G and enumerate_E group matrices by determinant, tests/oracles.py",
    "zipgroup.enumerate_G":
        "oracle: all of G for tests/oracles.py::enumerated_census and orbit_partition",
    "zipgroup.enumerate_E":
        "claim: criterion 6's orbit-stabilizer count, tests/test_acceptance.py",
    "zips.HilbertZip.__new__":
        "replay: copies and pickles rebuild a zip through it, tests/test_records.py",
}


def defs():
    """Each def in ``src/`` by qualified name (``module.Class.method``),
    mapped to its file name, first line and name as its code object gives
    them: a decorated def's code starts at its first decorator."""
    out = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([d.lineno for d in child.decorator_list], default=child.lineno)
                assert name not in out, f"{name} is defined twice"
                out[name] = (path.name, first, child.name)
            elif isinstance(child, ast.ClassDef):
                name = f"{prefix}.{child.name}"
            walk(child, name, path)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, path)
    return out


def trace_rows():
    """Run every golden row with a profile hook set before the package is
    imported.  Returns the (file name, first line, name) of each ``src/``
    function entered, and the rows whose bytes differ from the table."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    import test_golden  # the first import of the package
    mismatched = []
    for i, row in enumerate(test_golden.ROWS):
        out, err = io.StringIO(), io.StringIO()
        with (pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            code = test_golden.run_row(row, mp)
        digests = [test_golden._sha256(out.getvalue()), test_golden._sha256(err.getvalue())]
        if [code, *digests] != [row["code"], row["stdout"], row["stderr"]]:
            mismatched.append(i)
    sys.setprofile(None)
    entered = sorted({(Path(c.co_filename).name, c.co_firstlineno, c.co_name) for c in codes
                      if Path(c.co_filename).resolve().parent == SRC})
    return entered, mismatched


@pytest.fixture(scope="module")
def entered():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["mismatched"] == [], "rows whose bytes differ under the trace"
    return {tuple(key) for key in result["entered"]}


def test_every_function_runs_or_names_its_role(entered):
    found = defs()
    idle = {name for name, key in found.items() if key not in entered}
    unlisted = sorted(idle - ROLES.keys())
    listed_but_entered = sorted(ROLES.keys() & found.keys() - idle)
    gone = sorted(ROLES.keys() - found.keys())
    assert (unlisted, listed_but_entered, gone) == ([], [], []), (
        "(defs no row enters that ROLES lacks, ROLES entries a row enters, "
        "ROLES entries that are gone)")


def test_every_role_has_a_key_and_names_what_needs_it():
    root = SRC.parent.parent
    for name, reason in ROLES.items():
        assert reason.startswith(KEYS), name
        named = re.findall(r"((?:tests|perfbench)/\w+\.py|pyproject\.toml)(?:::(\w+))?", reason)
        assert named, name
        for path, test in named:
            assert (root / path).is_file(), (name, path)
            assert not test or f"def {test}(" in (root / path).read_text(), (name, test)


if __name__ == "__main__":
    entered_keys, mismatched_rows = trace_rows()
    print(json.dumps({"entered": entered_keys, "mismatched": mismatched_rows}))
