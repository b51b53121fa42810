"""The package's public names, and the imports of its modules."""

import ast
from pathlib import Path

import pytest

import hilbhasse

MODULES = sorted(p for p in Path(hilbhasse.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def test_every_public_name_resolves_once():
    names = hilbhasse.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(hilbhasse, name), name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_marked(path):
    # no linter runs here, so this is the F401 check: a name a module imports
    # is read somewhere in it, unless the first line of its import statement
    # says "# noqa: F401", as for names kept for perfbench's tracer to patch;
    # such a mark must cover at least one unused name
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        unused = [name for name in bound if name not in read]
        where = f"{path.name}:{node.lineno}"
        if "# noqa: F401" in lines[node.lineno - 1]:
            assert unused, f"{where} is marked but imports no unused name"
        else:
            assert not unused, f"{where} imports {unused} and never reads them"
