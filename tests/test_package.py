"""The imports of the package and of its modules."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import hilbhasse

MODULES = sorted(p for p in Path(hilbhasse.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")

# Every memo in src/ that lives as long as the process (a function decorated
# with functools.cache or lru_cache), with what bounds its keys and what needs
# it.  A memo that is not listed here, or a listed one that is gone, fails the
# test below.
MEMOS = {
    "linalg.induced_filtration":
        "the n-dim subspaces of F^(2n) passed, times n + 1 levels; perfbench/workloads.py "
        "cold_start clears it and perfbench/tracing.py MEMOIZED reads its hits",
}
MEMO_WRAPPERS = {"cache", "lru_cache"}


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


def _wrapper_names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))} & MEMO_WRAPPERS


def test_every_memo_is_listed_with_its_key_bound():
    # a memo is a function decorated with cache or lru_cache; any other use
    # of either name would make a memo this scan cannot name, so it fails too
    found, stray = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        in_decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    if _wrapper_names(dec):
                        found.append(f"{path.stem}.{node.name}")
                        in_decorators.update(map(id, ast.walk(dec)))
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute)) and _wrapper_names(node)
                  and id(node) not in in_decorators]
    assert (sorted(found), stray) == (sorted(MEMOS), [])
    for name in MEMOS:
        module, attr = name.split(".")
        memo = getattr(importlib.import_module(f"hilbhasse.{module}"), attr)
        assert callable(memo.cache_info) and callable(memo.cache_clear), name


def _imports_in_a_fresh_process(code):
    """What ``code`` prints, run with -S, which keeps site .pth files out, and
    with no bytecode written, so the modules are compiled as a checkout's are."""
    env = {"PYTHONPATH": str(Path(hilbhasse.__file__).parents[1]), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=env)
    assert (run.returncode, run.stderr) == (0, "")
    return run.stdout


def test_cli_import_loads_no_dataclass_or_typing_machinery():
    # every command pays for its imports
    code = ("import sys, hilbhasse.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    assert _imports_in_a_fresh_process(code) == "[]\n"


def test_package_import_loads_no_module():
    # each name lives in its module alone, and importing the package loads none
    code = ("import sys, hilbhasse; "
            "print(sorted(m for m in sys.modules if m.startswith('hilbhasse.')))")
    assert _imports_in_a_fresh_process(code) == "[]\n"
