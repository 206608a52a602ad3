"""Static checks of the package source with the stdlib ``ast`` module: no
module imports a name it never uses, and no top-level function is defined
in two modules."""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "clusterint"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree):
    """(bound name, line) of every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_sources_found():
    assert len(MODULES) >= 10


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        used = used_names(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported_names(tree) if name not in used]
    assert unused == []


def test_no_function_defined_in_two_modules():
    defined = defaultdict(list)
    for path in MODULES:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                defined[node.name].append(path.name)
    assert {name: mods for name, mods in defined.items() if len(mods) > 1} == {}
