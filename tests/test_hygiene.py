"""Static checks of the package source with the stdlib ``ast`` module: no
module imports a name it never uses, no top-level function is defined in
two modules, every method of a package class is used somewhere, and no
nested function calls itself."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "clusterint"
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


def test_every_method_is_used():
    """Each non-dunder method of a package class is read as an attribute
    somewhere in the package, the tests or the benchmark."""
    used = set()
    for path in [*MODULES, *ROOT.glob("tests/*.py"), *ROOT.glob("bench/*.py")]:
        used |= {node.attr for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Attribute)}
    unused = []
    for path in MODULES:
        for cls in ast.parse(path.read_text(), str(path)).body:
            if isinstance(cls, ast.ClassDef):
                unused += [f"{path.name}:{cls.name}.{node.name}" for node in cls.body
                           if isinstance(node, ast.FunctionDef)
                           and not node.name.startswith("__") and node.name not in used]
    assert unused == []


def test_no_nested_function_calls_itself():
    """A nested function that calls itself reaches itself through its own
    closure, a reference cycle that keeps it and everything it captures (a
    memo table, say) alive until the next full garbage collection."""
    found = set()
    for path in MODULES:
        for outer in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(outer, ast.FunctionDef):
                continue
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, ast.FunctionDef) and any(
                        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == inner.name for node in ast.walk(inner)):
                    found.add(f"{path.name}:{outer.name}.{inner.name}")
    assert sorted(found) == []
