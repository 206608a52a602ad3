"""Static checks of the package source with the stdlib ``ast`` module: no
module imports a name it never uses, no top-level function is defined in
two modules, every top-level function, class and method of the package is
used somewhere, no nested function calls itself, no function imports,
every package error is raised in the package and named in a test, and
every random generator is seeded."""

import ast
from collections import Counter, defaultdict
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


def referenced_names(tree):
    """Names read as a bare name or as an attribute anywhere in ``tree``."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_top_level_definition_is_used():
    """Each top-level function and class of the package is referenced by
    name in the package, the tests or the benchmark, outside its own body."""
    refs = Counter()
    for path in [*MODULES, *ROOT.glob("tests/*.py"), *ROOT.glob("bench/*.py")]:
        refs += referenced_names(ast.parse(path.read_text(), str(path)))
    unused = []
    for path in MODULES:
        for node in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and refs[node.name] == referenced_names(node)[node.name]):
                unused.append(f"{path.name}:{node.name}")
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


def test_no_import_inside_a_function():
    """Every import is at module level, where the module's dependencies
    are read in one place."""
    found = set()
    for path in MODULES:
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, ast.FunctionDef):
                found |= {f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert sorted(found) == []


def _passes(call, position, name):
    """Whether a call passes the parameter ``name`` (at ``position`` among
    the positional parameters, None if keyword-only); a call that unpacks
    ``*args`` or ``**kwargs`` may pass anything."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_default_is_passed_somewhere():
    """Each defaulted parameter of a package function other than
    ``__init__`` is passed, by keyword or by position, in some call of that
    name in the package, the tests or the benchmark: a default that no call
    overrides is an option nobody sets."""
    calls = defaultdict(list)
    for path in [*MODULES, *ROOT.glob("tests/*.py"), *ROOT.glob("bench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                calls[getattr(func, "id", None) or getattr(func, "attr", None)].append(node)
    unset = []
    for path in MODULES:
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, ast.FunctionDef) or fn.name == "__init__":
                continue
            params = fn.args.posonlyargs + fn.args.args
            bound = 1 if params and params[0].arg in ("self", "cls") else 0
            first_default = len(params) - len(fn.args.defaults)
            defaulted = [(i - bound, p.arg) for i, p in enumerate(params) if i >= first_default]
            defaulted += [(None, p.arg) for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if d is not None]
            unset += [f"{path.name}:{fn.name}({name})" for position, name in defaulted
                      if not any(_passes(call, position, name) for call in calls[fn.name])]
    assert unset == []


def test_every_package_error_is_raised_and_tested():
    """Each ClusterIntError subclass is raised in the package and named in
    the tests, so every package error stays reachable from a test."""
    errors = {node.name for node in ast.parse((SRC / "errors.py").read_text()).body
              if isinstance(node, ast.ClassDef) and node.name != "ClusterIntError"}
    raised = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    named = set()
    for path in ROOT.glob("tests/*.py"):
        named |= set(referenced_names(ast.parse(path.read_text(), str(path))))
    assert sorted(errors - raised) == []
    assert sorted(errors - named) == []


def test_every_random_generator_is_seeded():
    """The one probabilistic step, the rank at random points, stays seeded:
    each ``random.Random`` of the package is built from the name
    ``DEFAULT_SEED`` or ``seed`` alone, and nothing else of the ``random``
    module is used."""
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                found.append(f"{path.name}:{node.lineno} from random import")
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "random" and node.attr != "Random"):
                found.append(f"{path.name}:{node.lineno} random.{node.attr}")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "random" and node.func.attr == "Random"
                    and not (len(node.args) == 1 and not node.keywords
                             and isinstance(node.args[0], ast.Name)
                             and node.args[0].id in ("DEFAULT_SEED", "seed"))):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert found == []
