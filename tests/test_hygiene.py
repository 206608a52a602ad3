"""Static checks of the package source with the stdlib ``ast`` module: no
module imports a name it never uses, no top-level function is defined in
two modules, every top-level function, class and method of the package is
used somewhere, every dataclass field is read, no function assigns a local
it never reads, no nested function calls itself, no function imports,
every package error is raised in the package and named in a test,
every random generator is seeded, ``polyring`` packs monomials in one
place, every report comes from one ``certify`` of one ``SeedLows`` record
a route, only the two per-size linear structures are cached, and every
console script that
``pyproject.toml`` declares imports and is callable.  Seven checks run the
code: every Poly the families build is keyed by packed monomials, and they
build no Jet; choosing on a built Schubert cell or BFZ cluster reads no
lowest term; the closed-form linear structures do no Poly arithmetic;
the Schubert build subtracts no Poly and makes no Fraction in a division;
the minors table and Poly sums combine terms in ``_mul_terms``;
``truncated_exp`` does no Poly or matrix arithmetic; and the involutivity
certificate, linearization at the origin and numeric pivots do no Poly
arithmetic or evaluation."""

import ast
import importlib
import random
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

from clusterint.bfz import (
    build_bfz,
    choose_integrable_system_bfz,
    sl_dual_linear_structure,
    stabilizer_dimension,
    standard_double_word,
)
from clusterint.dualgl import (
    build_staircase,
    choose_integrable_system_dualgl,
    kks_gl,
    lows_via_jets,
)
from clusterint import bfz, poisson_core, polyring, schubert
from clusterint.poisson_core import (
    PoissonStructure,
    SeedLows,
    certify,
    involutivity_certificate,
    linearize,
)
from clusterint.polyring import (
    Jet,
    Poly,
    PolyMatrix,
    RatFun,
    VarSet,
    jacobian,
    jacobian_pivots,
    minors,
    numeric_pivots,
    parse_poly,
    truncated_exp,
)
from clusterint.schubert import build_cell, choose_integrable_system
from clusterint.typea import longest_word

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


def test_every_dataclass_field_is_read():
    """Each field of a package dataclass is read as an attribute, or named
    by a string constant (``asdict`` keys, report field lists), somewhere
    in the package, the tests or the benchmark."""
    read = set()
    for path in [*MODULES, *ROOT.glob("tests/*.py"), *ROOT.glob("bench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = []
    for path in MODULES:
        for cls in ast.parse(path.read_text(), str(path)).body:
            if isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in cls.decorator_list):
                unread += [f"{path.name}:{cls.name}.{node.target.id}" for node in cls.body
                           if isinstance(node, ast.AnnAssign) and node.target.id not in read]
    assert unread == []


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


def assigned_names(fn):
    """(name, line) of each plain name that the body of ``fn`` binds by an
    assignment, ``for`` or ``with``, outside its nested scopes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.With):
            targets = [item.optional_vars for item in node.items if item.optional_vars]
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For, ast.NamedExpr)):
            targets = [node.target]
        else:
            targets = []
        yield from ((n.id, n.lineno) for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
        stack.extend(ast.iter_child_nodes(node))


def test_no_local_is_assigned_and_never_read():
    """Every local a function assigns is read in it or in a function nested
    in it; a name that starts with ``_`` is a deliberate discard."""
    found = []
    for path in MODULES:
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            read = {n.id for n in ast.walk(fn)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            read |= {nm for n in ast.walk(fn) if isinstance(n, (ast.Global, ast.Nonlocal))
                     for nm in n.names}
            found += [f"{path.name}:{line} {name}" for name, line in assigned_names(fn)
                      if name not in read and not name.startswith("_")]
    assert found == []


def test_the_unused_local_scan_sees_each_binding():
    fn = ast.parse("def f(xs):\n    a, _ = xs\n    for b in xs:\n        c = b\n"
                   "    with open(a) as d:\n        pass\n    def g():\n        e = 1\n"
                   "    return c\n").body[0]
    assert sorted(name for name, _ in assigned_names(fn)) == ["_", "a", "b", "c", "d"]


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


MEMOIZERS = {"cache", "lru_cache"}


def memoizer(node):
    """The name of the ``functools`` memoizer that a decorator or a
    referenced name is (``cache``, ``functools.cache``, ``lru_cache(...)``),
    else None."""
    if isinstance(node, ast.Call):
        node = node.func
    name = getattr(node, "id", getattr(node, "attr", None))
    return name if name in MEMOIZERS else None


def test_only_the_per_size_linear_structures_are_cached():
    """pi0 depends only on the size, so ``sl_dual_linear_structure`` and
    ``kks_gl`` are built once per n.  Nothing else is memoized, by a
    decorator or by a call: a per-seed build (``build_bfz``,
    ``build_cell``, ``minors``, ``truncated_exp``) is the work that the
    benchmark times, and at BFZ n=8 its tables alone reach 1.7 GB."""
    cached, uses = set(), 0
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cached |= {f"{path.stem}.{fn.name}" for d in fn.decorator_list if memoizer(d)}
        uses += sum(1 for node in ast.walk(tree)
                    if isinstance(node, (ast.Name, ast.Attribute)) and memoizer(node))
    assert cached == {"bfz.sl_dual_linear_structure", "dualgl.kks_gl"}
    assert uses == len(cached)  # no memoizer applied other than as a decorator


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


def byte_conversions(tree):
    """Line of each ``from_bytes`` or ``to_bytes`` attribute in ``tree``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("from_bytes", "to_bytes"))


def test_monomials_are_packed_in_one_place():
    """Division and the minors table share ``polyring._Packing``: no other
    code of ``polyring`` converts between ints and bytes, so no second copy
    of the packed layout can come back."""
    tree = ast.parse((SRC / "polyring.py").read_text())
    packing = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "_Packing")
    assert byte_conversions(packing)
    assert byte_conversions(tree) == byte_conversions(packing)


def test_every_poly_built_end_to_end_has_int_keys(monkeypatch):
    """Schubert m=4, BFZ n=2 and dual GL n=2, built and certified, make
    every Poly with int keys, the packed monomials: exponent tuples stay at
    the edges, and no tuple-keyed kernel runs beside the packed one.  They
    build no Jet: a truncation is a Poly and a cap."""
    key_types = Counter()
    jets = []
    init, trusted, jet_init = Poly.__init__, Poly._trusted.__func__, Jet.__init__

    def counted_init(self, *args):
        init(self, *args)
        key_types.update(map(type, self.terms))

    def counted_trusted(cls, *args):
        p = trusted(cls, *args)
        key_types.update(map(type, p.terms))
        return p

    def counted_jet_init(self, *args):
        jet_init(self, *args)
        jets.append(self)

    monkeypatch.setattr(Poly, "__init__", counted_init)
    monkeypatch.setattr(Poly, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(Jet, "__init__", counted_jet_init)
    reports = [choose_integrable_system(build_cell(4, longest_word(4))),
               choose_integrable_system_bfz(build_bfz(2, standard_double_word(2)))]
    s = build_staircase(2)
    reports.append(choose_integrable_system_dualgl(2, s, lows_via_jets(s)))
    assert all(r.involutive for r in reports)
    assert key_types[int] > 0 and set(key_types) == {int}
    assert jets == []


def test_closed_form_linear_structures_do_no_poly_arithmetic(monkeypatch):
    """``sl_dual_linear_structure`` and ``kks_gl`` build each entry from its
    int constants on the unit keys, and ``stabilizer_dimension`` reads the
    index from the int table: no Poly sum or product."""
    calls = Counter()
    for name in ("__add__", "__mul__"):
        def counted(self, other, name=name, op=getattr(Poly, name)):
            calls[name] += 1
            return op(self, other)
        monkeypatch.setattr(Poly, name, counted)
    for built in (sl_dual_linear_structure, kks_gl):
        built.cache_clear()  # so that both builders run, not a cache hit
    sl_dual_linear_structure(3)
    kks_gl(3)
    stabilizer_dimension(3)
    assert calls == Counter()
    assert [built.cache_info().misses for built in (sl_dual_linear_structure, kks_gl)] == [1, 1]


def test_schubert_build_subtracts_no_poly_and_divides_on_ints(monkeypatch):
    """``build_cell`` solves each pullback entry as one ``dot`` (no Poly
    subtraction) and divides without making a Fraction."""
    calls = Counter()
    inside = []
    sub, exact_div, new = Poly.__sub__, Poly.exact_div, Fraction.__new__

    def subtracted(self, other):
        calls["Poly.__sub__"] += 1
        return sub(self, other)

    def dividing(self, g):
        inside.append(g)
        try:
            return exact_div(self, g)
        finally:
            inside.pop()

    def made(cls, *args, **kwargs):
        if inside:
            calls["Fraction in exact_div"] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Poly, "__sub__", subtracted)
    monkeypatch.setattr(Poly, "exact_div", dividing)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(made))
    build_cell(4, longest_word(4))
    assert calls == Counter()


def test_minors_and_sums_run_on_the_one_product_kernel(monkeypatch):
    """A ``minors`` read, capped or not, and a Poly sum each combine their
    terms in ``polyring._mul_terms``, with the results of the unpatched
    run: the kernel has one accumulate loop."""
    xy = VarSet(["x", "y"])
    f, g = parse_poly("x^2*y + 1/2*x - 3", xy), parse_poly("2/3*y^2 - x*y + 5", xy)
    m = PolyMatrix([[f, g], [g * g, f + 1]])
    reads = {"minors": lambda: minors(m)(range(2), range(2)),
             "capped minors": lambda: minors(m, 3)(range(2), range(2)),
             "Poly.__add__": lambda: f + g}
    expected = {name: read() for name, read in reads.items()}
    calls = []
    mul_terms = polyring._mul_terms

    def counted(*args):
        calls.append(args)
        return mul_terms(*args)

    monkeypatch.setattr(polyring, "_mul_terms", counted)
    for name, read in reads.items():
        calls.clear()
        assert read() == expected[name], name
        assert calls, f"{name} combines terms outside _mul_terms"


def test_choosing_reads_no_lowest_term(monkeypatch):
    """The Schubert and BFZ builds read each lowest term once, at its cap,
    and choosing on a built cell or cluster reads none again."""
    calls = Counter()
    for module in (schubert, bfz):
        def counted(*args, key=module.__name__, read=module.lowest_term):
            calls[key] += 1
            return read(*args)
        monkeypatch.setattr(module, "lowest_term", counted)
    cell = build_cell(6, longest_word(6))
    cluster = build_bfz(3, standard_double_word(3))
    # 15 phi's; 3 f's, 6 phi's, 6 psi's and 1 difference function
    assert calls == Counter({"clusterint.schubert": 15, "clusterint.bfz": 16})
    calls.clear()
    choose_integrable_system(cell)
    choose_integrable_system_bfz(cluster)
    assert calls == Counter()


def test_truncated_exp_does_no_poly_or_matrix_arithmetic(monkeypatch):
    """``truncated_exp`` takes its Horner steps on int dicts through
    ``_mul_terms``: no Poly sum or product and no matrix product."""
    xy = VarSet(["x", "y"])
    x = PolyMatrix([[parse_poly(s, xy) for s in row]
                    for row in (("1/2*x + y^2", "-y"), ("3*x*y", "x - 2/3*y"))])
    calls = Counter()
    for cls, name in ((Poly, "__add__"), (Poly, "__mul__"), (PolyMatrix, "__mul__")):
        def counted(self, other, key=f"{cls.__name__}.{name}", op=getattr(cls, name)):
            calls[key] += 1
            return op(self, other)
        monkeypatch.setattr(cls, name, counted)
    truncated_exp(x, 4)
    assert calls == Counter()


def test_linear_layer_does_no_poly_arithmetic_or_evaluation(monkeypatch):
    """``involutivity_certificate`` (of a linear structure and of a plain
    one with linear entries), ``linearize`` at the origin, ``certify``,
    ``jacobian_pivots`` (of Polys and RatFuns) and ``numeric_pivots`` run
    on int tables and int columns: no Poly sum, product or evaluation, no
    ``dot``; and but for ``numeric_pivots``, which takes one, no
    ``gradient``, no ``jacobian`` and no ``PolyMatrix``."""
    cell = build_cell(4, longest_word(4))
    lows = cell.lows()
    plain = PoissonStructure(cell.vars, cell.pi0.bracket_matrix)
    m = jacobian(lows, cell.vars)
    quotients = [RatFun(lows[0], lows[3]), RatFun(lows[4], lows[1] + lows[2])]
    pivots = numeric_pivots(jacobian(quotients + lows, cell.vars), random.Random(1))
    calls = Counter()
    for owner, name in [(Poly, op) for op in ("__add__", "__sub__", "__neg__", "__mul__",
                                               "evaluate")] + [
            (polyring, fn) for fn in ("dot", "gradient", "jacobian")] + [
            (poisson_core, fn) for fn in ("dot", "gradient")] + [(PolyMatrix, "__init__")]:
        def counted(*args, key=name, op=getattr(owner, name)):
            calls[key] += 1
            return op(*args)
        monkeypatch.setattr(owner, name, counted)
    assert involutivity_certificate(cell.pi0, lows)
    assert involutivity_certificate(plain, lows)
    assert involutivity_certificate(cell.pi0, quotients + lows)
    linearize(cell.pi_z)
    report = certify(SeedLows(cell.pi0, [lows[i] for i in (0, 1, 2, 4)], [1, 2, 3, 5],
                              [lows[3], lows[5]], 4, "lowest-terms"))
    assert report.independent_count == 4
    assert jacobian_pivots(quotients + lows, cell.vars, random.Random(1)) == pivots
    assert calls == Counter()
    assert len(numeric_pivots(m, random.Random(1))) == 4
    assert calls == Counter()


def test_every_report_comes_from_one_certify_of_a_seed():
    """Only ``certify`` constructs an ``IntegrableSystemReport``, and it
    takes a seed and its sampling only; the three family choosers and
    ``extract_integrable_system`` are the only callers of ``certify``, each
    calling it once with a ``SeedLows`` record built in place."""
    builders, certified, signature = [], {}, None
    for path in MODULES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name == "certify":
                signature = [a.arg for a in fn.args.args + fn.args.kwonlyargs]
            calls = [c for c in ast.walk(fn) if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)]
            builders += [fn.name for c in calls if c.func.id == "IntegrableSystemReport"]
            seeds = [ast.unparse(c.args[0].func) if c.args and isinstance(c.args[0], ast.Call)
                     else None for c in calls if c.func.id == "certify"]
            if seeds:
                certified[fn.name] = seeds
    assert builders == ["certify"]
    assert signature == ["s", "seed", "samples"]
    assert certified == {name: ["SeedLows"] for name in (
        "choose_integrable_system", "choose_integrable_system_bfz",
        "choose_integrable_system_dualgl", "extract_integrable_system")}


def test_every_console_script_is_callable():
    """Each ``module:function`` target of ``[project.scripts]`` imports and
    names a callable, so no installed command ends in an ImportError."""
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text()).get(
        "project", {}).get("scripts", {})
    broken = []
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        try:
            fn = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError) as exc:
            broken.append(f"{name} = {target}: {exc!r}")
            continue
        if not callable(fn):
            broken.append(f"{name} = {target}: not callable")
    assert broken == []
