"""Per-layer tracing of clusterint from outside the package.

``LayerTrace.install`` replaces the public functions and methods of each
layer with timing wrappers.  Module-level functions are rebound at every
import site, i.e. in every ``clusterint`` module that imported them by
name, so a call from ``bfz`` to ``det`` is traced like a call inside
``polyring``.  ``uninstall`` restores the originals.

Each wrapper records a span: its start, its end and the span it ran under
(the enclosing wrapper on the stack).  Spans are folded as they close into
per-key call counts, inclusive time and self time, where self time is a
span's duration minus the time covered by its child spans.  Counters of
wasted work are computed from the call arguments before the span starts,
so that their cost is charged to no layer.  Time that ``pause`` reports as
spent outside the package, by the host speed sampler, is left out of every
span open at the time.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

# Per-layer metrics, in output order: (name, unit).  A layer that a
# workload never calls reports 0 calls and 0 s.
LAYER_METRICS = [
    ("polyring.poly_new.calls", "count"),
    ("polyring.poly_new.self_s", "s"),
    ("polyring.poly_mul.calls", "count"),
    ("polyring.poly_mul.self_s", "s"),
    ("polyring.poly_add.calls", "count"),
    ("polyring.poly_add.self_s", "s"),
    ("polyring.exact_div.calls", "count"),
    ("polyring.exact_div.self_s", "s"),
    ("polyring.exact_div.not_divisible", "count"),
    ("polyring.exact_div.failed_s", "s"),
    ("polyring.jet_mul.calls", "count"),
    ("polyring.jet_mul.self_s", "s"),
    ("polyring.jet_mul.pair_attempts", "count"),
    ("polyring.jet_mul.useful_pairs", "count"),
    ("polyring.jet_mul.useful_ratio", "ratio"),
    ("polyring.truncated_exp.calls", "count"),
    ("polyring.substitute.self_s", "s"),
    ("polyring.det.poly.calls", "count"),
    ("polyring.det.poly.self_s", "s"),
    ("polyring.det.jet.calls", "count"),
    ("polyring.det.jet.self_s", "s"),
    ("polyring.det.ratfun.calls", "count"),
    ("polyring.det.ratfun.self_s", "s"),
    ("polyring.poly_gcd.calls", "count"),
    ("polyring.poly_gcd.self_s", "s"),
    ("polyring.ratfun_new.calls", "count"),
    ("polyring.ratfun_new.self_s", "s"),
    ("polyring.numeric_rank.self_s", "s"),
    ("poisson_core.bracket.calls", "count"),
    ("poisson_core.bracket.self_s", "s"),
    ("poisson_core.involutivity_certificate.self_s", "s"),
    ("poisson_core.is_log_canonical.self_s", "s"),
    ("poisson_core.linearize.self_s", "s"),
    ("poisson_core.log_volume.self_s", "s"),
    ("typea.self_s", "s"),
    ("schubert.build_s", "s"),
    ("schubert.certify_s", "s"),
    ("bfz.build_s", "s"),
    ("bfz.certify_s", "s"),
    ("bfz.jet_order", "order"),
    ("bfz.escalations", "count"),
    ("bfz.chart_s", "s"),
    ("dualgl.staircase_s", "s"),
    ("dualgl.lows_s", "s"),
    ("dualgl.certify_s", "s"),
    ("dualgl.jet_order", "order"),
    ("dualgl.escalations", "count"),
    ("cluster_engine.modified_log_volume_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# Family stages, reported as inclusive span time: metric -> traced key.
STAGES = {
    "schubert.build_s": "schubert.build_cell",
    "schubert.certify_s": "schubert.choose_integrable_system",
    "bfz.build_s": "bfz.build_bfz",
    "bfz.certify_s": "bfz.choose_integrable_system_bfz",
    "bfz.chart_s": "bfz.bfz_chart",
    "dualgl.staircase_s": "dualgl.build_staircase",
    "dualgl.lows_s": "dualgl.lows_via_jets",
    "dualgl.certify_s": "dualgl.choose_integrable_system_dualgl",
    "cluster_engine.modified_log_volume_s": "cluster_engine.modified_log_volume",
}


def escalations(start: int, reached: int) -> int:
    """Jet-order doublings from ``start`` to ``reached``; the family builders
    double the order, capping the last step at the final order."""
    count = 0
    while start < reached:
        start = min(2 * start, reached)
        count += 1
    return count


class LayerTrace:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.failed = defaultdict(int)
        self.failed_s = defaultdict(float)
        self._stack = [[0.0, 0.0]]  # child time covered, paused time, per open span
        self._undo = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, key, fn, kind=None, before=None, after=None, fails=()):
        """A traced version of ``fn``.  ``kind(args)`` refines the key per
        call, ``before(args)`` counts work from the arguments, ``after(args,
        kwargs, result)`` reads the result, and an exception in ``fails`` is
        counted as a failed call with its self time."""
        stack, clock = self._stack, time.perf_counter
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        failed_calls, failed_s = self.failed, self.failed_s

        def traced(*args, **kwargs):
            k = key
            if kind is not None or before is not None:
                t = clock()
                if kind is not None:
                    k = f"{key}.{kind(args)}"
                if before is not None:
                    before(args)
                stack[-1][0] += clock() - t
            child = [0.0, 0.0]
            stack.append(child)
            t0 = clock()
            failed = False
            try:
                result = fn(*args, **kwargs)
            except fails:
                failed = True
                raise
            finally:
                dur = clock() - t0 - child[1]
                stack.pop()
                stack[-1][0] += dur
                own = dur - child[0]
                calls[k] += 1
                self_s[k] += own
                incl_s[k] += dur
                if failed:
                    failed_calls[k] += 1
                    failed_s[k] += own
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, namespace, original, wrapper):
        for name, value in list(vars(namespace).items()):
            if value is original:
                self._undo.append((namespace, name, original))
                setattr(namespace, name, wrapper)

    def function(self, modules, module, name, key, **hooks):
        """Trace ``module.name`` at its definition and every import site."""
        original = getattr(module, name)
        wrapper = self.wrap(key, original, **hooks)
        for m in modules:
            self._rebind(m, original, wrapper)

    def method(self, cls, name, key, **hooks):
        """Trace ``cls.name`` and every alias of it in the class, such as
        ``__radd__ = __add__``."""
        original = vars(cls)[name]
        self._rebind(cls, original, self.wrap(key, original, **hooks))

    def pause(self, seconds: float):
        """Leave ``seconds`` just spent outside the package out of every
        open span."""
        for span in self._stack:
            span[1] += seconds

    def uninstall(self):
        for namespace, name, original in reversed(self._undo):
            setattr(namespace, name, original)
        self._undo.clear()

    # -- the layers of clusterint ---------------------------------------------

    def install(self, cl):
        """Wrap the layers of the loaded package ``cl`` (see harness.load)."""
        modules = list(vars(cl).values())
        pr = cl.polyring
        Poly, Jet, RatFun = pr.Poly, pr.Jet, pr.RatFun

        self.method(Poly, "__init__", "polyring.poly_new")
        self.method(Poly, "__mul__", "polyring.poly_mul")
        self.method(Poly, "__add__", "polyring.poly_add")
        self.method(Poly, "exact_div", "polyring.exact_div",
                    fails=(cl.errors.NotDivisible,))
        self.method(Poly, "substitute", "polyring.substitute")
        self.method(Jet, "__mul__", "polyring.jet_mul",
                    before=lambda a: self._count_jet_pairs(a, Jet, Poly))
        self.method(RatFun, "__init__", "polyring.ratfun_new")
        self.function(modules, pr, "det", "polyring.det",
                      kind=lambda a: _det_kind(a[0], Jet, RatFun))
        for name in ("truncated_exp", "poly_gcd", "numeric_rank"):
            self.function(modules, pr, name, f"polyring.{name}")

        pc = cl.poisson_core
        self.method(pc.PoissonStructure, "bracket", "poisson_core.bracket")
        self.method(pc.PoissonStructure, "bracket_poly", "poisson_core.bracket")
        for name in ("involutivity_certificate", "is_log_canonical", "linearize",
                     "log_volume"):
            self.function(modules, pc, name, f"poisson_core.{name}")

        for name, value in list(vars(cl.typea).items()):
            if (callable(value) and not isinstance(value, type)
                    and not name.startswith("_")
                    and getattr(value, "__module__", None) == cl.typea.__name__):
                self.function(modules, cl.typea, name, "typea")

        for key in STAGES.values():
            module_name, name = key.split(".")
            module = getattr(cl, module_name)
            hooks = {}
            if name in ("build_bfz", "lows_via_jets"):
                hooks["after"] = self._jet_order_hook(module_name, getattr(module, name))
            self.function(modules, module, name, key, **hooks)

    def _count_jet_pairs(self, args, Jet, Poly):
        # mirrors Jet.__mul__: a Poly factor is truncated to the jet order
        # first; a scalar factor multiplies no term pairs
        a, b = args
        D = a.order
        if isinstance(b, Jet):
            degs_b = [sum(e) for e in b.poly.terms]
        elif isinstance(b, Poly):
            degs_b = [d for d in map(sum, b.terms) if d <= D]
        else:
            return
        hist = [0] * (D + 1)
        for d in degs_b:
            hist[d] += 1
        upto = [0] * (D + 1)  # upto[k]: terms of b of degree <= k
        run = 0
        for k in range(D + 1):
            run += hist[k]
            upto[k] = run
        useful = sum(upto[D - sum(e)] for e in a.poly.terms)
        self.counts["polyring.jet_mul.pair_attempts"] += len(a.poly.terms) * len(degs_b)
        self.counts["polyring.jet_mul.useful_pairs"] += useful

    def _jet_order_hook(self, family, builder):
        """Record the jet order a builder returned and its doublings from the
        start order, which is ``order`` if given, else max(n, 2)."""
        signature = inspect.signature(builder)

        def after(args, kwargs, result):
            call = signature.bind(*args, **kwargs).arguments
            n = call["n"] if "n" in call else call["s"].n
            start = call.get("order") or max(n, 2)
            self.counts[f"{family}.jet_order"] = result.order
            self.counts[f"{family}.escalations"] += escalations(start, result.order)

        return after

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Every per-layer metric but ``trace.overhead_ratio``, which needs
        an untraced run, as {name: value}."""
        attempts = self.counts["polyring.jet_mul.pair_attempts"]
        derived = {
            "polyring.exact_div.not_divisible": self.failed["polyring.exact_div"],
            "polyring.exact_div.failed_s": self.failed_s["polyring.exact_div"],
            "polyring.jet_mul.useful_ratio":
                self.counts["polyring.jet_mul.useful_pairs"] / attempts if attempts else 0.0,
            **{name: self.incl_s[key] for name, key in STAGES.items()},
        }
        out = {}
        for name, _unit in LAYER_METRICS:
            if name == "trace.overhead_ratio":
                continue
            key, _, field = name.rpartition(".")
            if name in derived:
                value = derived[name]
            elif field == "calls":
                value = self.calls[key]
            elif field == "self_s":
                value = self.self_s[key]
            else:
                value = self.counts[name]
            out[name] = value
        return out


def _det_kind(m, Jet, RatFun):
    kinds = {type(x) for row in m.entries for x in row}
    if kinds == {RatFun}:
        return "ratfun"
    return "jet" if Jet in kinds else "poly"
