"""Pipeline instances of the clusterint benchmark, run in a child process.

Each workload drives one family's public pipeline end to end and checks the
result: the certificate (involutive, independent count equal to the magic
number, or the chart's lowest degree equal to l0) and a digest of the
exact output against the value recorded in ``golden.json``.  Any failed
check, or an exception, marks the instance failed.

    python3 bench/harness.py setup --workload NAME
    python3 bench/harness.py run --workload NAME --seed N --seconds S
        [--trace] [--max-instances K]

Each prints one JSON object as its last line; ``bench/run.py`` starts these
children and turns their output into the benchmark's result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from layertrace import LayerTrace

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RANK_SAMPLES = 8  # points per numeric rank (the package default)
REFERENCE_REPS = 9  # kernel runs before and after a set-up
SAMPLE_EVERY_S = 0.08  # interval of the host speed samples during instances
MODULES = ("rationals", "errors", "polyring", "poisson_core", "typea",
           "schubert", "bfz", "dualgl", "cluster_engine")
# report fields that identify the certified system; ``seed`` is left out so
# that every seed has the same digest
REPORT_FIELDS = ("variables", "functions", "involutive", "independent_count",
                 "magic_number", "construction", "selected_indices")


def load():
    """Import the package from the checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return SimpleNamespace(
        **{m: importlib.import_module(f"clusterint.{m}") for m in MODULES})


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    digest: str
    problems: list


def report_outcome(report) -> Outcome:
    """Digest and certificate checks of an IntegrableSystemReport."""
    problems = []
    if not report.involutive:
        problems.append("lowest terms are not in involution")
    if report.independent_count != report.magic_number:
        problems.append(f"independent count {report.independent_count} != "
                        f"magic number {report.magic_number}")
    return Outcome(digest({f: getattr(report, f) for f in REPORT_FIELDS}),
                   problems)


def volume_outcome(mu, l0: int) -> Outcome:
    """Digest and degree check of a chart's modified log-volume form."""
    problems = []
    if mu.low_degree() != l0:
        problems.append(f"log-volume lowest degree {mu.low_degree()} != l0 = {l0}")
    return Outcome(digest(str(mu.coefficient)), problems)


# -- host speed reference -------------------------------------------------------
# On a shared host the same code runs up to twice as slow while other tenants
# are busy, in spells from under a second to minutes.  A fixed kernel of the
# benchmark's own, timed on the same core while the package's work runs,
# measures the host's speed at that moment; ``run.py`` divides the package's
# times by it.


def reference_kernel():
    """A sparse product of two polynomials with rational coefficients, kept
    as dicts of exponent tuples, like the inner loop of ``polyring``."""
    p = {(i, j, (i * j) % 5): Fraction(i + 1, j + 2) for i in range(8) for j in range(6)}
    q = {(j, i % 3, i): Fraction(2 * i - 3, i + j + 1) for i in range(7) for j in range(5)}
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            c = out.get(m, 0) + ca * cb
            if c:
                out[m] = c
            else:
                del out[m]
    return out


def reference_time() -> float:
    """Median seconds of REFERENCE_REPS runs of ``reference_kernel``."""
    times = []
    for _ in range(REFERENCE_REPS):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    """Samples the host's speed while instances run: between ``start`` and
    ``stop`` a SIGALRM handler runs ``reference_kernel`` every
    SAMPLE_EVERY_S seconds, in the main thread between two bytecodes of the
    package's work.  ``elapsed`` leaves the sampling time out of an
    instance's time, and a tracer, if given, leaves it out of its spans."""

    def __init__(self, tracer=None):
        self.spans = []  # (start, end) of each kernel run
        self.tracer = tracer
        self.previous = None

    def sample(self, signum=None, frame=None):
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.spans.append((start, end))
        if self.tracer is not None:
            self.tracer.pause(end - start)

    def start(self):
        self.sample()
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        if self.previous is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.previous = None
        self.sample()

    def elapsed(self, t0: float) -> float:
        """Seconds since ``t0``, less the samples taken since."""
        t1 = time.perf_counter()
        return t1 - t0 - sum(e - s for s, e in self.spans if t0 <= s and e <= t1)

    def references(self) -> list:
        return [e - s for s, e in self.spans]


# -- workloads -------------------------------------------------------------------
# ``prepare(cl)`` builds the inputs (timed as set-up); ``run(cl, inputs, seed)``
# is one pipeline instance, timed from inputs in hand to the checked result.


def schubert_workload(m):
    def prepare(cl):
        return cl.typea.longest_word(m)

    def run(cl, word, seed):
        cell = cl.schubert.build_cell(m, word)
        return report_outcome(cl.schubert.choose_integrable_system(
            cell, seed=seed, samples=RANK_SAMPLES))

    return prepare, run


def bfz_workload(n):
    def prepare(cl):
        return cl.bfz.standard_double_word(n)

    def run(cl, dword, seed):
        cluster = cl.bfz.build_bfz(n, dword)
        return report_outcome(cl.bfz.choose_integrable_system_bfz(
            cluster, seed=seed, samples=RANK_SAMPLES))

    return prepare, run


def dualgl_workload(n):
    def prepare(cl):
        return n

    def run(cl, n, seed):
        s = cl.dualgl.build_staircase(n)
        jets = cl.dualgl.lows_via_jets(s)
        return report_outcome(cl.dualgl.choose_integrable_system_dualgl(
            n, s, jets, seed=seed, samples=RANK_SAMPLES))

    return prepare, run


def chart_modification(cl, chart):
    """The SL(3) chart's cluster as a seed with no exchangeable index, and
    the frozen modification that replaces the last-occurrence column
    function g_2 by (c_2 - c_1) g_1 g_2, with c_i = f_i / g_{i*} Casimirs."""
    funcs = chart.all_functions()
    seed = cl.cluster_engine.Seed(chart.vars, funcs, [], [[] for _ in funcs])
    offset = len(chart.fs) + len(chart.phis)
    g1, g2 = offset + chart.g_index[1], offset + chart.g_index[2]
    mod = cl.cluster_engine.FrozenModification.identity(
        range(1, len(funcs) + 1), chart.vars)
    mod.casimirs[g2] = chart.casimir(2) - chart.casimir(1)
    mod.monomials[g2] = {g1: 1, g2: 1}
    return seed, mod


def chart_modvol_workload(n):
    def prepare(cl):
        return n

    def run(cl, n, seed):
        chart = cl.bfz.bfz_chart(n)
        cluster_seed, mod = chart_modification(cl, chart)
        mu = cl.cluster_engine.modified_log_volume(cluster_seed, mod, chart.pi)
        return volume_outcome(mu, len(chart.phis))

    return prepare, run


def chart_casimir_workload(n):
    """Only the Casimir check that opens ``modified_log_volume``: the factor
    c_2 - c_1 must bracket to zero with every chart coordinate."""
    def prepare(cl):
        return n

    def run(cl, n, seed):
        chart = cl.bfz.bfz_chart(n)
        c = chart.casimir(2) - chart.casimir(1)
        moved = [nm for nm in chart.vars.names
                 if not chart.pi.bracket(c, cl.polyring.RatFun.var(chart.vars, nm)).is_zero()]
        problems = [f"c_2 - c_1 moves {nm}" for nm in moved]
        return Outcome(digest(str(c)), problems)

    return prepare, run


# The benchmark's four workloads, then the toy sizes the self-test runs.
WORKLOADS = {
    "schubert-m6": schubert_workload(6),
    "bfz-n3": bfz_workload(3),
    "dualgl-n3": dualgl_workload(3),
    "chart-modvol-n2": chart_modvol_workload(2),
    "schubert-m4": schubert_workload(4),
    "bfz-n2": bfz_workload(2),
    "dualgl-n2": dualgl_workload(2),
    "chart-casimir-n2": chart_casimir_workload(2),
}


def golden():
    return json.loads((BENCH / "golden.json").read_text())


def run_instance(cl, run, inputs, seed, expected, host):
    """One timed pipeline instance: (seconds, digest or None, problems)."""
    t0 = time.perf_counter()
    try:
        outcome = run(cl, inputs, seed)
    except Exception as exc:  # a raising pipeline is a failed instance
        return host.elapsed(t0), None, [f"raised {type(exc).__name__}: {exc}"]
    dt = host.elapsed(t0)
    problems = list(outcome.problems)
    if outcome.digest != expected:
        problems.append(f"digest {outcome.digest} != golden {expected}")
    return dt, outcome.digest, problems


def run_instances(cl, workload, seed, seconds, max_instances=None, tracer=None):
    """Start whole instances until ``seconds`` have passed, so the last one
    may end later; stop early at ``max_instances``.  Returns the instance
    times, digests and problems, and the reference kernel times sampled
    meanwhile."""
    prepare, run = WORKLOADS[workload]
    expected = golden()[workload]
    inputs = prepare(cl)
    host = HostSpeed(tracer)
    times, digests, problems = [], [], []
    if tracer is not None:
        tracer.install(cl)
    try:
        host.start()
        start = time.perf_counter()
        while True:
            dt, dig, probs = run_instance(cl, run, inputs, seed, expected, host)
            times.append(dt)
            digests.append(dig)
            problems.append(probs)
            if max_instances is not None and len(times) >= max_instances:
                break
            if time.perf_counter() - start >= seconds:
                break
    finally:
        host.stop()
        if tracer is not None:
            tracer.uninstall()
    return times, digests, problems, host.references()


def provenance(cl, seed):
    return {
        "python": platform.python_version(),
        "qq_backend": "gmpy2.mpq" if cl.rationals._HAVE_GMPY else "fractions.Fraction",
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "rank_samples": RANK_SAMPLES,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--max-instances", type=int)
    args = ap.parse_args(argv)

    if args.mode == "setup":
        before = reference_time()
        t0 = time.perf_counter()
        cl = load()
        WORKLOADS[args.workload][0](cl)
        setup_s = time.perf_counter() - t0
        reference_s = (before + reference_time()) / 2
        print(json.dumps({"setup_s": setup_s, "reference_s": reference_s}))
        return 0

    cl = load()
    tracer = LayerTrace() if args.trace else None
    times, digests, problems, references = run_instances(
        cl, args.workload, args.seed, args.seconds, args.max_instances, tracer)
    out = {
        "times": times,
        "references": references,
        "digests": digests,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "provenance": provenance(cl, args.seed),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
