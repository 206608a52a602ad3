"""Self-test of the benchmark's own code at toy sizes (about 10 s).

    python3 bench/selftest.py

Runs the harness on Schubert m=4, BFZ n=2, dual GL n=2 and the SL(3)
chart's Casimir check, with tracing off and on.  Checks the digests against
``golden.json``, the failure accounting, the layers predicted to make no
calls, that the host speed samples are left out of instance times, and that
``BENCHMARK.json`` lists exactly the metrics ``run.py`` prints.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
import unittest
from types import SimpleNamespace

import harness
from harness import (BENCH, HostSpeed, golden, report_outcome, run_instance, run_instances,
                     volume_outcome)
from layertrace import LAYER_METRICS, LayerTrace, escalations
from run import END_TO_END

TOYS = ("schubert-m4", "bfz-n2", "dualgl-n2", "chart-casimir-n2")
CL = harness.load()


def traced_instance(workload, seed):
    tracer = LayerTrace()
    times, digests, problems, _ = run_instances(CL, workload, seed, 0, 1, tracer)
    return digests[0], problems[0], tracer.metrics()


class ToySizes(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.traced = {w: traced_instance(w, 11) for w in TOYS}

    def test_digests_match_golden_on_two_seeds_traced_or_not(self):
        for w in TOYS:
            for seed in (42, 7):
                times, digests, problems, _ = run_instances(CL, w, seed, 0, 1)
                self.assertEqual(problems, [[]], w)
                self.assertEqual(digests, [golden()[w]], w)
            digest, problems, _ = self.traced[w]
            self.assertEqual((digest, problems), (golden()[w], []), w)

    def test_zero_call_predictions(self):
        m = {w: self.traced[w][2] for w in TOYS}
        for w in ("schubert-m4", "chart-casimir-n2"):
            self.assertEqual(m[w]["polyring.jet_mul.calls"], 0, w)
        for w in ("schubert-m4", "bfz-n2"):
            self.assertEqual(m[w]["polyring.poly_gcd.calls"], 0, w)
        self.assertEqual(m["bfz-n2"]["polyring.exact_div.calls"], 0)
        for w in ("bfz-n2", "dualgl-n2"):
            self.assertGreater(m[w]["polyring.jet_mul.calls"], 0, w)
            self.assertLess(m[w]["polyring.jet_mul.useful_pairs"],
                            m[w]["polyring.jet_mul.pair_attempts"], w)
        self.assertGreater(m["chart-casimir-n2"]["polyring.poly_gcd.calls"], 0)
        self.assertGreater(m["chart-casimir-n2"]["polyring.exact_div.not_divisible"], 0)
        self.assertGreater(m["bfz-n2"]["polyring.det.jet.calls"], 0)
        self.assertEqual((m["bfz-n2"]["bfz.jet_order"], m["bfz-n2"]["bfz.escalations"]), (4, 1))
        self.assertEqual((m["dualgl-n2"]["dualgl.jet_order"], m["dualgl-n2"]["dualgl.escalations"]), (4, 1))
        for w in TOYS:
            self.assertGreater(m[w]["polyring.poly_new.calls"], 0, w)

    def test_every_import_site_is_wrapped_and_restored(self):
        modules = [getattr(CL, n) for n in harness.MODULES]
        originals = {n: getattr(m, n) for m in modules for n in ("det", "numeric_rank")
                     if hasattr(m, n)}
        add = vars(CL.polyring.Poly)["__add__"]
        tracer = LayerTrace()
        tracer.install(CL)
        try:
            for m in modules:
                for name in ("det", "numeric_rank", "truncated_exp", "build_cell"):
                    if hasattr(m, name):
                        self.assertTrue(hasattr(getattr(m, name), "__wrapped__"),
                                        f"{m.__name__}.{name}")
            poly = vars(CL.polyring.Poly)
            self.assertIsNot(poly["__radd__"], add)
            self.assertIs(poly["__radd__"], poly["__add__"])
        finally:
            tracer.uninstall()
        for m in modules:
            for name in ("det", "numeric_rank"):
                if hasattr(m, name):
                    self.assertIs(getattr(m, name), originals[name])
        self.assertFalse(hasattr(CL.polyring.Poly.__init__, "__wrapped__"))


class FailureAccounting(unittest.TestCase):
    def report(self, **changes):
        fields = dict(variables=["z1"], functions=["z1"], involutive=True,
                      independent_count=1, magic_number=1, seed=0,
                      construction="toy", selected_indices=[1])
        fields.update(changes)
        return SimpleNamespace(**fields)

    def test_certificate_failures(self):
        self.assertEqual(report_outcome(self.report()).problems, [])
        self.assertTrue(report_outcome(self.report(involutive=False)).problems)
        self.assertTrue(report_outcome(self.report(independent_count=0)).problems)
        mu = SimpleNamespace(low_degree=lambda: 4, coefficient="x")
        self.assertTrue(volume_outcome(mu, 3).problems)

    def test_digest_ignores_seed_only(self):
        a = report_outcome(self.report()).digest
        self.assertEqual(a, report_outcome(self.report(seed=5)).digest)
        self.assertNotEqual(a, report_outcome(self.report(selected_indices=[2])).digest)

    def test_raise_and_digest_mismatch_fail(self):
        def raises(cl, inputs, seed):
            raise CL.errors.CountShortfall("toy")

        _, dig, problems = run_instance(CL, raises, None, 0, "x", HostSpeed())
        self.assertIsNone(dig)
        self.assertTrue(problems)
        ok = lambda cl, inputs, seed: harness.Outcome("abc", [])
        self.assertEqual(run_instance(CL, ok, None, 0, "abc", HostSpeed())[2], [])
        self.assertTrue(run_instance(CL, ok, None, 0, "abd", HostSpeed())[2])

    def test_escalations(self):
        self.assertEqual(escalations(3, 3), 0)
        self.assertEqual(escalations(3, 6), 1)
        self.assertEqual(escalations(4, 12), 2)  # 4, 8, then capped at 12


class HostSpeedSampling(unittest.TestCase):
    def test_samples_are_left_out_of_instance_time(self):
        host = HostSpeed()
        host.start()
        try:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.5:
                pass
            work = host.elapsed(t0)
            t1 = time.perf_counter()
        finally:
            host.stop()
        sampling = [e - s for s, e in host.spans if t0 <= s and e <= t1]
        self.assertGreaterEqual(len(sampling), 3)
        self.assertAlmostEqual(work, t1 - t0 - sum(sampling), delta=0.005)
        self.assertEqual(len(host.references()), len(host.spans))
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)

    def test_tracer_leaves_samples_out_of_spans(self):
        def spin():
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.3:
                pass

        tracer = LayerTrace()
        inner = tracer.wrap("inner", spin)
        outer = tracer.wrap("outer", lambda: inner())
        host = HostSpeed(tracer)
        host.start()
        try:
            t0 = time.perf_counter()
            outer()
            work = host.elapsed(t0)
        finally:
            host.stop()
        self.assertGreaterEqual(len(host.spans), 4)
        self.assertAlmostEqual(tracer.incl_s["outer"], work, delta=0.005)
        self.assertAlmostEqual(tracer.self_s["inner"] + tracer.self_s["outer"], work,
                               delta=0.005)
        self.assertLess(tracer.self_s["outer"], 0.005)


class Contract(unittest.TestCase):
    def run_bench(self, trace):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "bfz-n2",
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=BENCH.parent, capture_output=True, text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.splitlines()[-1])

    def test_benchmark_json_lists_what_run_prints(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], LAYER_METRICS)
        for w in spec["workloads"]:
            self.assertIn(w["name"], harness.WORKLOADS)
            self.assertIn(w["name"], golden())
        for trace, names in ((0, END_TO_END), (1, dict(LAYER_METRICS))):
            result = self.run_bench(trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(set(result["metrics"]), set(names))


if __name__ == "__main__":
    unittest.main()
