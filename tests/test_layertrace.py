"""The benchmark's layer tracer (``bench/layertrace.py``) on the package as
the benchmark loads it: a traced run certifies the same systems as an
untraced one, the traced layers are called, the jet orders read by the
tracer's hooks are the families' closed-form orders, and ``uninstall`` puts
every original back.  A rename in ``src`` that the tracer does not follow
fails here rather than in a traced benchmark run."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
from harness import golden, load, report_outcome  # noqa: E402
from layertrace import LayerTrace  # noqa: E402


def report_digests(cl):
    """Digests of the certified BFZ n=2 and dual GL n=2 systems."""
    bfz = cl.bfz.choose_integrable_system_bfz(cl.bfz.build_bfz(2))
    s = cl.dualgl.build_staircase(2)
    dualgl = cl.dualgl.choose_integrable_system_dualgl(2, s, cl.dualgl.lows_via_jets(s))
    return [report_outcome(r).digest for r in (bfz, dualgl)]


def test_traced_run_matches_untraced_and_uninstalls():
    cl = load()
    texp, jet_mul = cl.polyring.truncated_exp, vars(cl.polyring.Jet)["__mul__"]
    untraced = report_digests(cl)
    tracer = LayerTrace()
    tracer.install(cl)
    try:
        traced = report_digests(cl)
    finally:
        tracer.uninstall()
    assert untraced == [golden()["bfz-n2"], golden()["dualgl-n2"]]
    assert traced == untraced
    metrics = tracer.metrics()
    assert metrics["polyring.truncated_exp.calls"] > 0
    assert metrics["bfz.jet_order"] == cl.bfz.gexp_order(2) == 3
    assert metrics["dualgl.jet_order"] == cl.dualgl.lows_order(2) == 2
    assert cl.polyring.truncated_exp is texp
    assert cl.bfz.truncated_exp is texp and cl.dualgl.truncated_exp is texp
    assert vars(cl.polyring.Jet)["__mul__"] is jet_mul
