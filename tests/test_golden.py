"""Byte-identical output: the certified systems of the Schubert, BFZ and
dual GL families, and the SL(3) chart's modified log-volume and Casimir
factor, hash to the digests recorded in ``bench/golden.json``.

A digest is the sha256 of compact, key-sorted JSON: of the report's
identifying fields (the seed is left out, so every seed has the same
digest), or of the canonical string of the chart's output.  The file is
only read here.
"""

import json
import sys
from pathlib import Path

import pytest

import clusterint.cluster_engine
from clusterint.bfz import bfz_chart, build_bfz, choose_integrable_system_bfz, standard_double_word
from clusterint.dualgl import build_staircase, choose_integrable_system_dualgl, lows_via_jets
from clusterint.schubert import build_cell, choose_integrable_system
from clusterint.typea import longest_word

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = BENCH / "golden.json"
sys.path.insert(0, str(BENCH))
from harness import WORKLOADS, chart_modification, digest, report_outcome  # noqa: E402

FIELDS = ("variables", "functions", "involutive", "independent_count",
          "magic_number", "construction", "selected_indices")


def schubert(m):
    return choose_integrable_system(build_cell(m, longest_word(m)))


def bfz(n):
    return choose_integrable_system_bfz(build_bfz(n, standard_double_word(n)))


def dualgl(n):
    s = build_staircase(n)
    return choose_integrable_system_dualgl(n, s, lows_via_jets(s))


@pytest.mark.parametrize("name, build, size", [
    ("schubert-m4", schubert, 4), ("schubert-m6", schubert, 6),
    ("bfz-n2", bfz, 2), ("bfz-n3", bfz, 3),
    ("dualgl-n2", dualgl, 2), ("dualgl-n3", dualgl, 3),
])
def test_report_digest_is_golden(name, build, size):
    report = build(size)
    assert digest({f: getattr(report, f) for f in FIELDS}) == json.loads(GOLDEN.read_text())[name]


# report digests of the BFZ systems at n = 2..5, and digests of the dual GL
# lows through jets at n = 2..4 (canonical text and degree of each): the
# lows are exact, so no cap of the exponential or of the minors table that
# shows them may change these
BFZ_REPORTS = {
    2: "02ba14db9f024e3f7e341f756997a36b238e5d9dc456fe6c93d705a55ad376df",
    3: "b0e4c2254d04622e403ce06d73a0f21cd7f5d307aa06a293854beb779b1eab05",
    4: "7a0e6584ff867adbc7313da5ae11cb83150853d32624fdc3dbd8bc6e6ea0687a",
    5: "f7250bd33395a179e8783b445fb0652ed7472d0850a4de0e54c78683a619f2c9",
}
DUALGL_LOWS = {
    2: "28d2bb20e89274958bf51347a88723373ffd2ec5f5123e9b8e94a3c293195665",
    3: "b16c3d5983a2e9c6ad151c70c94dcc4ad4f4de5c9ba23626d025d392455c927f",
    4: "7070b1df096a6144b2b689da7eaa0424c80514cfb6f504d2378ece7d2205f259",
}


@pytest.mark.parametrize("n", sorted(BFZ_REPORTS))
def test_bfz_report_digest_is_pinned(n):
    assert report_outcome(bfz(n)).digest == BFZ_REPORTS[n]


@pytest.mark.parametrize("n", sorted(DUALGL_LOWS))
def test_dualgl_jet_lows_are_pinned(n):
    jets = lows_via_jets(build_staircase(n))
    assert digest([[str(p), d] for p, d in jets.phi_lows + jets.cbar_lows]) == DUALGL_LOWS[n]


def chart_modvol(chart):
    seed, mod = chart_modification(clusterint, chart)
    return str(clusterint.cluster_engine.modified_log_volume(seed, mod, chart.pi).coefficient)


def chart_casimir(chart):
    return str(chart.casimir(2) - chart.casimir(1))


@pytest.mark.parametrize("name, output", [
    ("chart-modvol-n2", chart_modvol), ("chart-casimir-n2", chart_casimir),
])
def test_chart_digest_is_golden(name, output):
    assert digest(output(bfz_chart(2))) == json.loads(GOLDEN.read_text())[name]


def test_chart_casimir_workload_is_golden():
    # the harness run brackets c_2 - c_1 with every chart coordinate, on
    # the rational bracket path, and reports each it moves as a problem
    prepare, run = WORKLOADS["chart-casimir-n2"]
    outcome = run(clusterint, prepare(clusterint), 0)
    assert outcome.digest == json.loads(GOLDEN.read_text())["chart-casimir-n2"]
    assert outcome.problems == []
