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
from clusterint.bfz import (
    DoubleWord,
    bfz_chart,
    build_bfz,
    choose_integrable_system_bfz,
    standard_double_word,
)
from clusterint.dualgl import build_staircase, choose_integrable_system_dualgl, lows_via_jets
from clusterint.schubert import build_cell, choose_integrable_system
from clusterint.typea import ReducedWord, longest_word

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


# report digests of inputs the benchmark does not run: the longest words at
# m = 3 and 5 (as ``longest_word`` spells them), other Schubert words, and BFZ n=3 double words whose negative half
# is not the standard word (the positive half is), so that the degree-jump
# selection runs over other kminus / kplus maps
SCHUBERT_WORD_REPORTS = {
    (3, (1, 2, 1)): "5dc0f6a08b5a23f50742fb76fd689223f98e66e2e13125d2a780e9a99fc0c240",
    (5, (1, 2, 3, 4, 1, 2, 3, 1, 2, 1)):
        "299f860cc418ad537f73fe82804e56a41160d762b6b1cbb40a8e7154537ce5f7",
    (4, (2, 1, 3, 2)): "c714bd65aaf62960dd60af6faece1cbdec51022a185a4037ea375784d81a0593",
    (4, (1, 2, 1, 3, 2, 1)): "5d5964177fde8f6ba38a718653bdc34d1f7ddc4221314e1ccd788a6ce132b77e",
    (5, (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)):
        "2fdbe5ccf58e0fb795466942c3da2a98fd2c0c852484020cff90cc0e6ee28ed9",
}
BFZ_NEG_WORD_REPORTS = {
    (3, 2, 1, 3, 2, 3): "77898e5c0c5059b4e624f6f9f6c233442cd011159714fc93464928a3d086439f",
    (1, 2, 1, 3, 2, 1): "84a506ac2524929ae18307e6f5abee7c241e082b04c5359d8e2e1254564a5753",
    (2, 1, 2, 3, 2, 1): "35ed45bf81ae59dd64a264a03e5e62a8b9c27a0f171d01d32a4fae88fad5e1c9",
}


@pytest.mark.parametrize("m, letters", sorted(SCHUBERT_WORD_REPORTS))
def test_schubert_word_report_digest_is_pinned(m, letters):
    outcome = report_outcome(choose_integrable_system(build_cell(m, ReducedWord(letters, m))))
    assert outcome.problems == []
    assert outcome.digest == SCHUBERT_WORD_REPORTS[m, letters]


@pytest.mark.parametrize("neg", sorted(BFZ_NEG_WORD_REPORTS))
def test_bfz_negative_word_report_digest_is_pinned(neg):
    dword = DoubleWord(ReducedWord(neg, 4), longest_word(4))
    outcome = report_outcome(choose_integrable_system_bfz(build_bfz(3, dword)))
    assert outcome.problems == []
    assert outcome.digest == BFZ_NEG_WORD_REPORTS[neg]


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
