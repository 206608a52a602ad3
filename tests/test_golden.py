"""Byte-identical output: the certified systems of the Schubert, BFZ and
dual GL families hash to the digests recorded in ``bench/golden.json``.

The digest is the sha256 of the report's identifying fields as compact,
key-sorted JSON; the seed is left out, so every seed has the same digest.
The file is only read here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from clusterint.bfz import build_bfz, choose_integrable_system_bfz, standard_double_word
from clusterint.dualgl import build_staircase, choose_integrable_system_dualgl, lows_via_jets
from clusterint.schubert import build_cell, choose_integrable_system
from clusterint.typea import longest_word

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"
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
    text = json.dumps({f: getattr(report, f) for f in FIELDS},
                      sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == json.loads(GOLDEN.read_text())[name]
