import copy
import random

import pytest
from hypothesis import settings

from clusterint.polyring import Poly, VarSet, parse_poly
from clusterint.poisson_core import PoissonStructure
from clusterint.rationals import QQ

Z6 = VarSet([f"z{i}" for i in range(1, 7)])

# Property tests draw the same examples on every run (seeded from each
# test's source, no example database) and stay within a fixed budget.
settings.register_profile(
    "clusterint", derandomize=True, database=None, deadline=None, max_examples=60)
settings.load_profile("clusterint")


def p6(s: str) -> Poly:
    return parse_poly(s, Z6)


def linear_snapshot(pi0):
    """A copy of what a shared linear structure holds: its int table and
    den, and the string of every bracket_matrix entry."""
    return copy.deepcopy(pi0.table), pi0.den, [[str(x) for x in row] for row in pi0.bracket_matrix]


# Poisson brackets of the Bott-Samelson coordinates on the big cell of the
# SL(4) flag variety for the word (1,2,3,1,2,1); the canonical worked example
# used throughout the suite.
SL4_PI_TABLE = {
    (1, 2): "-z1*z2",
    (1, 3): "-z1*z3",
    (1, 4): "z1*z4 - 2*z2",
    (1, 5): "z1*z5 - 2*z3",
    (1, 6): "0",
    (2, 3): "-z2*z3",
    (2, 4): "-z2*z4",
    (2, 5): "-2*z3*z4",
    (2, 6): "z2*z6 - 2*z3",
    (3, 4): "0",
    (3, 5): "-z3*z5",
    (3, 6): "-z3*z6",
    (4, 5): "-z4*z5",
    (4, 6): "z4*z6 - 2*z5",
    (5, 6): "-z5*z6",
}

SL4_PI0_TABLE = {
    (1, 4): "-2*z2",
    (1, 5): "-2*z3",
    (2, 6): "-2*z3",
    (4, 6): "-2*z5",
}

SL4_PHIS = [
    "z1",
    "z2",
    "z3",
    "z1*z4 - z2",
    "z2*z5 - z3*z4",
    "z1*z4*z6 - z2*z6 - z1*z5 + z3",
]


def structure_from_table(table, vars=Z6):
    n = len(vars)
    mat = [[Poly.zero(vars) for _ in range(n)] for _ in range(n)]
    for (i, j), s in table.items():
        p = parse_poly(s, vars)
        mat[i - 1][j - 1] = p
        mat[j - 1][i - 1] = -p
    return PoissonStructure(vars, mat)


@pytest.fixture(scope="session")
def sl4_pi():
    return structure_from_table(SL4_PI_TABLE)


@pytest.fixture(scope="session")
def sl4_pi0():
    return structure_from_table(SL4_PI0_TABLE)


@pytest.fixture(scope="session")
def sl4_phis():
    return [p6(s) for s in SL4_PHIS]


@pytest.fixture
def rng():
    return random.Random(12345)


def random_poly(rng, vars, max_degree=3, terms=4, bound=9):
    out = Poly.zero(vars)
    n = len(vars)
    for _ in range(terms):
        exp = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(n)] += 1
        c = rng.randint(-bound, bound)
        if c:
            out = out + Poly(vars, {tuple(exp): QQ(c)})
    return out
