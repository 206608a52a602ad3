import random

import pytest

from clusterint.bfz import bfz_chart
from clusterint.cluster_engine import (
    FrozenModification,
    Seed,
    log_volume_invariance,
    modified_cluster,
    modified_log_volume,
    mutate,
    seed_log_volume,
    skew_symmetrizer,
)
from clusterint.errors import BadSeed, DependentSystem, NotCasimir
from clusterint.poisson_core import PoissonStructure
from clusterint.polyring import Poly, RatFun, VarSet, parse_poly
from clusterint.rationals import QQ


def coordinate_seed(n, ex, M):
    vs = VarSet([f"z{i}" for i in range(1, n + 1)])
    cluster = [Poly.var(vs, f"z{i}") for i in range(1, n + 1)]
    return Seed(vs, cluster, ex, M)


class TestMutate:
    def test_empty_column(self):
        s = coordinate_seed(2, [1], [[0], [0]])
        s2 = mutate(s, 1)
        vs = s.vars
        assert s2.cluster[0] == RatFun(
            Poly.const(vs, 2), Poly.var(vs, "z1")
        )

    def test_simple_exchange(self):
        s = coordinate_seed(2, [1], [[0], [1]])
        s2 = mutate(s, 1)
        vs = s.vars
        assert s2.cluster[0] == RatFun(
            parse_poly("z2 + 1", vs), Poly.var(vs, "z1")
        )

    def test_involution(self, rng):
        for _ in range(10):
            n = rng.randint(2, 4)
            ex = list(range(1, n + 1))
            B = _random_skew(rng, n)
            s = coordinate_seed(n, ex, B)
            k = rng.choice(ex)
            s2 = mutate(mutate(s, k), k)
            assert all(a == b for a, b in zip(s2.cluster, s.cluster))
            assert s2.M == s.M

    def test_matrix_rule_preserves_symmetrizability(self, rng):
        for _ in range(10):
            n = rng.randint(2, 4)
            B = _random_skew(rng, n)
            s = coordinate_seed(n, list(range(1, n + 1)), B)
            d = skew_symmetrizer(s.principal_part())
            assert d is not None
            k = rng.choice(s.ex)
            s2 = mutate(s, k)
            d2 = skew_symmetrizer(s2.principal_part())
            assert d2 == d

    def test_laurent_spot_check(self):
        # the exchanged variable is recovered from the new cluster by the
        # exchange relation itself
        s = coordinate_seed(3, [1], [[0], [1], [-1]])
        s2 = mutate(s, 1)
        vs = s.vars
        recovered = (s.cluster[1] + s.cluster[2]) / s2.cluster[0]
        assert recovered == s.cluster[0]

    def test_check(self):
        s = coordinate_seed(2, [1], [[0], [1]])
        s.check()
        with pytest.raises(DependentSystem):
            Seed(s.vars, [s.cluster[0]] * 2, s.ex, s.M).check()

    def test_diagonal_must_vanish(self):
        assert skew_symmetrizer([[1]]) is None

    def test_symmetrizable_non_symmetric(self):
        # B-type 2x2: d = (1, 2) works
        assert skew_symmetrizer([[0, -1], [2, 0]]) == [2, 1]


def _exchange_seed():
    return coordinate_seed(2, [1], [[0], [1]])


@pytest.mark.parametrize("call", [
    lambda: coordinate_seed(2, [1, 1], [[0, 0], [0, 0]]),
    lambda: coordinate_seed(2, [3], [[0], [0]]),
    lambda: coordinate_seed(2, [1], [[0]]),
    lambda: coordinate_seed(2, [1, 2], [[0, 1], [1, 0]]).check(),
    lambda: mutate(_exchange_seed(), 2),
    lambda: modified_cluster(_exchange_seed(), FrozenModification({}, {})),
], ids=["repeated-index", "index-out-of-range", "matrix-shape", "not-symmetrizable",
        "mutate-frozen", "modification-coverage"])
def test_malformed_seed_raises_bad_seed(call):
    with pytest.raises(BadSeed):
        call()


def _random_skew(rng, n):
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-2, 2)
            B[i][j] = v
            B[j][i] = -v
    return B


class TestLogVolumeInvariance:
    def test_empty_path(self):
        s = coordinate_seed(2, [1], [[0], [1]])
        assert log_volume_invariance(s, [])

    def test_one_step(self):
        s = coordinate_seed(2, [1], [[0], [1]])
        assert log_volume_invariance(s, [1])

    def test_random_paths(self, rng):
        for _ in range(6):
            n = rng.randint(2, 4)
            ex = list(range(1, n + 1))
            s = coordinate_seed(n, ex, _random_skew(rng, n))
            path = [rng.choice(ex) for _ in range(rng.randint(1, 3))]
            assert log_volume_invariance(s, path)


# The modified log-volume of test_bfz_n2_modification, in canonical form;
# sha256(json.dumps(BFZ_N2_MODIFIED_MU)) is the chart-modvol-n2 digest in
# bench/golden.json.
BFZ_N2_MODIFIED_MU = (
    "(e2 + 1) / (b1*b2*b3*a1*a2*a3*e1*e2^2 - b2^2*a1^2*a3^2*e1^3 + "
    "2*b1*b2*b3*a1*a2*a3*e1*e2 + b1*b2*b3*a1*a2*a3*e2^2 - "
    "b1*b2*b3*a2^2*e1*e2^2 - 3*b2^2*a1^2*a3^2*e1^2 + "
    "2*b2^2*a1*a2*a3*e1^3 - b2^2*a1*a2*a3*e1*e2^2 + "
    "b1*b2*b3*a1*a2*a3*e1 + 2*b1*b2*b3*a1*a2*a3*e2 - "
    "2*b1*b2*b3*a2^2*e1*e2 - b1*b2*b3*a2^2*e2^2 - 3*b2^2*a1^2*a3^2*e1 + "
    "6*b2^2*a1*a2*a3*e1^2 - 2*b2^2*a1*a2*a3*e1*e2 - b2^2*a1*a2*a3*e2^2 "
    "- b2^2*a2^2*e1^3 + b2^2*a2^2*e1*e2^2 + b1*b2*b3*a1*a2*a3 - "
    "b1*b2*b3*a2^2*e1 - 2*b1*b2*b3*a2^2*e2 - b2^2*a1^2*a3^2 + "
    "5*b2^2*a1*a2*a3*e1 - 2*b2^2*a1*a2*a3*e2 - 3*b2^2*a2^2*e1^2 + "
    "2*b2^2*a2^2*e1*e2 + b2^2*a2^2*e2^2 - b1*b2*b3*a2^2 + b2^2*a1*a2*a3 "
    "- 2*b2^2*a2^2*e1 + 2*b2^2*a2^2*e2)")


class TestModifiedLogVolume:
    def test_identity_modification(self):
        s = coordinate_seed(3, [1], [[0], [1], [-1]])
        pi = PoissonStructure.zero(s.vars)
        mod = FrozenModification.identity([2, 3], s.vars)
        mu = modified_log_volume(s, mod, pi)
        assert mu.coefficient == seed_log_volume(s).coefficient

    def test_constant_casimir_scaling(self):
        s = coordinate_seed(3, [1], [[0], [1], [-1]])
        pi = PoissonStructure.zero(s.vars)
        two = RatFun.const(s.vars, 2)
        mod = FrozenModification(
            {2: two, 3: RatFun.const(s.vars, 1)}, {2: {2: 1}, 3: {3: 1}}
        )
        mu = modified_log_volume(s, mod, pi)
        assert mu.coefficient == seed_log_volume(s).coefficient

    def test_not_casimir_rejected(self):
        vs = VarSet(["z1", "z2"])
        mat = [
            [Poly.zero(vs), Poly.var(vs, "z1") * Poly.var(vs, "z2")],
            [-(Poly.var(vs, "z1") * Poly.var(vs, "z2")), Poly.zero(vs)],
        ]
        pi = PoissonStructure(vs, mat)
        s = Seed(vs, [Poly.var(vs, "z1"), Poly.var(vs, "z2")], [1], [[0], [1]])
        bad = FrozenModification(
            {2: RatFun.var(vs, "z1")}, {2: {2: 1}}
        )
        with pytest.raises(NotCasimir, match="index 2 moves coordinate z2"):
            modified_log_volume(s, bad, pi)

    def test_bfz_n2_modification(self):
        # frozen modification of the SL(3) cluster on the explicit chart: the
        # last-occurrence column function of the second letter is replaced by
        # (c_2 - c_1) g_2 g_1 and the modified volume has lowest degree l0 = 3
        chart = bfz_chart(2)
        funcs = chart.all_functions()
        n_funcs = len(funcs)
        s = Seed(chart.vars, funcs, [], [[] for _ in range(n_funcs)])
        g1_idx = 2 + 3 + chart.g_index[1]  # offset past f's and phi's
        g2_idx = 2 + 3 + chart.g_index[2]
        c2 = chart.casimir(2) - chart.casimir(1)
        mod = FrozenModification.identity(range(1, n_funcs + 1), chart.vars)
        mod.casimirs[g2_idx] = c2
        mod.monomials[g2_idx] = {g1_idx: 1, g2_idx: 1}
        mu = modified_log_volume(s, mod, chart.pi)
        assert mu.low_degree() == 3
        # exact arithmetic: any change of algorithm keeps the canonical string
        assert str(mu.coefficient) == BFZ_N2_MODIFIED_MU

    def test_bfz_n2_unmodified_degree_differs(self):
        # without the modification the volume degree overshoots l0
        chart = bfz_chart(2)
        s = Seed(chart.vars, chart.all_functions(), [], [[] for _ in range(8)])
        mu = seed_log_volume(s)
        assert mu.low_degree() == 4  # l0 + r - dim ker(1 + w0) = 3 + 2 - 1
