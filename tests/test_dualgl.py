import random

import pytest

from clusterint.dualgl import (
    DualGroupChart,
    F_inverse,
    F_map,
    bb_varset,
    build_dual_chart,
    build_staircase,
    casimir_binomial_check,
    choose_integrable_system_dualgl,
    chart_varset,
    kks_gl,
    log_volume_identity_check,
    lows_closed_form,
    lows_minor_sum,
    lows_via_jets,
    minor_product_expansion,
    restrict_to_chart,
    trailing_minor_closed_form_check,
    u_poly_matrix,
    u_varset,
    x_matrix,
    y_matrix,
)
from clusterint.errors import SingularLocus, SizeOutOfRange
from clusterint.poisson_core import generic_rank, is_log_canonical
from clusterint.polyring import Poly, PolyMatrix, RatFun, det, parse_poly
from clusterint.rationals import QQ, QQ0, QQ1


@pytest.fixture(scope="module")
def s3():
    return build_staircase(3)


@pytest.fixture(scope="module")
def jets3(s3):
    return lows_via_jets(s3)


@pytest.fixture(scope="module")
def s4():
    return build_staircase(4)


@pytest.fixture(scope="module")
def jets4(s4):
    return lows_via_jets(s4)


@pytest.fixture(scope="module")
def chart2():
    return build_dual_chart(2)


def up_to_sign(a, b):
    return a == b or a == -b


class TestChart:
    def test_x11_y21(self, chart2):
        a = chart2.vars.index["x11"]
        b = chart2.vars.index["y21"]
        expect = parse_poly("1/2*x11*y21", chart2.vars)
        assert chart2.pi_dual.bracket_matrix[a][b] == RatFun.from_poly(expect)

    def test_two_digit_indices(self):
        # y1010 is y_{10,10}, which the chart eliminates as 1/x_{10,10}
        chart = DualGroupChart(10, chart_varset(10), None)
        got = restrict_to_chart(Poly.var(bb_varset(10), "y1010"), chart)
        assert got == 1 / RatFun.var(chart.vars, "x1010")

    def test_self_bracket(self, chart2):
        a = chart2.vars.index["x11"]
        assert chart2.pi_dual.bracket_matrix[a][a].is_zero()

    def test_cbar0_is_casimir(self, chart2, rng):
        s = build_staircase(2)
        c0 = s.cbar(0, chart2)
        for nm in chart2.vars.names:
            br = chart2.pi_dual.bracket(c0, RatFun.var(chart2.vars, nm))
            assert br.is_zero(), nm

    def test_chain_rule_matches_direct_substitution(self, chart2):
        # oracle: compute {y21, x22} on the double group with y11, y22 kept
        # symbolic, then substitute the diagonal constraint afterwards
        # {y21, x22} = 1/2((1+sign(2-1)) y22 x21 - (1+sign(2-2)) x22 y21)
        #            = -1/2 x22 y21  (x21 = 0), then flip the overall sign
        a = chart2.vars.index["y21"]
        b = chart2.vars.index["x22"]
        expect = parse_poly("1/2*x22*y21", chart2.vars)
        assert chart2.pi_dual.bracket_matrix[a][b] == RatFun.from_poly(expect)


class TestStaircase:
    def test_n3_phi4(self, s3):
        assert str(s3.phis[3]) == "y31"

    def test_n3_phi3(self, s3):
        assert s3.phis[2] == parse_poly("x23*y31 - x33*y21", s3.bb_vars)

    def test_n3_phi2(self, s3):
        expect = parse_poly("-x33*y21*y32 + x23*y31*y32 - x22*y31*y33", s3.bb_vars)
        assert s3.phis[1] == expect

    def test_n3_phi1(self, s3):
        expect = parse_poly(
            "-x33*y32*y21^2 + x33*y22*y31*y21 + x23*y31*y32*y21"
            " - x22*y31*y33*y21 - x23*y22*y31^2",
            s3.bb_vars,
        )
        assert s3.phis[0] == expect

    def test_n2_single_phi(self):
        s = build_staircase(2)
        assert str(s.phis[0]) == "y21"

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lambda_interleaving(self, n, s3, s4):
        s = {2: build_staircase(2), 3: s3, 4: s4}[n]
        lams = s.lambdas()
        xs = [Poly.var(s.bb_vars, f"x{i}{i}") for i in range(1, n + 1)]
        tail = Poly.const(s.bb_vars, 1)
        for i in range(2, n + 1):
            tail = tail * xs[i - 1]
        for i in range(1, (n - 1) ** 2 + 1):
            assert lams[i - 1] == s.phis[i - 1] * tail
        for i in range(1, n):
            expect = Poly.const(s.bb_vars, 1)
            for t in range(n - i + 1, n + 1):
                expect = expect * xs[t - 1]
            assert lams[n * (n - 1) - i] == expect


class TestJetLows:
    def test_n3_golden(self, jets3):
        uv = jets3.u_vars
        assert up_to_sign(jets3.phi_lows[1][0], parse_poly("u31", uv))
        assert up_to_sign(jets3.phi_lows[2][0], parse_poly("u21", uv))
        assert jets3.phi_lows[3][0] == parse_poly("-u31", uv)
        # the four-term cubic: consistent with the paper's own minor
        # expansion (the displayed expansion has a sign slip on its first term)
        expect = parse_poly(
            "u21^2*u32 - u21*u22*u31 + u21*u31*u33 - u23*u31^2", uv
        )
        assert up_to_sign(jets3.phi_lows[0][0], expect)

    def test_n3_cbar_golden(self, jets3):
        uv = jets3.u_vars
        u = u_poly_matrix(3)
        assert jets3.cbar_lows[0][0] == det(u)
        two_by_two = (
            det(u.submatrix([0, 1], [0, 1]))
            + det(u.submatrix([0, 2], [0, 2]))
            + det(u.submatrix([1, 2], [1, 2]))
        )
        assert jets3.cbar_lows[1][0] == two_by_two
        assert jets3.cbar_lows[2][0] == parse_poly("u11 + u22 + u33", uv)

    def test_n2_cbar0_det(self):
        s = build_staircase(2)
        jets = lows_via_jets(s)
        assert jets.cbar_lows[0][0] == det(u_poly_matrix(2))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cbar_degrees(self, n, jets3, jets4):
        jets = {2: lows_via_jets(build_staircase(2)), 3: jets3, 4: jets4}[n]
        assert [d for (_, d) in jets.cbar_lows] == [n - i for i in range(n)]

    def test_principal_minor_sums(self, jets4):
        # sum of principal (n-i) x (n-i) minors of u
        from itertools import combinations

        u = u_poly_matrix(4)
        for i in range(0, 4):
            size = 4 - i
            total = Poly.zero(jets4.u_vars)
            for rows in combinations(range(4), size):
                total = total + det(u.submatrix(list(rows), list(rows)))
            assert jets4.cbar_lows[i][0] == total


class TestClosedForms:
    @pytest.mark.parametrize("n", [2, 3])
    def test_all_routes_agree(self, n, jets3):
        jets = {2: lows_via_jets(build_staircase(2)), 3: jets3}[n]
        for p in range(0, n - 1):
            for i in range(1, n):
                k = p * (n - 1) + i
                jl = jets.phi_lows[k - 1][0]
                assert up_to_sign(jl, lows_closed_form(n, p, i))
                assert up_to_sign(jl, minor_product_expansion(n, p, i))
                if i <= p + 1:
                    assert up_to_sign(jl, lows_minor_sum(n, p, i))

    def test_n4_routes_agree(self, jets4):
        for p in range(0, 3):
            for i in range(1, 4):
                k = 3 * p + i
                jl = jets4.phi_lows[k - 1][0]
                assert up_to_sign(jl, lows_closed_form(4, p, i))
                assert up_to_sign(jl, minor_product_expansion(4, p, i))

    def test_gl4_nine_term_expansion(self, jets4):
        # phi1^low in terms of the other lows and complementary minors
        u = u_poly_matrix(4)

        def mino(rows, cols):
            return det(u.submatrix([r - 1 for r in rows], [c - 1 for c in cols]))

        phi = {k: jets4.phi_lows[k - 1][0] for k in range(1, 10)}
        expect = (
            mino([2, 3, 4], [1, 2, 3]) * phi[4]
            + mino([2, 3, 4], [1, 2, 4]) * phi[3]
            + mino([2, 3, 4], [1, 3, 4]) * phi[2]
        )
        assert up_to_sign(phi[1], expect)
        assert phi[5] == phi[2]
        assert up_to_sign(phi[6], mino([4], [1]))
        assert up_to_sign(phi[7], mino([2], [1]))
        assert up_to_sign(phi[8], mino([3], [1]))
        assert phi[9] == phi[6]

    def test_86_terms_at_n4(self, jets4):
        assert len(jets4.phi_lows[0][0].terms) == 86

    def test_trailing_minor_closed_form(self, s3):
        assert trailing_minor_closed_form_check(2)
        assert trailing_minor_closed_form_check(3, s3)


class TestKKS:
    @pytest.mark.parametrize("n", [2, 3])
    def test_trace_power_casimirs(self, n):
        pi0 = kks_gl(n)
        u = u_poly_matrix(n)
        uv = u.entries[0][0].vars
        power = PolyMatrix.identity(uv, n)
        for k in range(1, n + 1):
            power = power * u
            tr = Poly.zero(uv)
            for i in range(n):
                tr = tr + power.entries[i][i]
            for nm in uv.names:
                assert pi0.bracket_poly(tr, Poly.var(uv, nm)).is_zero()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rank(self, n):
        assert generic_rank(kks_gl(n)) == n * n - n

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_jacobi(self, n):
        kks_gl(n).check_jacobi()

    def test_differs_from_gelfand_zeitlin(self, jets3):
        pi0 = kks_gl(3)
        uv = jets3.u_vars
        phi4low = jets3.phi_lows[3][0]
        for other in ("u11 + u22", "u22 + u33"):
            assert not pi0.bracket_poly(phi4low, parse_poly(other, uv)).is_zero()


class TestChoose:
    def test_n2(self):
        rep = choose_integrable_system_dualgl(2)
        assert rep.independent_count == rep.magic_number == 3
        assert rep.involutive
        assert rep.selected_indices == ["phi1", "cbar0", "cbar1"]

    def test_n3(self, s3, jets3):
        rep = choose_integrable_system_dualgl(3, s=s3, jets=jets3)
        assert rep.independent_count == rep.magic_number == 6
        assert rep.involutive
        assert rep.selected_indices == [
            "phi1",
            "phi3",
            "phi4",
            "cbar0",
            "cbar1",
            "cbar2",
        ]

    def test_n4(self, s4, jets4):
        rep = choose_integrable_system_dualgl(4, s=s4, jets=jets4)
        assert rep.independent_count == rep.magic_number == 10
        assert rep.involutive


class TestCasimirIdentity:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_binomial(self, n):
        assert casimir_binomial_check(n)


class TestKrylovMap:
    def test_jordan_block(self):
        n = 4
        u = [[QQ1 if i == j + 1 else QQ0 for j in range(n)] for i in range(n)]
        f = F_map(u)
        for k in range(n - 1):
            col = [f[i][k] for i in range(n)]
            assert col == [QQ1 if i == k + 1 else QQ0 for i in range(n)]
        assert [f[i][n - 1] for i in range(n)] == [QQ0] * n
        assert F_inverse(f) == u

    def test_zero_outside_domain(self):
        z = [[QQ0] * 3 for _ in range(3)]
        assert F_map(z) == z
        with pytest.raises(SingularLocus):
            F_inverse(z)

    def test_round_trip_n5(self, rng):
        for _ in range(20):
            u = [
                [QQ(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)]
                for _ in range(5)
            ]
            try:
                f = F_map(u)
                u2 = F_inverse(f)
            except SingularLocus:
                continue
            assert u2 == u


class TestLogVolume:
    def test_identity_n2(self):
        assert log_volume_identity_check(2)

    @pytest.mark.slow
    def test_identity_n3(self, s3):
        assert log_volume_identity_check(3, s3)


class TestValidation:
    def test_sizes_out_of_range(self):
        with pytest.raises(SizeOutOfRange):
            build_staircase(1)
        with pytest.raises(SizeOutOfRange):
            build_dual_chart(1)
        assert len(u_varset(10)) == 100
        # u1_11 and u11_1 would both be named u111
        with pytest.raises(SizeOutOfRange, match="largest supported n is 10"):
            u_varset(11)
