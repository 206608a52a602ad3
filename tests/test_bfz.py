import pytest

from clusterint.bfz import (
    BFZCluster,
    DoubleWord,
    _build_at_order,
    bfz_chart,
    build_bfz,
    choose_integrable_system_bfz,
    gexp_check,
    gexp_formulas,
    gexp_order,
    interval,
    kostant_cascade,
    minor,
    modified_mu_low_degree,
    sl_dual_linear_structure,
    sl_u_matrix,
    sl_varset,
    stabilizer_dimension,
    standard_double_word,
)
from clusterint.errors import SizeOutOfRange, WrongWord
from clusterint.poisson_core import generic_rank, is_log_canonical
from clusterint.polyring import Poly, RatFun, lowest_term, minors, parse_poly
from clusterint.rationals import QQ
from clusterint.typea import ReducedWord, longest_word


@pytest.fixture(scope="module")
def c2():
    return build_bfz(2)


@pytest.fixture(scope="module")
def c3():
    return build_bfz(3)


@pytest.fixture(scope="module")
def c4():
    return build_bfz(4)


@pytest.fixture(scope="module")
def c5():
    return build_bfz(5)


@pytest.fixture(scope="module")
def chart2():
    return bfz_chart(2)


class TestGoldenN2:
    def test_f1_low(self, c2):
        low, deg = lowest_term(c2.fs[0], c2.order)
        u13 = Poly.var(c2.vars, "u13")
        assert low == u13 or low == -u13
        assert deg == 1

    def test_f1_equals_f2_low(self, c2):
        low1, _ = lowest_term(c2.fs[0], c2.order)
        low2, _ = lowest_term(c2.fs[1], c2.order)
        assert low1 == low2 or low1 == -low2

    def test_gprime2_low(self, c2):
        # sum of products of complementary corner minors, bordered by the
        # middle index
        u = minors(sl_u_matrix(2))
        expect = minor(u, [3], [1]) * minor(u, [1, 2], [2, 3]) + minor(
            u, [1], [3]
        ) * minor(u, [2, 3], [1, 2])
        low, deg = lowest_term(c2.gprimes[2], c2.order)
        assert deg == 3
        assert low == expect or low == -expect


class TestGexp:
    def test_n1_degenerate(self):
        c1 = build_bfz(1)
        assert c1.order == gexp_order(1) == 1
        assert gexp_check(1, c1)

    def test_n2(self, c2):
        assert gexp_check(2, c2)

    def test_n3(self, c3):
        assert gexp_check(3, c3)

    def test_n4(self, c4):
        assert c4.order == 5
        assert gexp_check(4, c4)

    def test_n5(self, c5):
        assert c5.order == 5
        assert gexp_check(5, c5)

    def test_wrong_word(self):
        # a different reduced word of the longest element is rejected
        other = ReducedWord([2, 1, 2], 3)
        cluster = build_bfz(2, DoubleWord(other, other))
        with pytest.raises(WrongWord):
            gexp_check(2, cluster)


class TestChoose:
    def test_n1(self):
        rep = choose_integrable_system_bfz(build_bfz(1))
        assert rep.independent_count == rep.magic_number == 2
        assert rep.involutive

    def test_n2(self, c2):
        rep = choose_integrable_system_bfz(c2)
        assert rep.independent_count == rep.magic_number == 5
        assert rep.involutive

    def test_n3(self, c3):
        rep = choose_integrable_system_bfz(c3)
        assert rep.independent_count == rep.magic_number == 9
        assert rep.involutive

    def test_n4(self, c4):
        rep = choose_integrable_system_bfz(c4)
        assert rep.independent_count == rep.magic_number == 14
        assert rep.involutive

    def test_n5(self, c5):
        rep = choose_integrable_system_bfz(c5)
        assert rep.independent_count == rep.magic_number == 20
        assert rep.involutive


class TestCascade:
    def test_a1(self):
        assert kostant_cascade(1).roots == [(1, 2)]

    def test_a3(self):
        assert kostant_cascade(3).roots == [(1, 4), (2, 3)]

    def test_a4(self):
        assert kostant_cascade(4).roots == [(1, 5), (2, 4)]

    def test_strong_orthogonality(self):
        for n in range(1, 7):
            assert kostant_cascade(n).strongly_orthogonal()


class TestStabilizer:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_dimension_equals_rank(self, n):
        assert stabilizer_dimension(n) == n


class TestDualStructure:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rank(self, n):
        assert generic_rank(sl_dual_linear_structure(n)) == n * (n + 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_jacobi(self, n):
        sl_dual_linear_structure(n).check_jacobi()


class TestDegreeIdentities:
    # a product f_i g_i has degree deg f_i + deg g_i, and a difference of
    # two products one more; the largest, f_2 g_2 at n=3 (two 2x2 minors),
    # has degree 4, above the cluster's own order 3
    @pytest.mark.parametrize("n", [2, 3])
    def test_product_lows_match_and_jump(self, n):
        c = _build_at_order(n, standard_double_word(n), {2: 3, 3: 4}[n])
        for i in range(1, n + 1):
            istar = n + 1 - i
            fg = c.fs[i - 1] * c.g(i)
            fgs = c.fs[istar - 1] * c.g(istar)
            got_i = lowest_term(fg, c.order)
            got_s = lowest_term(fgs, c.order)
            assert got_i is not None and got_i == got_s
            if i != istar:
                got_d = lowest_term(fg - fgs, c.order)
                assert got_d is not None
                assert got_d[1] == got_i[1] + 1

    def test_modified_mu_degree_n2(self):
        # the modified log-volume form has lowest degree l0 = 3
        assert modified_mu_low_degree(2) == 3


class TestOffDiagonalShape:
    @pytest.mark.parametrize("n", [2, 3])
    def test_frozen_lows_avoid_diagonal(self, n, c2, c3):
        c = {2: c2, 3: c3}[n]
        diag = {c.vars.index[f"u{t}{t}"] for t in range(1, n + 1)}
        for i in range(1, n + 1):
            for f in (c.fs[i - 1], c.g(i)):
                low, _ = lowest_term(f, c.order)
                for e, _ in low.sorted_terms():
                    assert all(e[d] == 0 for d in diag)


class TestChart:
    def test_all_pairs_log_canonical(self, chart2):
        funcs = chart2.all_functions()
        for i in range(len(funcs)):
            for j in range(i + 1, len(funcs)):
                assert is_log_canonical(chart2.pi, funcs[i], funcs[j]) is not None

    def test_casimir_legality(self, chart2):
        # lambda(f_i, F) equals lambda(g_{i*}, F) for every cluster member, so
        # f_i/g_{i*} is a Casimir
        funcs = chart2.all_functions()
        for i in (1, 2):
            fi = chart2.fs[i - 1]
            gs = chart2.g(3 - i)
            for F in funcs:
                if F is fi or F is gs:
                    continue
                assert is_log_canonical(chart2.pi, fi, F) == is_log_canonical(
                    chart2.pi, gs, F
                )

    def test_jacobi(self, chart2):
        chart2.pi.check_jacobi()

    # the field of h on every row, against the bracket with each
    # coordinate; Casimirs have the zero field
    @pytest.mark.parametrize("h, moves", [
        (lambda ch: ch.phis[1], True),
        (lambda ch: ch.psis[0], True),
        (lambda ch: ch.casimir(1), False),
        (lambda ch: ch.casimir(2) - ch.casimir(1), False),
    ], ids=["phi2", "psi1", "casimir1", "casimir-difference"])
    def test_hamiltonian_field_is_the_bracket_with_each_coordinate(self, chart2, h, moves):
        h = h(chart2)
        field = chart2.pi.hamiltonian_field(h)
        for nm, entry in zip(chart2.vars.names, field):
            assert entry == chart2.pi.bracket(RatFun.var(chart2.vars, nm), h)
        assert any(not entry.is_zero() for entry in field) == moves

    @pytest.mark.parametrize("n", [2, 3])
    def test_casimir_field_vanishes(self, chart2, n):
        chart = chart2 if n == 2 else bfz_chart(3)
        c = chart.casimir(2) - chart.casimir(1)
        assert not c.is_constant()
        assert all(x.is_zero() for x in chart.pi.hamiltonian_field(c))

    def test_structure_vanishes_at_base_point(self, chart2):
        zero = [QQ(0)] * len(chart2.vars)
        for row in chart2.pi.bracket_matrix:
            for x in row:
                assert x.evaluate(zero) == 0


class TestValidation:
    def test_double_word_rejects_non_longest(self):
        w = ReducedWord([1], 3)
        with pytest.raises(WrongWord):
            DoubleWord(w, w)

    def test_build_rejects_wrong_size(self):
        with pytest.raises(WrongWord):
            build_bfz(3, standard_double_word(2))

    def test_sizes_out_of_range(self):
        with pytest.raises(SizeOutOfRange):
            build_bfz(0)
        with pytest.raises(SizeOutOfRange):
            modified_mu_low_degree(0)
        with pytest.raises(SizeOutOfRange):
            kostant_cascade(0)
        assert len(sl_varset(9)) == 99
        # u1_11 and u11_1 would both be named u111
        with pytest.raises(SizeOutOfRange, match="largest supported n is 9"):
            sl_varset(10)
