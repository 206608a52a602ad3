import dataclasses
from itertools import combinations

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
    table_order,
)
from clusterint.errors import SizeOutOfRange, TruncationInsufficient, WrongWord
from clusterint.poisson_core import generic_rank, is_log_canonical
from clusterint.polyring import Poly, RatFun, lowest_term, minors, parse_poly
from clusterint.rationals import QQ
from clusterint.typea import ReducedWord, longest_word

from conftest import linear_snapshot


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


@pytest.mark.parametrize("n", [2, 3])
def test_stored_lows_are_the_lowest_terms(n, c2, c3):
    # the build reads each low once, f's, phi's and psi's at the table cap
    # and each difference function at its own
    c = {2: c2, 3: c3}[n]
    assert [c.f_lows, c.phi_lows, c.psi_lows] == [
        [lowest_term(f, c.order) for f in fam] for fam in (c.fs, c.phis, c.psis)]
    assert c.gprime_lows == {i: lowest_term(c.gprimes[i], c.caps[i]) for i in c.I2}
    assert c.modified_lows() == [lowest_term(f) for f in c.modified_functions()]


class TestGoldenN2:
    def test_f1_low(self, c2):
        low, deg = c2.f_lows[0]
        u13 = Poly.var(c2.vars, "u13")
        assert low == u13 or low == -u13
        assert deg == 1

    def test_f1_equals_f2_low(self, c2):
        (low1, _), (low2, _) = c2.f_lows
        assert low1 == low2 or low1 == -low2

    def test_gprime2_low(self, c2):
        # sum of products of complementary corner minors, bordered by the
        # middle index
        u = minors(sl_u_matrix(2))
        expect = minor(u, [3], [1]) * minor(u, [1, 2], [2, 3]) + minor(
            u, [1], [3]
        ) * minor(u, [2, 3], [1, 2])
        # the table is cut at 2, the difference function at its own cap 3
        assert (c2.order, c2.caps) == (2, {2: 3})
        low, deg = c2.gprime_lows[2]
        assert deg == 3
        assert low == expect or low == -expect


class TestGexp:
    def test_n1_degenerate(self):
        c1 = build_bfz(1)
        assert c1.order == gexp_order(1) == 1
        assert gexp_check(c1)

    def test_n2(self, c2):
        assert gexp_check(c2)

    def test_n3(self, c3):
        assert gexp_check(c3)

    def test_n4(self, c4):
        # the highest difference low, of degree gexp_order(4), is read at
        # its own cap; the table is cut at table_order(4)
        assert c4.order == table_order(4) == 3
        assert c4.caps == {3: gexp_order(4), 4: 4} == {3: 5, 4: 4}
        assert gexp_check(c4)

    def test_n5(self, c5):
        assert c5.order == table_order(5) == 3
        assert c5.caps == {4: gexp_order(5), 5: 4} == {4: 5, 5: 4}
        assert gexp_check(c5)

    def test_rejects_a_changed_low(self, c2):
        # each stored low the check reads, changed, fails it: f_2 (compared
        # with f_1 only), the g of I1, the difference function, a constant
        # phi whose letter recurs, and a constant or doubled psi
        def twice(pair):
            return pair[0] * 2, pair[1]

        one = (Poly.const(c2.vars, 1), 0)
        g1 = c2.g_index[1] - 1
        psis = [twice(p) if k == g1 else p for k, p in enumerate(c2.psi_lows)]
        for change in (dict(f_lows=[c2.f_lows[0], twice(c2.f_lows[1])]),
                       dict(psi_lows=psis),
                       dict(gprime_lows={2: twice(c2.gprime_lows[2])}),
                       dict(phi_lows=[one] + c2.phi_lows[1:]),
                       dict(psi_lows=[one] + c2.psi_lows[1:]),
                       dict(psi_lows=[twice(c2.psi_lows[0])] + c2.psi_lows[1:])):
            assert not gexp_check(dataclasses.replace(c2, **change)), change

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_table_order_is_the_least_cap(self, n):
        # one below, the difference function of the least i in I2 loses its low
        with pytest.raises(TruncationInsufficient):
            _build_at_order(n, standard_double_word(n), table_order(n) - 1)

    def test_wrong_word(self):
        # a different reduced word of the longest element is rejected
        other = ReducedWord([2, 1, 2], 3)
        cluster = build_bfz(2, DoubleWord(other, other))
        with pytest.raises(WrongWord):
            gexp_check(cluster)


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

    def test_n6(self):
        rep = choose_integrable_system_bfz(build_bfz(6))
        assert rep.independent_count == rep.magic_number == 27
        assert rep.involutive

    @pytest.mark.slow
    def test_n7(self):
        rep = choose_integrable_system_bfz(build_bfz(7))
        assert rep.independent_count == rep.magic_number == 35
        assert rep.involutive


class TestCascade:
    def test_a1(self):
        assert kostant_cascade(1) == [(1, 2)]

    def test_a3(self):
        assert kostant_cascade(3) == [(1, 4), (2, 3)]

    def test_a4(self):
        assert kostant_cascade(4) == [(1, 5), (2, 4)]

    def test_strong_orthogonality(self):
        # brute force in the epsilon basis: neither the sum nor the
        # difference of two cascade roots is a root eps_a - eps_b
        def is_root(coords):
            return sorted(x for x in coords if x) == [-1, 1]

        for n in range(1, 7):
            roots = kostant_cascade(n)
            for (a, b), (c, d) in combinations(roots, 2):
                for s in (1, -1):
                    coords = [0] * (n + 1)
                    coords[a - 1] += 1
                    coords[b - 1] -= 1
                    coords[c - 1] += s
                    coords[d - 1] -= s
                    assert not is_root(coords), (n, (a, b), (c, d), s)


class TestStabilizer:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_dimension_equals_rank(self, n):
        assert stabilizer_dimension(n) == n

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cascade_point_witnesses_the_sampled_rank(self, n):
        # the exact witness and generic_rank's seeded points agree
        assert (len(sl_varset(n)) - stabilizer_dimension(n)
                == generic_rank(sl_dual_linear_structure(n)))


class TestDualStructure:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rank(self, n):
        assert generic_rank(sl_dual_linear_structure(n)) == n * (n + 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_jacobi(self, n):
        sl_dual_linear_structure(n).check_jacobi()


class TestSharedDualStructure:
    # pi0 depends only on n: one object per size, which no reader changes
    @pytest.mark.parametrize("n", [2, 3])
    def test_one_object_per_size_left_unchanged(self, n):
        pi0 = sl_dual_linear_structure(n)
        assert sl_dual_linear_structure(n) is pi0
        before = linear_snapshot(pi0)
        cluster = build_bfz(n)
        assert choose_integrable_system_bfz(cluster).independent_count == cluster.l0 + n
        assert stabilizer_dimension(n) == n
        pi0.check_jacobi()
        assert generic_rank(pi0) == n * (n + 1)
        assert sl_dual_linear_structure(n) is pi0 and linear_snapshot(pi0) == before

    def test_a_size_out_of_range_is_not_cached(self):
        size = sl_dual_linear_structure.cache_info().currsize
        for _ in range(2):
            with pytest.raises(SizeOutOfRange):
                sl_dual_linear_structure(10)
        assert sl_dual_linear_structure.cache_info().currsize == size


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
        for n in (0, 10):
            with pytest.raises(SizeOutOfRange):
                stabilizer_dimension(n)
        assert len(sl_varset(9)) == 99
        # u1_11 and u11_1 would both be named u111
        with pytest.raises(SizeOutOfRange, match="largest supported n is 9"):
            sl_varset(10)
