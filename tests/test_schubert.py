import dataclasses
import random
from itertools import combinations

import pytest

from clusterint.errors import (
    NonPolynomialStructure,
    NotDivisible,
    NotReduced,
    SizeOutOfRange,
    StructureViolated,
    WrongWord,
)
from clusterint.poisson_core import (
    LinearPoissonStructure,
    PoissonStructure,
    generic_rank,
    is_log_canonical,
    linearize,
)
from clusterint.polyring import Poly, RatFun, gradient, lowest_term, parse_poly
from clusterint import schubert
from clusterint.rationals import QQ
from clusterint.schubert import (
    _solve_lower,
    build_cell,
    choose_integrable_system,
    flow_structure_check,
    index_and_magic,
    magic_number,
    pfaffian_check,
    solid_minor_check,
)
from clusterint.dualgl import lows_closed_form, lows_minor_sum
from clusterint.typea import (
    ReducedWord,
    WeylElt,
    fundamental_weight,
    longest_word,
    pairing,
    simple_root,
)

from conftest import SL4_PI0_TABLE, SL4_PI_TABLE, SL4_PHIS, Z6, p6

from test_typea import _random_reduced_word, all_reduced_words, product_prefixes


@pytest.fixture(scope="module")
def sl4_cell():
    return build_cell(4, [1, 2, 3, 1, 2, 1])


class TestBuildCellSL4:
    def test_phis_exact(self, sl4_cell):
        assert [str(p) for p in sl4_cell.phis] == [
            "z1",
            "z2",
            "z3",
            "z1*z4 - z2",
            "z2*z5 - z3*z4",
            "z1*z4*z6 - z1*z5 - z2*z6 + z3",
        ]

    def test_full_bracket_table(self, sl4_cell):
        for (i, j), s in SL4_PI_TABLE.items():
            assert sl4_cell.pi_z.bracket_matrix[i - 1][j - 1] == RatFun.from_poly(
                p6(s)
            ), (i, j)

    def test_full_linearized_table(self, sl4_cell):
        for i in range(1, 7):
            for j in range(i + 1, 7):
                expect = p6(SL4_PI0_TABLE.get((i, j), "0"))
                assert sl4_cell.pi0.bracket_matrix[i - 1][j - 1] == RatFun.from_poly(
                    expect
                ), (i, j)

    def test_lows_boxed_minors(self, sl4_cell):
        lows = sl4_cell.lows()
        expect = ["z1", "z2", "z3", "z2", "z2*z5 - z3*z4", "z3"]
        for got, want in zip(lows, expect):
            w = p6(want)
            assert got == w or got == -w

    def test_low_degrees(self, sl4_cell):
        assert sl4_cell.low_degrees() == [1, 1, 1, 1, 2, 1]

    def test_kmaps(self, sl4_cell):
        assert sl4_cell.kminus == {1: None, 2: None, 3: None, 4: 1, 5: 2, 6: 4}
        assert sl4_cell.kplus == {1: 4, 2: 5, 3: None, 4: 6, 5: None, 6: None}

    def test_single_letter(self):
        cell = build_cell(2, [1])
        assert [str(p) for p in cell.phis] == ["z1"]
        assert cell.pi_z.is_zero()

    def test_m3_121(self):
        cell = build_cell(3, [1, 2, 1])
        assert str(cell.phis[0]) == "z1"
        low3, deg3 = lowest_term(cell.phis[2])
        z2 = parse_poly("z2", cell.vars)
        assert low3 == z2 or low3 == -z2
        assert deg3 == 1

    def test_not_reduced_rejected(self):
        with pytest.raises(NotReduced):
            build_cell(4, [1, 1])

    def test_non_polynomial_pullback_rejected(self):
        # the smallest half solves that divide: entry (0, 1), and entry
        # (1, 0) of a skew X, each (z1 + z2) / z1
        J = [[p6("z1"), p6("0")], [p6("0"), p6("z1")]]
        for B, skew in (([[p6("0"), p6("z1 + z2")], [p6("0"), p6("0")]], False),
                        ([[p6("0"), p6("0")], [p6("z1 + z2"), p6("0")]], True)):
            with pytest.raises(NonPolynomialStructure) as info:
                _solve_lower(J, B, skew)
            assert isinstance(info.value.__cause__, NotDivisible)

    def test_wrong_structure_rejected(self, monkeypatch):
        # a skew term added to one pair of entries after the solves: the pair
        # check runs on the returned P, so it must refuse it
        solve = schubert._pullback_structure

        def skewed(J, B, diag):
            P, Q = solve(J, B, diag)
            z1z2 = parse_poly("z1*z2", B[0][0].vars)
            P[0][1] = P[0][1] + z1z2
            P[1][0] = P[1][0] - z1z2
            return P, Q

        monkeypatch.setattr(schubert, "_pullback_structure", skewed)
        with pytest.raises(NonPolynomialStructure, match=r"pair \(\d,\d\)"):
            build_cell(3, longest_word(3))


@pytest.mark.parametrize("m, word", [
    (4, longest_word(4)), (5, longest_word(5)),
    (5, (2, 1, 3, 2, 4, 3)), (5, (1, 2, 1, 3, 2, 4))])
def test_pullback_solves_the_bracket_equation(m, word):
    # J P J^T = (lam_jk phi_j phi_k) entry by entry, by dense products of the
    # returned P, independently of the pair check inside build_cell
    cell = build_cell(m, word)
    P, phis, l = cell.pi_z.bracket_matrix, cell.phis, len(cell.phis)
    J = [gradient(phi, cell.vars)[0] for phi in phis]
    JP = [[sum((J[j][a] * P[a][b] for a in range(l)), Poly.zero(cell.vars))
           for b in range(l)] for j in range(l)]
    for j in range(l):
        for k in range(l):
            entry = sum((JP[j][b] * J[k][b] for b in range(l)), Poly.zero(cell.vars))
            assert entry == phis[j] * phis[k] * cell.lam[j][k], (j, k)


def lambda_by_products(word):
    """lam[j][k] = <w_j - u_j.w_j, w_k + u_k.w_k> for j < k, and skew, with
    each prefix u_k a product of simple reflections."""
    m, l = word.m, len(word)
    us = product_prefixes(word.letters, m)[1:]
    ws = [fundamental_weight(i, m) for i in word.letters]
    lam = [[0] * l for _ in range(l)]
    for j, k in combinations(range(l), 2):
        lam[j][k] = pairing(ws[j] - us[j].act(ws[j]), ws[k] + us[k].act(ws[k]))
        lam[k][j] = -lam[j][k]
    return lam


def test_lambda_matrix_is_the_per_prefix_formula():
    words = [ReducedWord(w, m) for m in (2, 3, 4) for w in all_reduced_words(m) if w]
    words += [longest_word(m) for m in range(5, 8)]
    for word in words:
        assert schubert._lambda_matrix(word, word.m) == lambda_by_products(word)


def test_linearization_at_the_origin_is_the_shifted_one(sl4_cell):
    # the structure moved to a base point c and linearized there, through
    # Poly.shift, is the linearization at the origin, which shifts nothing
    pi = sl4_cell.pi_z
    n = len(pi.vars)
    c = [QQ(k, 3) - 1 for k in range(n)]
    moved = PoissonStructure(pi.vars, [[x.shift([-v for v in c]) for x in row]
                                       for row in pi.bracket_matrix])
    origin = linearize(pi).bracket_matrix
    assert origin == sl4_cell.pi0.bracket_matrix
    assert linearize(pi, at=[0] * n).bracket_matrix == origin
    assert linearize(moved, at=c).bracket_matrix == origin


class TestChoose:
    def test_sl4(self, sl4_cell):
        rep = choose_integrable_system(sl4_cell)
        assert set(rep.functions) == {"z1", "z2", "z3", "z2*z5 - z3*z4"}
        assert rep.involutive and rep.independent_count == 4

    def test_single(self):
        rep = choose_integrable_system(build_cell(2, [1]))
        assert rep.functions == ["z1"]

    def test_m3_121(self):
        rep = choose_integrable_system(build_cell(3, [1, 2, 1]))
        assert set(rep.functions) == {"z1", "z2"}
        assert rep.selected_indices == [1, 2]

    def test_stored_lows_are_the_lowest_terms(self, sl4_cell):
        assert sl4_cell.phi_lows == [lowest_term(p) for p in sl4_cell.phis]

    def test_empty_word(self):
        with pytest.raises(WrongWord, match="empty word"):
            build_cell(3, [])

    @pytest.mark.parametrize("m", [2, 4, 5])
    def test_word_of_another_size(self, m):
        # was a bare IndexError at m=2 and a weight-size mismatch at m=4, 5
        with pytest.raises(WrongWord, match=f"word is for m=3, the cell for m={m}"):
            build_cell(m, ReducedWord([1, 2, 1], 3))


class TestIndexMagic:
    def test_sl4(self, sl4_cell):
        assert index_and_magic(sl4_cell) == {
            "d_w": 4,
            "ind": 2,
            "mag": 4,
            "rank_check": True,
        }

    def test_single(self):
        assert index_and_magic(build_cell(2, [1])) == {
            "d_w": 1,
            "ind": 1,
            "mag": 1,
            "rank_check": True,
        }

    def test_m3_121(self):
        assert index_and_magic(build_cell(3, [1, 2, 1])) == {
            "d_w": 2,
            "ind": 1,
            "mag": 2,
            "rank_check": True,
        }


class TestPfaffian:
    def test_sl4(self, sl4_cell):
        assert pfaffian_check(sl4_cell)

    def test_single(self):
        assert pfaffian_check(build_cell(2, [1]))

    def test_random_s5(self, rng):
        for _ in range(3):
            word = _random_reduced_word(rng, 5)
            if len(word) == 0:
                continue
            assert pfaffian_check(build_cell(5, word))


class TestSolidMinors:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_standard_word(self, m):
        assert solid_minor_check(m)

    def test_wrong_word(self):
        cell = build_cell(3, [2, 1, 2])
        with pytest.raises(WrongWord):
            solid_minor_check(3, cell)


class TestLongWord:
    def test_m6(self):
        cell = build_cell(6, longest_word(6))
        assert index_and_magic(cell) == {
            "d_w": 9,
            "ind": 3,
            "mag": 9,
            "rank_check": True,
        }
        rep = choose_integrable_system(cell)
        assert rep.involutive and rep.independent_count == rep.magic_number == 9

    @pytest.mark.slow
    def test_m7(self):
        cell = build_cell(7, longest_word(7))
        assert solid_minor_check(7, cell)
        assert index_and_magic(cell)["ind"] == 3
        rep = choose_integrable_system(cell)
        assert rep.involutive and rep.independent_count == rep.magic_number == 12

    @pytest.mark.slow
    def test_m8(self):
        rep = choose_integrable_system(build_cell(8, longest_word(8)))
        assert rep.involutive and rep.independent_count == rep.magic_number == 16


class TestFlowStructure:
    def test_sl4_all_j(self, sl4_cell):
        for j in range(1, 7):
            rep = flow_structure_check(sl4_cell, j)
            assert rep["constant_coordinates"] == list(range(1, j + 1))

    def test_last_j_trivial(self, sl4_cell):
        rep = flow_structure_check(sl4_cell, 6)
        assert rep["linear_coordinates"] == []

    def test_random_s4(self, rng):
        for _ in range(4):
            word = _random_reduced_word(rng, 4)
            if len(word) == 0:
                continue
            cell = build_cell(4, word)
            for j in range(1, len(word) + 1):
                flow_structure_check(cell, j)

    def test_moved_earlier_coordinate_rejected(self, sl4_cell):
        # {z1, z2} = z2: z1 no longer commutes with low_2 = z2.  (low_1 is
        # z1 itself, whose bracket with z1 vanishes under any structure.)
        zero = Poly.zero(sl4_cell.vars)
        mat = [[zero] * 6 for _ in range(6)]
        mat[0][1] = Poly.var(sl4_cell.vars, "z2")
        mat[1][0] = -mat[0][1]
        cell = dataclasses.replace(
            sl4_cell, pi0=LinearPoissonStructure(sl4_cell.vars, mat))
        with pytest.raises(StructureViolated) as info:
            flow_structure_check(cell, 2)
        assert info.value.args[0] == (1, "z2")


@pytest.mark.parametrize("call", [
    lambda cell: fundamental_weight(0, 4),
    lambda cell: fundamental_weight(4, 4),
    lambda cell: simple_root(4, 4),
    lambda cell: flow_structure_check(cell, 0),
    lambda cell: flow_structure_check(cell, 7),
    lambda cell: lows_closed_form(3, 0, 3),
    lambda cell: lows_closed_form(3, 2, 1),
    lambda cell: lows_minor_sum(3, 0, 2),
], ids=["omega_0", "omega_m", "alpha_m", "flow_j0", "flow_j_past_word",
        "closed_form_i", "closed_form_p", "minor_sum_i_past_p"])
def test_index_out_of_range(sl4_cell, call):
    with pytest.raises(SizeOutOfRange):
        call(sl4_cell)


class TestStructuralInvariants:
    def test_predecessor_derivative(self, sl4_cell):
        # d phi_k / d z_k equals phi_{k^-} exactly
        for k in range(1, 7):
            d = gradient(sl4_cell.phis[k - 1], sl4_cell.vars)[0][k - 1]
            pred = sl4_cell.kminus[k]
            expect = (
                sl4_cell.phis[pred - 1]
                if pred
                else Poly.const(sl4_cell.vars, 1)
            )
            assert d == expect

    def test_log_canonical_lambda(self, sl4_cell):
        for j in range(6):
            for k in range(j + 1, 6):
                lam = is_log_canonical(
                    sl4_cell.pi_z, sl4_cell.phis[j], sl4_cell.phis[k]
                )
                assert lam == sl4_cell.lam[j][k]

    def test_degree_jump_lemma(self, rng):
        # deg(phi_{k^-}^low) <= deg(phi_k^low) <= 1 + deg(phi_{k^-}^low), with
        # the jump exactly when the predecessor low commutes with z_k
        for _ in range(4):
            word = _random_reduced_word(rng, 4)
            if len(word) == 0:
                continue
            cell = build_cell(4, word)
            degs = cell.low_degrees()
            lows = cell.lows()
            for k in range(1, len(word) + 1):
                pred = cell.kminus[k]
                pred_deg = degs[pred - 1] if pred else 0
                assert pred_deg <= degs[k - 1] <= 1 + pred_deg
                pred_low = (
                    lows[pred - 1] if pred else Poly.const(cell.vars, 1)
                )
                zk = Poly.var(cell.vars, f"z{k}")
                commutes = cell.pi0.bracket_poly(pred_low, zk).is_zero()
                assert (degs[k - 1] == 1 + pred_deg) == commutes

    def test_frozen_lows_are_casimirs(self, sl4_cell):
        for k in sl4_cell.frozen_indices():
            low = sl4_cell.lows()[k - 1]
            for name in sl4_cell.vars.names:
                z = Poly.var(sl4_cell.vars, name)
                assert sl4_cell.pi0.bracket_poly(low, z).is_zero()

    def test_property_I_random_words(self, rng):
        from clusterint.poisson_core import LogCanonicalSystem, property_I_check

        for _ in range(3):
            word = _random_reduced_word(rng, 4)
            if len(word) == 0:
                continue
            cell = build_cell(4, word)
            sys = LogCanonicalSystem(
                cell.vars, [RatFun.from_poly(p) for p in cell.phis], cell.lam
            )
            rep = property_I_check(sys, cell.pi_z, pi0=cell.pi0)
            assert rep.holds
