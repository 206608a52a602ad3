import gc
import random

import pytest

from clusterint.errors import (
    BadTruncation,
    BadVariableNames,
    DimensionMismatch,
    EvaluationSingular,
    MixedVariables,
    NegativePower,
    NonSquare,
    NotDivisible,
    NotVanishing,
    PolySyntaxError,
    SingularLocus,
    TruncationInsufficient,
    ZeroInput,
)
from clusterint.polyring import (
    Jet,
    Poly,
    PolyMatrix,
    RatFun,
    VarSet,
    _heu_gcd,
    adjugate,
    det,
    dot,
    gradient,
    inverse,
    jacobian,
    lowest_term,
    minors,
    numeric_pivots,
    numeric_rank,
    parse_poly,
    poly_gcd,
    truncated_exp,
)
from clusterint.rationals import QQ
from clusterint.typea import bott_samelson, longest_word

from conftest import Z6, p6, random_poly


class TestLowestTerm:
    def test_sl4_phi6(self):
        # z6*(z4*z1 - z2) - z1*z5 + z3 has lowest term z3 of degree 1
        phi6 = p6("z1*z4*z6 - z2*z6 - z1*z5 + z3")
        low, deg = lowest_term(phi6)
        assert low == p6("z3")
        assert deg == 1

    def test_nonzero_constant(self):
        low, deg = lowest_term(Poly.const(Z6, 1))
        assert low == Poly.const(Z6, 1)
        assert deg == 0

    def test_ratfun(self):
        f = RatFun(p6("z1 + z1^2"), p6("1 + z2"))
        low, deg = lowest_term(f)
        assert low == RatFun.from_poly(p6("z1"))
        assert deg == 1

    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            lowest_term(Poly.zero(Z6))

    def test_no_term_through_the_order_raises(self):
        # every term of z1^3 + z2^4 lies above order 2, as does every term
        # of the zero truncation
        for f in (p6("z1^3 + z2^4"), Poly.zero(Z6)):
            with pytest.raises(TruncationInsufficient, match="jet order 2"):
                lowest_term(f, 2)
        assert lowest_term(p6("z1^3 + z2^2"), 2) == (p6("z2^2"), 2)

    def test_multiplicative(self, rng):
        for _ in range(30):
            f = random_poly(rng, Z6)
            g = random_poly(rng, Z6)
            if f.is_zero() or g.is_zero():
                continue
            lf, df = lowest_term(f)
            lg, dg = lowest_term(g)
            lfg, dfg = lowest_term(f * g)
            assert lfg == lf * lg
            assert dfg == df + dg

    def test_presentation_independent(self, rng):
        # (f*h)/(g*h) has the same lowest term as f/g
        for _ in range(20):
            f = random_poly(rng, Z6)
            g = random_poly(rng, Z6)
            h = random_poly(rng, Z6)
            if f.is_zero() or g.is_zero() or h.is_zero():
                continue
            a = lowest_term(RatFun(f, g))
            b = lowest_term(RatFun(f * h, g * h, reduce=False))
            assert a[1] == b[1]
            assert a[0] == b[0]


class TestDet:
    def test_2x2(self):
        m = PolyMatrix([[p6("z1"), p6("-1")], [p6("1"), p6("0")]])
        assert det(m) == Poly.const(Z6, 1)

    def test_identity(self):
        assert det(PolyMatrix.identity(Z6, 3)) == Poly.const(Z6, 1)

    def test_sl4_jacobian_det(self, sl4_phis):
        j = jacobian(sl4_phis, Z6)
        assert det(j) == p6("z1") * p6("z2") * p6("z1*z4 - z2")

    def test_nonsquare(self):
        with pytest.raises(NonSquare):
            det(PolyMatrix([[p6("z1"), p6("z2")]]))
        with pytest.raises(NonSquare, match="1x0 minor"):
            minors(PolyMatrix([[]]))

    def test_mixed_variable_sets_are_refused(self):
        # the table packs every entry up front, so it refuses before any minor
        m = PolyMatrix([[p6("z1"), Poly.var(VarSet(["a"]), "a")], [p6("1"), p6("z2")]])
        with pytest.raises(MixedVariables):
            minors(m)
        with pytest.raises(MixedVariables):
            det(m)

    def test_a_negative_cap_is_refused(self):
        m = PolyMatrix([[p6("z1 + 1"), p6("z2")], [p6("1"), p6("z3 + 2")]])
        for fn in (minors, det):
            with pytest.raises(BadTruncation, match="cap must be >= 0"):
                fn(m, -1)
        with pytest.raises(BadTruncation, match="cap must be >= 0"):
            dot(Z6, [(p6("z1"), p6("z2"))], -1)
        # cap 0 keeps the constant terms of the entries, and of det(m)
        assert det(m, 0) == det(m).truncate(0) == Poly.const(Z6, 2)

    def test_leaves_no_cyclic_garbage(self):
        # the memo of minors is freed as soon as det returns
        vs = VarSet(["a", "b", "c"])
        letters = ["a", "b", "c", "a + b", "b - c"]
        m = PolyMatrix(
            [[parse_poly(letters[(i * j) % 5], vs) + i - j for j in range(5)]
             for i in range(5)]
        )
        gc.collect()
        det(m, 3)
        assert gc.collect() == 0

    @pytest.mark.parametrize("rows", [
        [[p6("z1"), RatFun(p6("1"), p6("z2"))], [p6("1"), p6("z2")]],
        [[RatFun(p6("z1"), p6("z2")), RatFun.const(Z6, 1)],
         [RatFun.const(Z6, 1), RatFun(p6("z2"), p6("z1"))]],
    ], ids=["mixed", "all-ratfun"])
    def test_ratfun_entries_are_refused(self, rows):
        # a RatFun matrix is cleared to Polys by its caller, as
        # poisson_core._cleared_jacobian does
        for fn in (minors, det, adjugate, inverse):
            with pytest.raises(NotDivisible):
                fn(PolyMatrix(rows))

    @pytest.mark.parametrize("entry", [QQ(1, 2), 3], ids=["Fraction", "int"])
    def test_other_entries_are_named(self, entry):
        m = PolyMatrix([[p6("z1"), entry], [p6("1"), p6("z2")]])
        name = type(entry).__name__
        for fn in (minors, det, adjugate, inverse):
            with pytest.raises(TypeError, match=f"not {name}"):
                fn(m)


class TestInverse:
    def test_rejects_singular_and_non_square(self):
        with pytest.raises(SingularLocus):
            inverse(PolyMatrix([[p6("1"), p6("2")], [p6("2"), p6("4")]]))
        with pytest.raises(NonSquare):
            inverse(PolyMatrix([[p6("1"), p6("2")]]))

    def test_jet_matrix_is_refused(self):
        with pytest.raises(TypeError, match="not Jet"):
            inverse(PolyMatrix.identity(Z6, 2).map(lambda p: Jet(p, 2)))

    @pytest.mark.parametrize("m", [3, 4])
    def test_bott_samelson_round_trip(self, m):
        # a Poly matrix of unit determinant has a Poly inverse, its adjugate
        g = bott_samelson(longest_word(m), m)
        inv = inverse(g)
        assert all(type(x) is Poly for row in inv.entries for x in row)
        assert (inv * g).entries == PolyMatrix.identity(g[0, 0].vars, m).entries

    def test_poly_matrix_of_non_constant_determinant_is_refused(self):
        with pytest.raises(NotDivisible):
            inverse(PolyMatrix([[p6("z1"), p6("1")], [p6("0"), p6("1")]]))

    def test_singular_poly_matrix_is_refused(self):
        with pytest.raises(SingularLocus):
            inverse(PolyMatrix([[p6("z1"), p6("z2")], [p6("2*z1"), p6("2*z2")]]))


class TestJacobian:
    def test_identity(self):
        fs = [p6("z1"), p6("z2")]
        vs2 = VarSet(["z1", "z2"])
        fs = [parse_poly("z1", vs2), parse_poly("z2", vs2)]
        j = jacobian(fs, vs2)
        assert j.entries[0][0] == Poly.const(vs2, 1)
        assert j.entries[0][1].is_zero()
        assert j.entries[1][1] == Poly.const(vs2, 1)

    def test_product_column(self):
        vs2 = VarSet(["z1", "z2"])
        j = jacobian([parse_poly("z1*z2", vs2)], vs2)
        # rows indexed by variables, single column
        assert j.rows == 2 and j.cols == 1
        assert j.entries[0][0] == parse_poly("z2", vs2)
        assert j.entries[1][0] == parse_poly("z1", vs2)

    def test_phi4_column(self):
        j = jacobian([p6("z1*z4 - z2")], Z6)
        col = [j.entries[a][0] for a in range(6)]
        assert col == [p6("z4"), p6("-1"), p6("0"), p6("z1"), p6("0"), p6("0")]

    def test_ratfun_column_is_cleared_by_the_squared_denominator(self):
        # d/dz (z1/z2) = (1/z2, -z1/z2^2, 0, ...), times z2^2
        j = jacobian([RatFun(p6("z1"), p6("z2")), p6("z3")], Z6)
        assert all(type(x) is Poly for row in j.entries for x in row)
        assert [j.entries[a][0] for a in range(3)] == [p6("z2"), p6("-z1"), p6("0")]
        assert [j.entries[a][1] for a in range(3)] == [p6("0"), p6("0"), p6("1")]

    def test_gradient_has_no_denominator_without_one(self):
        for h in (p6("z1*z2"), RatFun.from_poly(p6("z1*z2")), RatFun(p6("2*z1*z2"), p6("2"))):
            grad, den = gradient(h, Z6)
            assert den is None
            assert grad[:3] == [p6("z2"), p6("z1"), p6("0")]

    def test_gradient_of_a_quotient(self):
        grad, den = gradient(RatFun(p6("z1"), p6("z1 + z2")), Z6)
        assert den == p6("z1^2 + 2*z1*z2 + z2^2")
        assert grad[:3] == [p6("z2"), p6("-z1"), p6("0")]


class CountingRandom(random.Random):
    """A seeded generator that counts its ``randint`` calls."""

    draws = 0

    def randint(self, a, b):
        self.draws += 1
        return super().randint(a, b)


class TestRank:
    def test_zero(self, rng):
        m = PolyMatrix([[Poly.zero(Z6)] * 3 for _ in range(3)])
        assert numeric_rank(m, rng) == 0

    def test_identity(self, rng):
        assert numeric_rank(PolyMatrix.identity(Z6, 4), rng) == 4

    def test_sampling_stops_at_full_rank(self):
        # a point is 6 rationals over Z6, each two randint draws
        full = CountingRandom(0)
        assert numeric_rank(PolyMatrix.identity(Z6, 4), full) == 4
        assert full.draws == 2 * 6
        deficient = CountingRandom(0)
        m = PolyMatrix([[p6("z1"), p6("z2"), p6("z1 + z2")]] * 3)
        assert numeric_rank(m, deficient) == 1
        assert deficient.draws == 8 * 2 * 6

    def test_pivots_skip_dependent_columns(self, rng):
        f, g = p6("z1*z2 + z3"), p6("z4^2")
        assert numeric_pivots(jacobian([f, 2 * f, g], Z6), rng) == [0, 2]

    def test_pivots_refuse_a_ratfun_entry(self):
        # a RatFun matrix is cleared to Polys by its caller, as jacobian does
        m = PolyMatrix([[RatFun(p6("1"), p6("z1")), p6("z2")]])
        with pytest.raises(TypeError, match="not RatFun"):
            numeric_pivots(m, random.Random(6))

    @pytest.mark.parametrize("entry", [QQ(1, 2), 3], ids=["Fraction", "int"])
    def test_pivots_name_other_entries(self, entry):
        m = PolyMatrix([[p6("z1"), entry]])
        with pytest.raises(TypeError, match=f"not {type(entry).__name__}"):
            numeric_rank(m, random.Random(6))


class TestTruncatedExp:
    def test_nonsquare(self):
        with pytest.raises(NonSquare, match="non-square"):
            truncated_exp(PolyMatrix([[p6("z1"), p6("z2")]]), 2)

    def test_zero(self):
        x = PolyMatrix([[Poly.zero(Z6)] * 2 for _ in range(2)])
        e = truncated_exp(x, 3)
        assert e.entries[0][0] == Poly.const(Z6, 1)
        assert e.entries[0][1].is_zero()

    def test_nilpotent(self):
        x = PolyMatrix([[Poly.zero(Z6), p6("z1")], [Poly.zero(Z6), Poly.zero(Z6)]])
        e = truncated_exp(x, 3)
        assert e.entries[0][1] == p6("z1")
        assert e.entries[1][0].is_zero()

    def test_diagonal(self):
        vs = VarSet(["u11", "u22"])
        x = PolyMatrix(
            [
                [parse_poly("u11", vs), Poly.zero(vs)],
                [Poly.zero(vs), parse_poly("u22", vs)],
            ]
        )
        e = truncated_exp(x, 2)
        assert e.entries[0][0] == parse_poly("1/2*u11^2 + u11 + 1", vs)
        assert e.entries[1][1] == parse_poly("1/2*u22^2 + u22 + 1", vs)

    def test_exp_times_exp_minus(self, rng):
        vs = VarSet(["a", "b", "c"])
        x = PolyMatrix(
            [
                [parse_poly("a", vs), parse_poly("b", vs), parse_poly("c", vs)],
                [parse_poly("b", vs), Poly.zero(vs), parse_poly("a", vs)],
                [parse_poly("c", vs), parse_poly("a", vs), parse_poly("b", vs)],
            ]
        )
        D = 4
        e = truncated_exp(x, D)
        em = truncated_exp(x.map(lambda p: -p), D)
        # the product of the cut exponentials, cut at the order
        prod = e * em
        for i in range(3):
            for j in range(3):
                expect = QQ(1) if i == j else QQ(0)
                assert prod.entries[i][j].truncate(D) == Poly.const(vs, expect)

    def test_empty(self):
        # the exponential of the 0 x 0 matrix is the 0 x 0 identity
        e = truncated_exp(PolyMatrix([]), 3)
        assert (e.rows, e.cols, e.entries) == (0, 0, [])

    def test_bad_truncation(self):
        x = PolyMatrix([[Poly.zero(Z6)]])
        with pytest.raises(BadTruncation):
            truncated_exp(x, 0)

    def test_constant_term_raises(self):
        x = PolyMatrix([[p6("z1 + 1")]])
        with pytest.raises(NotVanishing, match="zero constant term"):
            truncated_exp(x, 2)

    def test_mixed_variables_raise(self):
        x = PolyMatrix([[p6("z1"), Poly.zero(Z6)], [Poly.zero(Z6), parse_poly("a", VarSet(["a"]))]])
        with pytest.raises(MixedVariables):
            truncated_exp(x, 2)

    def test_other_entries_raise(self):
        with pytest.raises(TypeError, match="not Fraction"):
            truncated_exp(PolyMatrix([[p6("z1"), QQ(1, 2)], [p6("z2"), p6("z3")]]), 2)


class TestCanonicalText:
    def test_example_format(self):
        assert str(p6("z1*z4 - z2")) == "z1*z4 - z2"

    def test_coefficients(self):
        assert str(p6("-1/2*z1^2 + 3*z2 - 1")) == "-1/2*z1^2 + 3*z2 - 1"

    def test_round_trip_random(self, rng):
        for _ in range(60):
            p = random_poly(rng, Z6, max_degree=4, terms=6)
            assert parse_poly(str(p), Z6) == p

    def test_grlex_descending(self):
        p = p6("z2 + z1 + z1*z2")
        assert str(p) == "z1*z2 + z1 + z2"

    def test_unknown_variable_is_named(self):
        with pytest.raises(PolySyntaxError, match=r"unknown variable 'z3'.*x1, x2"):
            parse_poly("x1*z3", VarSet(["x1", "x2"]))

    @pytest.mark.parametrize("text", [
        "x1 + -", "x1**x2", "x1*", "2x1", "x1^a", "x1^2^3", "1/0*x1", "1.5*x1"])
    def test_syntax_errors(self, text):
        with pytest.raises(PolySyntaxError):
            parse_poly(text, VarSet(["x1", "x2"]))

    def test_coefficient_after_a_variable(self):
        assert parse_poly("z1*3/2*z2^2", Z6) == p6("3/2*z1*z2^2")


class TestCoefficientAccessors:
    """Coefficients are stored as int numerators, but every accessor gives a
    rational, so that 1 / lc stays exact where the numerator is an int."""

    @pytest.mark.parametrize("text", ["2*z1^2 - 3*z2 + 5", "-1/2*z1*z3 + 2/3", "z2", "0"])
    def test_accessors_return_rationals(self, text):
        p = p6(text)
        assert type(p.constant_value()) is QQ
        assert type(p.evaluate([1, 2, 3, 4, 5, 6])) is QQ
        assert all(type(c) is QQ for _, c in p.sorted_terms())
        if p:
            lc = p.leading()[1]
            assert type(lc) is QQ and type(1 / lc) is QQ
            assert 1 / lc * lc == 1

    def test_integer_leading_coefficient_inverts_exactly(self):
        assert 1 / p6("2*z1 + 1").leading()[1] == QQ(1, 2)


class TestVariableSets:
    @pytest.mark.parametrize("names", [[], ["x", "y", "x"], ["x", "1y"], ["x y"]])
    def test_bad_names(self, names):
        with pytest.raises(BadVariableNames):
            VarSet(names)

    @pytest.mark.parametrize("combine", [
        lambda a, b: a + b,
        lambda a, b: a * b,
        poly_gcd,
        RatFun,
    ])
    def test_mixed_variable_sets(self, combine):
        with pytest.raises(MixedVariables, match="mixed variable sets"):
            combine(p6("z1 + 1"), parse_poly("z1 + 2", VarSet(["z1", "z2"])))

    def test_negative_power(self):
        with pytest.raises(NegativePower):
            p6("z1 + z2") ** -1


class TestGcdDivision:
    def test_exact_div(self):
        f = p6("z1^2*z4 - z1*z2")
        assert f.exact_div(p6("z1")) == p6("z1*z4 - z2")

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            p6("z1 + z2").exact_div(p6("z1"))

    def test_cancelled_remainder_term_that_reappears(self):
        # a remainder monomial cancels and is created again by a later
        # step, so its first heap key is stale and must be skipped
        q, g = p6("z1^2*z2 + z1*z2 + z2^2"), p6("z1^2 - z1*z2 - 2*z2")
        assert (q * g).exact_div(g) == q

    def test_mixed_variable_sets(self):
        other = VarSet(["z1", "z2"])
        with pytest.raises(MixedVariables, match="mixed variable sets"):
            p6("z1*z2 + z1").exact_div(parse_poly("z1", other))

    def test_gcd_random_products(self, rng):
        for _ in range(15):
            f = random_poly(rng, Z6, 2, 2)
            g = random_poly(rng, Z6, 2, 2)
            h = random_poly(rng, Z6, 2, 2)
            if f.is_zero() or g.is_zero() or h.is_zero():
                continue
            d = poly_gcd(f * h, g * h)
            assert d.divides(f * h) and d.divides(g * h)
            # gcd(f*h, g*h) = gcd(f, g)*h up to a constant
            e = poly_gcd(f, g) * h
            assert d == e * (1 / e.leading()[1])

    def test_gcd_of_trivariate_products(self):
        # c1*f1*f2 and c2*f1*f3 share f1; with the primitive parts kept at
        # their rational scale, the coefficients of the remainder sequence
        # grew until this took seconds
        X3 = VarSet(["x", "y", "z"])
        c1, c2, f1, f2, f3 = (parse_poly(s, X3) for s in (
            "-x*y - y*z + 3", "2*x^2 + 3*x + 2*z", "-3*z^2 - y - 3*z",
            "-3*x*y - x*z + 3", "2*z^2 + 2*x + 3"))
        assert poly_gcd(c1 * f1 * f2, c2 * f1 * f3) == f1 * QQ(-1, 3)

    def test_heuristic_gcd_keeps_the_integer_content_of_each_level(self):
        # run directly, as the divisor short-cut ends poly_gcd on this pair;
        # once e1 is set to xi, both images have the integer content
        # (xi + 1)^2, which the gcd one level down must keep
        V = VarSet(["b2", "e1", "e2"])
        f = parse_poly("b2*e1^2 + 2*b2*e1 + b2", V)
        g = f * parse_poly("b2*e2 - 3*e1 + 7", V)
        h = _heu_gcd(V.pk, f.terms, g.terms)
        assert Poly._trusted(V, h) == f

    def test_ratfun_reduction(self):
        f = RatFun(p6("z1^2 - z2^2"), p6("z1 + z2"))
        assert f == RatFun.from_poly(p6("z1 - z2"))

    def test_ratfun_den_monic(self):
        f = RatFun(p6("z2"), p6("2*z1"))
        assert f.den == p6("z1")
        assert f.num == p6("1/2*z2")

    def test_evaluate_at_a_pole(self):
        with pytest.raises(EvaluationSingular):
            RatFun(p6("z2"), p6("z1")).evaluate([0, 1, 0, 0, 0, 0])


class TestRatFunArithmetic:
    X2 = VarSet(["x", "y"])

    def r(self, num, den):
        return RatFun(parse_poly(num, self.X2), parse_poly(den, self.X2))

    def pair(self, f):
        return str(f.num), str(f.den)

    def test_sum_cancels_a_factor_of_the_denominators_gcd(self):
        # g = gcd(b, d) = x, and t = (x - 1) + (x + 1) = 2*x shares it
        s = self.r("1", "x^2 + x") + self.r("1", "x^2 - x")
        assert self.pair(s) == ("2", "x^2 - 1")

    def test_quotient_by_a_numerator_with_leading_coefficient_2(self):
        assert self.pair(self.r("x", "1") / self.r("2*y", "x")) == ("1/2*x^2", "y")

    def test_negative_power(self):
        assert self.pair(self.r("2*x", "y") ** -2) == ("1/4*y^2", "x^2")

    def test_sum_over_a_constant_denominator(self):
        assert self.pair(self.r("x", "2") + self.r("1", "y")) == (
            "1/2*x*y + 1", "y")


class TestRatFunValues:
    X3 = VarSet(["x", "y", "z"])

    def f(self):
        return RatFun(parse_poly("x*y*z", self.X3), parse_poly("1 + x", self.X3))

    def test_evaluate(self):
        assert self.f().evaluate([1, 2, 3]) == 3
        assert self.f().evaluate([QQ(1, 2), 2, 3]) == 2

    def test_evaluate_is_the_quotient_of_the_values(self):
        rng = random.Random(2024)
        point = [QQ(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(3)]
        f = self.f()
        assert f.evaluate(point) == f.num.evaluate(point) / f.den.evaluate(point)

    def test_str_over_one_is_the_numerator(self):
        f = RatFun.from_poly(parse_poly("x*y - 2*z", self.X3))
        assert f.den.is_constant() and str(f) == str(f.num) == "x*y - 2*z"


class TestJet:
    def test_truncating_product(self):
        j = Jet(p6("z1 + z2 + z3^3"), 2)
        assert j.poly == p6("z1 + z2")
        sq = j * j
        assert sq.poly == p6("z1^2 + 2*z1*z2 + z2^2")
        cube = sq * j
        assert cube.poly.is_zero()

    def test_mixed_variable_sets(self):
        j = Jet(p6("z1 + z2"), 2)
        with pytest.raises(MixedVariables, match="mixed variable sets"):
            j * Jet(parse_poly("z1", VarSet(["z1", "z2"])), 2)

    def test_orders_differ(self):
        with pytest.raises(BadTruncation, match="jet orders differ"):
            Jet(p6("z1"), 2) * Jet(p6("z2"), 3)


class TestPolyMatrixShape:
    def test_ragged(self):
        with pytest.raises(DimensionMismatch, match="ragged matrix"):
            PolyMatrix([[p6("z1"), p6("z2")], [p6("z3")]])

    def test_product_shape_mismatch(self):
        a = PolyMatrix([[p6("z1"), p6("z2")]])
        with pytest.raises(DimensionMismatch, match="shape mismatch"):
            a * a

    @pytest.mark.parametrize("entry, name", [
        (Jet(p6("z1"), 2), "Jet"),
        (RatFun(p6("1"), p6("z1")), "RatFun"),
        (QQ(1, 2), "Fraction"),
    ])
    def test_product_takes_polys(self, entry, name):
        a = PolyMatrix([[p6("z1"), entry], [p6("1"), p6("z2")]])
        b = PolyMatrix.identity(Z6, 2)
        with pytest.raises(TypeError, match=f"not {name}"):
            a * b
        with pytest.raises(TypeError, match=f"not {name}"):
            b * a

    def test_product_mixed_variables(self):
        a = PolyMatrix([[p6("z1")]])
        with pytest.raises(MixedVariables):
            a * PolyMatrix([[Poly.var(VarSet(["a"]), "a")]])

    def test_sum_shape_mismatch(self):
        a = PolyMatrix([[p6("z1"), p6("z2")]])
        with pytest.raises(DimensionMismatch, match="shape mismatch"):
            a + PolyMatrix([[p6("z1")], [p6("z2")]])
