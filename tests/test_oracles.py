"""The polynomial kernel against sympy, on polynomials drawn by hypothesis
and on matrices from a seeded generator; the jet orders of the BFZ and
dual GL families against the degrees of their closed-form lowest terms;
the fraction-free pivot columns against sympy's rref and a Fraction
elimination; the closed-form linear structures against their Poly formulas;
the involutivity certificate on int tables against Poly brackets, the
int-column numeric pivots against pivots of the evaluated entries, and the
Jacobian pivots read from term values against those of the Poly Jacobian.

sympy's sparse polynomials over QQ are an implementation independent of
``polyring``; its graded-lex order on (x, y, z) is the one ``polyring``
uses on exponent tuples.
"""

import operator
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, lcm

import pytest
import sympy
from hypothesis import assume, example, given, strategies as st
from sympy.combinatorics import Permutation

from clusterint import polyring
from clusterint.bfz import (
    DoubleWord,
    _build_at_order,
    build_bfz,
    gexp_formulas,
    gexp_order,
    sl_dual_linear_structure,
    sl_u_matrix,
    sl_varset,
    standard_double_word,
    table_order,
)
from clusterint.dualgl import (
    _jet_lows_at,
    build_staircase,
    kks_gl,
    lows_closed_form,
    lows_order,
    lows_via_jets,
    pencil_coefficients,
    u_poly_matrix,
)
from clusterint.errors import (
    DependentSystem,
    MixedVariables,
    NotDivisible,
    NotReduced,
    SizeOutOfRange,
    TruncationInsufficient,
)
from clusterint.poisson_core import (
    PoissonStructure,
    involutivity_certificate,
    is_log_canonical,
    log_volume,
)
from clusterint.polyring import (
    Poly,
    PolyMatrix,
    RatFun,
    RationalPoint,
    VarSet,
    _mul_terms,
    adjugate,
    det,
    dot,
    gradient,
    jacobian,
    jacobian_pivots,
    lowest_term,
    minors,
    numeric_pivots,
    parse_poly,
    poly_gcd,
)
from clusterint.rationals import QQ, _sign, random_rational
from clusterint.schubert import build_cell
from clusterint.typea import ReducedWord, longest_word

X3 = VarSet(["x", "y", "z"])
GENS = sympy.symbols("x y z")

coefficients = st.builds(QQ, st.integers(-9, 9).filter(bool), st.integers(1, 4))


def polys(max_terms=5, max_exponent=3):
    exponents = st.tuples(*[st.integers(0, max_exponent)] * 3)
    return st.dictionaries(exponents, coefficients, max_size=max_terms).map(
        lambda terms: Poly(X3, terms))


nonzero = polys().filter(bool)


def to_sympy(p: Poly) -> sympy.Poly:
    return sympy.Poly.from_dict(
        {e: sympy.Rational(int(c.numerator), int(c.denominator))
         for e, c in p.sorted_terms()},
        *GENS, domain="QQ")


@given(nonzero, nonzero)
def test_product_divides_back(f, g):
    assert (f * g).exact_div(g) == f


def assert_div_agrees(f: Poly, g: Poly):
    """f.exact_div(g) is sympy's quotient when its remainder is zero, and
    raises NotDivisible otherwise."""
    q, r = sympy.div(to_sympy(f), to_sympy(g))
    if r.is_zero:
        got = f.exact_div(g)
        assert got * g == f
        assert to_sympy(got) == q
    else:
        with pytest.raises(NotDivisible):
            f.exact_div(g)


@given(polys(), nonzero, polys(2))
def test_exact_div_agrees_with_sympy_div(a, g, b):
    # a*g + b is divisible by g exactly when b is, e.g. when b is 0
    assert_div_agrees(a * g + b, g)


def px(text):
    return parse_poly(text, X3)


DIVISION_EDGES = {
    # exponents past 127 fill the upper byte of their 16-bit field, below
    # its guard bit
    "two-byte fields": (px("x^127*y - 2*z^5 + 3") * px("x^2 + y*z"), px("x^2 + y*z")),
    "two-byte fields, not divisible": (px("x^130*z + 7*y"), px("x^2*z + y")),
    # some field of lt(g) exceeds the leading term's: the borrow across
    # fields must not read as divisible
    "deg g above deg f": (px("x^2 + y"), px("x*y^2 + z")),
    "deg g above deg f, single terms": (px("x^3"), px("x^2*y^2")),
    # equal degree, lt(g) above the leading term in the first variable
    "guard-bit borrow": (px("x*y^2 + z^3 + y"), px("x^2*y + z^3")),
    "guard-bit borrow, single terms": (px("x*y^2"), px("x^2*y")),
    # y needs a borrow from x, which stays nonnegative
    "borrow from a higher field": (px("x^2*z"), px("x*y*z")),
    "guard-bit borrow, later step": (px("x^2*y + x*z^2") * px("y + z") + px("x*y^2*z"),
                                     px("x^2*y + x*z^2")),
    "rational quotient": (px("2/3*x^2 + 1/3*x"), px("4*x + 2")),
    "rational divisor, quotient coefficient not an integer": (px("x^2 + 1"), px("2/5*x + 1/5")),
}


@pytest.mark.parametrize("case", DIVISION_EDGES)
def test_packed_division_edge_cases_agree_with_sympy(case):
    assert_div_agrees(*DIVISION_EDGES[case])


def test_division_messages_name_the_failing_step():
    with pytest.raises(NotDivisible, match="leading term not divisible"):
        px("x*y^2 + z^3").exact_div(px("x^2*y + z^3"))
    with pytest.raises(NotDivisible, match="quotient coefficient not an integer"):
        px("x^2 + 1").exact_div(px("2*x + 1"))


def test_zero_dividend():
    g = px("x*y - 3*z")
    assert_div_agrees(Poly(X3), g)
    assert Poly(X3).exact_div(g).is_zero()
    with pytest.raises(ZeroDivisionError):
        Poly(X3).exact_div(Poly(X3))
    with pytest.raises(MixedVariables):
        Poly(X3).exact_div(Poly.var(VarSet(["x", "y"]), "x"))


@pytest.mark.parametrize("bound", [127, 128, 255, 256, 2**15 - 1])
@given(data=st.data())
def test_packing_round_trips_in_graded_lex_order(bound, data):
    exps = data.draw(st.lists(st.tuples(*[st.integers(0, bound)] * 3), min_size=1,
                              max_size=6, unique=True))
    pk = polyring._Packing(3)
    keys = pk.pack(exps)
    assert pk.unpack(keys) == exps
    assert [k >> pk.shift for k in keys] == [sum(e) for e in exps]
    # int order is graded-lex order
    assert sorted(exps, key=lambda e: (sum(e), e)) == pk.unpack(sorted(keys))


# exponents up to 2^14 - 1: every product of two stays below 2^15
wide_terms = st.dictionaries(st.tuples(*[st.integers(0, 2**14 - 1)] * 3), coefficients,
                             max_size=5)


@given(wide_terms)
def test_tuple_keyed_terms_round_trip(terms):
    # the tuple edge: in through the constructor, out through sorted_terms
    # and the canonical text, over the whole field of each exponent
    p = Poly(X3, terms)
    assert all(type(k) is int for k in p.terms)
    assert p.sorted_terms() == sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]),
                                      reverse=True)
    assert Poly(X3, dict(p.sorted_terms())) == p
    assert parse_poly(str(p), X3) == p


@given(wide_terms, wide_terms, wide_terms, st.sampled_from([None, 0, 3, 2**14, 2**15]))
def test_wide_products_are_the_rational_loop(f, g, h, cap):
    # products, capped products and dot sums of operands whose exponents
    # fill most of each field
    f, g, h = (Poly(X3, t) for t in (f, g, h))
    expect = Poly(X3, rational_mul_terms(rational_terms(f), rational_terms(g), cap))
    assert dot(X3, [(f, g)], cap) == expect
    assert dot(X3, [(f, g), (h, g)], cap) == expect + Poly(
        X3, rational_mul_terms(rational_terms(h), rational_terms(g), cap))
    if cap is None:
        assert f * g == expect


# sympy's sparse ring in graded-lex order: its dense ``sympy.Poly`` would
# hold every power below the largest exponent
SPARSE = sympy.polys.rings.ring("x,y,z", sympy.QQ, sympy.grlex)[0]


def to_sparse(p: Poly):
    return SPARSE.from_dict({e: sympy.QQ(c.numerator, c.denominator)
                             for e, c in p.sorted_terms()})


@given(wide_terms, wide_terms.filter(bool))
def test_wide_exact_div_agrees_with_sympy_div(a, g):
    # for one divisor, a zero remainder in any monomial order means g | f
    a, g = Poly(X3, a), Poly(X3, g)
    for f in (a * g, a * g + Poly.var(X3, "x")):
        q, r = to_sparse(f).div(to_sparse(g))
        if r:
            with pytest.raises(NotDivisible):
                f.exact_div(g)
        else:
            assert to_sparse(f.exact_div(g)) == q


# a monomial over the whole wide range, or the constant monomial
wide_monomials = st.tuples(*[st.integers(0, 2**14 - 1)] * 3) | st.just((0, 0, 0))


@given(wide_terms, wide_monomials, coefficients)
@example({(3, 0, 1): QQ(1), (0, 0, 0): QQ(-2, 3)}, (0, 0, 0), QQ(-3, 2))
def test_wide_exact_div_by_one_term_agrees_with_sympy(a, e, c):
    # a constant or single-term divisor, on ints; times h, of two terms,
    # the same division gives the same quotient
    a, g = Poly(X3, a), Poly(X3, {e: c})
    h = Poly.var(X3, "x") + 1
    for f in (a * g, a * g + Poly.var(X3, "y")):
        q, r = to_sparse(f).div(to_sparse(g))
        if r:
            for ff, gg in ((f, g), (f * h, g * h)):
                with pytest.raises(NotDivisible):
                    ff.exact_div(gg)
        else:
            got = f.exact_div(g)
            assert to_sparse(got) == q
            assert (f * h).exact_div(g * h) == got
            assert_canonical_poly(got)
    assert a.exact_div(Poly.const(X3, 1)) is a


def test_single_term_division_refuses_what_does_not_divide():
    # on the stored keys, a single-term g and g + 1: an exponent short in
    # y, a quotient coefficient 3/2, and a dividend key with the guard bit
    # of x set (x^(2^15))
    pk = X3.pk
    x, y = pk.unit[:2]
    cases = [({x + 2 * y: 1}, {2 * x: 1}, "leading term not divisible"),
             ({x: 3}, {x: 2}, "quotient coefficient not an integer"),
             ({2**15 * x: 1}, {0: 1}, "leading term not divisible"),
             ({2**15 * x: 1}, {x: 1}, "leading term not divisible")]
    for f, g, message in cases:
        for divisor in (g, {**g, 0: 1}) if 0 not in g else (g,):
            with pytest.raises(NotDivisible, match=message):
                polyring._div_terms(pk, f, divisor)


# exponents at the edge of the range: a sum of two reaches 2^15 or stays below
edge_terms = st.dictionaries(
    st.tuples(*[st.sampled_from([0, 1, 2**14 - 1, 2**14, 2**15 - 1])] * 3),
    coefficients, max_size=3)


@given(edge_terms, edge_terms, edge_terms, st.sampled_from([None, 2**15, 3 * 2**15]))
# out-of-range products that cancel leave an exact sum: x^top x - x^top x,
# and (y + x) x^top - x x^top
@example({(2**15 - 1, 0, 0): QQ(1)}, {(0, 1, 0): QQ(1)}, {(1, 0, 0): QQ(1)}, None)
@example({(0, 1, 0): QQ(1), (1, 0, 0): QQ(1)}, {(2**15 - 1, 0, 0): QQ(1)},
         {(1, 0, 0): QQ(-1)}, 2**15)
def test_a_product_is_out_of_range_exactly_when_its_result_is(f, g, h, cap):
    # Poly products and dot sums, the second with pairs whose products
    # cancel, against the loop on rationals over exponent tuples
    f, g, h = (Poly(X3, t) for t in (f, g, h))
    for pairs in ([(f, g)], [(f, g), (h, g)], [(f, h), (-f, h), (g, g)]):
        expect = {}
        for p, q in pairs:
            for e, v in rational_mul_terms(rational_terms(p), rational_terms(q), cap).items():
                expect[e] = expect.get(e, 0) + v
        expect = {e: v for e, v in expect.items() if v}
        products = [lambda: dot(X3, pairs, cap)]
        if len(pairs) == 1 and cap is None:
            products.append(lambda: f * g)
        for product in products:
            if any(max(e) >= 2**15 for e in expect):
                with pytest.raises(SizeOutOfRange):
                    product()
            else:
                assert product() == Poly(X3, expect)


def test_an_exponent_of_2_to_the_15_is_out_of_range():
    top = 2**15 - 1
    for exp in ((2**15, 0, 0), (0, 0, 2**16), (0, -1, 0)):
        with pytest.raises(SizeOutOfRange):
            Poly(X3, {exp: QQ(1)})
    with pytest.raises(SizeOutOfRange):
        X ** 2**15
    with pytest.raises(SizeOutOfRange):
        dot(X3, [(X ** top, X * Y)])
    with pytest.raises(SizeOutOfRange):
        det(PolyMatrix([[Y ** 20000, Poly(X3)], [Poly(X3), Y ** 13000]]))
    # a degree past 2^15 is in range while no exponent reaches it
    big = X ** top * (Y ** top * Z ** top)
    assert big.total_degree() == 3 * top
    assert big.exact_div(X ** top) == Y ** top * Z ** top
    assert str(X ** top * Y) == f"x^{top}*y"
    assert det(PolyMatrix([[X ** 20000, Poly(X3)], [Poly(X3), Y ** 13000]])) == (
        X ** 20000 * Y ** 13000)


def random_matrix(rng, n):
    """An n x n matrix of Polys over X3, about a third of its entries zero,
    the others of one to three terms with exponents up to 2."""
    def entry():
        if rng.random() < 0.3:
            return Poly(X3)
        return Poly(X3, {tuple(rng.randint(0, 2) for _ in range(3)):
                         QQ(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                         for _ in range(rng.randint(1, 3))})
    return [[entry() for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("n", range(1, 6))
def test_det_agrees_with_sympy(n):
    rng = random.Random(n)
    for _ in range(3):
        rows = random_matrix(rng, n)
        # sympy's determinants of expression matrices take minutes on a
        # dense 5x5, hence its domain method
        assert to_sympy(det(PolyMatrix(rows))) == sympy_det(rows)


def sympy_det(rows):
    # Gaussian elimination over sympy's QQ[x, y, z]
    expected = sympy.Matrix(
        [[to_sympy(p).as_expr() for p in row] for row in rows]).det(method="domain-ge")
    return sympy.Poly(expected, *GENS, domain="QQ")


@pytest.mark.parametrize("n", range(1, 5))
def test_every_minor_of_one_table_agrees_with_sympy(n):
    # larger minors first, so that smaller ones are read back from entries
    # their expansions left in the table; the cap D cuts the degree-6 entry
    # products
    D = 4
    rng = random.Random(100 + n)
    for _ in range(3):
        rows = random_matrix(rng, n)
        table = minors(PolyMatrix(rows))
        capped = minors(PolyMatrix(rows), D)
        for k in range(n, 0, -1):
            for r in combinations(range(n), k):
                for c in combinations(range(n), k):
                    got = table(r, c)
                    assert to_sympy(got) == sympy_det([[rows[i][j] for j in c] for i in r])
                    assert capped(r, c) == got.truncate(D)


@pytest.mark.parametrize("n", range(1, 5))
def test_adjugate_agrees_with_sympy(n):
    # the cap D cuts the degree-6 entry products of the cofactors
    D = 4
    rng = random.Random(400 + n)
    for _ in range(3):
        rows = random_matrix(rng, n)
        adj, d = adjugate(PolyMatrix(rows))
        expected = sympy.Matrix(
            [[to_sympy(p).as_expr() for p in row] for row in rows]).adjugate()
        assert [[to_sympy(x) for x in row] for row in adj.entries] == [
            [sympy.Poly(x, *GENS, domain="QQ") for x in expected.row(i)] for i in range(n)]
        assert to_sympy(d) == sympy_det(rows)
        # the capped adjugate: cofactors from a capped table, and a capped det
        capped = minors(PolyMatrix(rows), D)
        rest = [[t for t in range(n) if t != i] for i in range(n)]
        assert [[capped(rest[j], rest[i]) * (-1) ** (i + j) for j in range(n)]
                for i in range(n)] == [[x.truncate(D) for x in row] for row in adj.entries]
        assert det(PolyMatrix(rows), D) == d.truncate(D)


@pytest.mark.parametrize("n", range(1, 5))
def test_matrix_product_agrees_with_sympy(n):
    rng = random.Random(500 + n)
    for _ in range(3):
        a, b = random_matrix(rng, n), random_matrix(rng, n)
        expected = (sympy.Matrix([[to_sympy(p).as_expr() for p in row] for row in a])
                    * sympy.Matrix([[to_sympy(p).as_expr() for p in row] for row in b]))
        got = PolyMatrix(a) * PolyMatrix(b)
        assert [[to_sympy(x) for x in row] for row in got.entries] == [
            [sympy.Poly(expected[i, j].expand(), *GENS, domain="QQ") for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize("D", [3, 4])
def test_truncated_exp_of_quadratic_entries_agrees_with_sympy(D):
    # entries with degree-2 terms and Fraction coefficients, so that powers
    # of x pass the order: the exponential through degree D is
    # sum_{k<=D} x^k/k! with its terms above degree D dropped
    rng = random.Random(601)
    monomials = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 1, 1)]
    rows = [[Poly(X3, {e: QQ(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                       for e in monomials}) for _ in range(3)] for _ in range(3)]
    x = sympy.Matrix([[to_sympy(p).as_expr() for p in row] for row in rows])
    expected = sum((x**k / sympy.factorial(k) for k in range(1, D + 1)), sympy.eye(3))
    got = polyring.truncated_exp(PolyMatrix(rows), D)
    for i in range(3):
        for j in range(3):
            full = sympy.Poly(expected[i, j].expand(), *GENS, domain="QQ").as_dict()
            assert to_sympy(got[i, j]).as_dict() == {e: c for e, c in full.items()
                                                    if sum(e) <= D}


def test_truncated_exp_agrees_with_sympy():
    # a dense 3x3 matrix of linear forms, so that no power of it passes the
    # order and the exponential through degree 4 is sum_{k<=4} x^k/k!
    D = 4
    rng = random.Random(600)
    rows = [[Poly(X3, {e: QQ(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                       for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))}) for _ in range(3)]
            for _ in range(3)]
    x = sympy.Matrix([[to_sympy(p).as_expr() for p in row] for row in rows])
    expected = sum((x**k / sympy.factorial(k) for k in range(1, D + 1)), sympy.eye(3))
    got = polyring.truncated_exp(PolyMatrix(rows), D)
    for i in range(3):
        for j in range(3):
            assert got[i, j].total_degree() <= D
            assert to_sympy(got[i, j]) == sympy.Poly(expected[i, j].expand(), *GENS,
                                                     domain="QQ")


def edge_matrix(case):
    """A seeded 3x3 matrix at an edge of the packed minors table."""
    rows = random_matrix(random.Random(300), 3)
    if case == "two-byte exponents":
        # the rows' largest exponents sum to more than 255
        rows[0][1] = rows[0][1] + Poly(X3, {(200, 0, 1): QQ(1)})
        rows[2][0] = rows[2][0] + Poly(X3, {(100, 3, 0): QQ(-2, 3)})
    elif case == "degrees past the exponent range":
        # and here to more than 2^15, so every minor's exponents are
        # checked, while each stays below 2^15
        rows[1][2] = rows[1][2] + Poly(X3, {(0, 20000, 1): QQ(5)})
        rows[2][0] = rows[2][0] + Poly(X3, {(13000, 0, 0): QQ(1, 7)})
    elif case == "row denominators":
        rows = [[p * QQ(1, 2 * i + 3) for p in row] for i, row in enumerate(rows)]
        rows[1][1] = rows[1][1] + Poly(X3, {(0, 1, 0): QQ(1, 5)})
    elif case == "zero row":
        rows[1] = [Poly(X3)] * 3
    elif case == "long entries":
        # each entry has more terms than the minors of the rows below it,
        # of degrees on both sides of every cap (1, 3 and 250)
        rng = random.Random(301)

        def entry(per_degree):
            terms = {}
            for d in (0, 1, 2, 3, 4, 249, 250, 251):
                for _ in range(per_degree):
                    a = rng.randint(0, d)
                    b = rng.randint(0, d - a)
                    c = rng.choice([-3, -2, -1, 1, 2, 3])
                    terms[a, b, d - a - b] = QQ(c, rng.randint(1, 3))
            return Poly(X3, terms)

        rows = [[entry(3) for _ in range(3)], [entry(1) for _ in range(3)],
                [Poly(X3, {(j, 2 - j, 1): QQ(j + 1)}) for j in range(3)]]
    elif case == "all zero":
        rows = [[Poly(X3)] * 3 for _ in range(3)]
    return rows


@pytest.mark.parametrize("case", ["two-byte exponents", "degrees past the exponent range",
                                  "row denominators", "zero row", "all zero", "long entries"])
def test_packed_minors_table_edge_cases(case):
    # caps 1 and 3 cut products of the low-degree entries, 250 products of
    # the two-byte rows; every minor is read in each table
    rows = edge_matrix(case)
    table = minors(PolyMatrix(rows))
    capped_tables = {D: minors(PolyMatrix(rows), D) for D in (1, 3, 250)}
    # entries already cut at the cap among uncut ones
    mixed = minors(PolyMatrix([[p.truncate(3) if (i + j) % 2 else p for j, p in enumerate(row)]
                               for i, row in enumerate(rows)]), 3)
    for k in range(3, 0, -1):
        for r in combinations(range(3), k):
            for c in combinations(range(3), k):
                got = table(r, c)
                assert to_sympy(got) == sympy_det([[rows[i][j] for j in c] for i in r])
                for D, capped in capped_tables.items():
                    assert capped(r, c) == got.truncate(D)
                assert mixed(r, c) == got.truncate(3)
    if case in ("zero row", "all zero"):
        assert det(PolyMatrix(rows)).is_zero()


@pytest.mark.parametrize("n", range(1, 5))
def test_pencil_coefficients_agree_with_sympy(n):
    lam = sympy.Symbol("lam")
    D = 4
    rng = random.Random(200 + n)
    A, B = random_matrix(rng, n), random_matrix(rng, n)
    expected = sympy.Poly(sympy.Matrix(
        [[lam * to_sympy(a).as_expr() + to_sympy(b).as_expr() for a, b in zip(ra, rb)]
         for ra, rb in zip(A, B)]).det(method="domain-ge"), lam, *GENS, domain="QQ")
    got = pencil_coefficients(PolyMatrix(A), PolyMatrix(B))
    assert len(got) == n + 1
    for k, c in enumerate(got):
        coeff = {e[1:]: v for e, v in expected.as_dict().items() if e[0] == k}
        assert to_sympy(c) == sympy.Poly.from_dict(coeff, *GENS, domain="QQ")
    capped = pencil_coefficients(PolyMatrix(A), PolyMatrix(B), D)
    assert capped == [c.truncate(D) for c in got]


@given(polys(), st.lists(st.builds(QQ, st.integers(-9, 9), st.integers(1, 4)),
                         min_size=3, max_size=3))
def test_shift_agrees_with_sympy(p, point):
    moved = {v: v + sympy.Rational(int(c.numerator), int(c.denominator))
             for v, c in zip(GENS, point)}
    expected = to_sympy(p).as_expr().subs(moved, simultaneous=True).expand()
    assert to_sympy(p.shift(point)) == sympy.Poly(expected, *GENS, domain="QQ")


@given(nonzero, nonzero, st.data())
def test_jet_product_is_the_truncated_product(f, g, data):
    product = (to_sympy(f) * to_sympy(g)).as_dict()
    # a cap at a degree of the product (so the cut keeps terms of exactly that
    # degree) below the top degree of g (so g has terms above the cap)
    degrees = sorted({sum(e) for e in product if sum(e) < g.total_degree()})
    assume(degrees)
    D = data.draw(st.sampled_from(degrees))
    cut = sympy.Poly.from_dict(
        {e: c for e, c in product.items() if sum(e) <= D}, *GENS, domain="QQ")
    # a jet product is a capped product, of cut or uncut factors
    assert to_sympy(dot(X3, [(f, g)], D)) == cut
    assert to_sympy(dot(X3, [(g, f)], D)) == cut
    assert to_sympy(dot(X3, [(f.truncate(D), g)], D)) == cut


def rational_mul_terms(a: dict, b: dict, cap=None) -> dict:
    """The product loop with every sum taken on Fractions: the same pairs in
    the same order as ``_mul_terms``, without its integer numerators."""
    if len(a) > len(b):
        a, b = b, a
    row = list(b.items())
    if cap is not None:
        row.sort(key=lambda t: (sum(t[0]), t[0]))
        degs = [sum(e) for e, _ in row]
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in (row if cap is None else row[:bisect_right(degs, cap - sum(e1))]):
            key = tuple(map(operator.add, e1, e2))
            s = out.get(key)
            if s is None:
                out[key] = Fraction(c1) * Fraction(c2)
            else:
                s = s + Fraction(c1) * Fraction(c2)
                if s == 0:
                    del out[key]
                else:
                    out[key] = s
    return out


X, Y = Poly.var(X3, "x"), Poly.var(X3, "y")


def rational_terms(p: Poly) -> dict:
    """p's coefficients as Fractions by exponent tuple, in the order of its
    numerators."""
    return {e: Fraction(c, p.den) for e, c in zip(p.vars.pk.unpack(p.terms), p.terms.values())}


@given(polys(), polys(), coefficients, st.sampled_from([None, 0, 1, 2, 3, 5]))
def test_mul_terms_is_the_rational_loop(f, g, c, cap):
    # (x + y)(x - y) cancels its cross terms, and so does each product with
    # a common factor; coefficients have denominators 1 to 4.  The kernel
    # returns int numerators over the product of the two denominators: the
    # positive scale leaves the same sums zero, so the keys and their order
    # are those of the loop on rationals
    pairs = [(f, g), ((X + Y) * c, X - Y), ((X + Y) * f * c, (X - Y) * f),
             ((X - Y) * g, (X + Y) * g * c)]
    for a, b in pairs:
        out = _mul_terms(X3.pk, a.terms, b.terms, cap)
        assert all(type(v) is int for v in out.values())
        den = a.den * b.den
        exps = X3.pk.unpack(out)
        assert [(e, Fraction(v, den)) for e, v in zip(exps, out.values())] == list(
            rational_mul_terms(rational_terms(a), rational_terms(b), cap).items())


@given(polys(), polys(), st.sampled_from([0, 1, 2, 3, 5]))
def test_products_are_the_rational_loop(f, g, cap):
    # the kernel's accumulating form leaves a plain product as it was: Poly
    # and capped products equal the loop on rationals
    assert f * g == Poly(X3, rational_mul_terms(rational_terms(f), rational_terms(g)))
    assert dot(X3, [(f, g)], cap) == Poly(
        X3, rational_mul_terms(rational_terms(f), rational_terms(g), cap))


@given(st.lists(st.tuples(polys(), polys()), max_size=4), polys(), coefficients)
def test_dot_is_the_sum_of_products(pairs, f, c):
    # drawn pairs with denominators 1 to 4; then two pairs that cancel, two
    # with a zero factor, and the empty list
    tail = [(f * c, X + Y), (-f, (X + Y) * c), (Poly(X3), f), (f, Poly(X3))]
    for chosen in (pairs + tail, tail, tail[:2], tail[2:], []):
        got = dot(X3, chosen)
        assert got == sum((p * q for p, q in chosen), Poly(X3))
        assert_canonical_poly(got)
    assert dot(X3, tail).is_zero() and dot(X3, []).is_zero()


def assert_canonical_poly(p: Poly):
    """p's numerators are nonzero ints over one int denominator >= 1 that
    shares no factor with all of them, and p has the pair and the hash of
    the Poly built from its rational coefficients."""
    assert type(p.den) is int and p.den >= 1
    assert all(type(c) is int and c for c in p.terms.values())
    assert gcd(p.den, *p.terms.values()) == 1
    rebuilt = Poly(p.vars, dict(p.sorted_terms()))
    assert (rebuilt.terms, rebuilt.den) == (p.terms, p.den)
    assert hash(rebuilt) == hash(p)


@given(polys(), nonzero, coefficients, st.integers(0, 6))
def test_results_are_in_canonical_form(f, g, c, order):
    results = [f + g, f - g, -f, f * g, f * c, c * f, f * (g * c), (f * g).exact_div(g),
               f.exact_div(Poly.const(X3, c)), *gradient(g, X3)[0], dot(X3, [(f, g)], order),
               dot(X3, [(f, g), (g * c, f)], order), (f * c).truncate(order),
               (f + g).truncate(order)]
    for p in results:
        assert_canonical_poly(p)
    # equal polynomials reached two ways have one pair and one hash
    for a, b in [((f * g).exact_div(g), f), (f * c + g - g, c * f), ((f + g) * c, f * c + g * c)]:
        assert (a.terms, a.den, hash(a)) == (b.terms, b.den, hash(b))


@given(polys(), polys(), st.integers(0, 6))
def test_jet_results_stay_within_the_order(f, g, order):
    # each entry point that takes a cap gives the uncapped result cut there
    m = PolyMatrix([[f, g], [g * QQ(3, 2), f + g]])
    results = {
        "cut": (f.truncate(order), f), "product": (dot(X3, [(f, g)], order), f * g),
        "dot": (dot(X3, [(f, g), (g, g - f)], order), f * g + g * (g - f)),
        "minor": (minors(m, order)([1], [0]), g * QQ(3, 2)),
        "determinant": (det(m, order), det(m)),
    }
    for name, (capped, full) in results.items():
        assert all(sum(e) <= order for e, _ in capped.sorted_terms()), name
        assert capped == full.truncate(order), name


@given(polys())
def test_lowest_term_is_exact_through_the_order(f):
    # the lowest homogeneous part of f, from sympy's terms; the order only
    # bounds where it is looked for, so f and its cut give one answer
    terms = to_sympy(f).as_dict()
    d = min(map(sum, terms), default=None)
    for order in range(10):
        if d is None or d > order:
            for p in (f, f.truncate(order)):
                with pytest.raises(TruncationInsufficient):
                    lowest_term(p, order)
        else:
            got = lowest_term(f.truncate(order), order)
            assert lowest_term(f, order) == got
            low = {e: c for e, c in terms.items() if sum(e) == d}
            assert (to_sympy(got[0]).as_dict(), got[1]) == (low, d)
            assert got == (f.lowest(), f.min_degree())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bfz_jet_order_is_the_closed_form_degree(n):
    forms = gexp_formulas(n)
    lows = [*forms["cluster"], *forms["f"].values(), *forms["g"].values(),
            *forms["gprime"].values()]
    D = gexp_order(n)
    assert D == max(p.total_degree() for p in lows)
    # the table is cut at table_order(n), and the highest difference low is
    # read at its function's own cap, D (table_order(n) - 1 raises: test_bfz)
    c = build_bfz(n)
    assert c.order == table_order(n)
    assert max(c.caps.values()) == max(d for _, d in c.gprime_lows.values()) == D


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dualgl_jet_order_is_the_closed_form_degree(n):
    phis = [lows_closed_form(n, p, i) for p in range(n - 1) for i in range(1, n)]
    D = lows_order(n)
    # cbar_0, the determinant of u, has degree n
    assert D == max([n] + [p.total_degree() for p in phis])
    s = build_staircase(n)
    assert lows_via_jets(s).order == D
    with pytest.raises(TruncationInsufficient):
        _jet_lows_at(s, D - 1)


@pytest.mark.parametrize("n", [2, 3])
def test_lows_at_the_closed_form_order_are_final(n):
    std = standard_double_word(n)
    bfz = [[lowest_term(f, d) for f in _build_at_order(n, std, d).modified_functions()]
           for d in (gexp_order(n), gexp_order(n) + 1)]
    assert bfz[0] == bfz[1]
    s = build_staircase(n)
    dualgl = [_jet_lows_at(s, d) for d in (lows_order(n), lows_order(n) + 1)]
    assert (dualgl[0].phi_lows, dualgl[0].cbar_lows) == (dualgl[1].phi_lows, dualgl[1].cbar_lows)


def _longest_words(m):
    """Every reduced word of the longest element of S_m."""
    words = []
    for letters in product(range(1, m), repeat=m * (m - 1) // 2):
        try:
            words.append(ReducedWord(letters, m))
        except NotReduced:
            pass
    return words


@pytest.mark.parametrize("n", [2, 3])
def test_every_double_word_reads_at_the_closed_form_order(n):
    # gexp_order(n) and table_order(n) hold for every double word (see
    # their docstrings): all 4 pairs at n=2, 20 seeded pairs of the 256 at
    # n=3; at the table cap each difference function is read at its own cap
    words = _longest_words(n + 1)
    pairs = [DoubleWord(a, b) for a in words for b in words]
    for dword in random.Random(n).sample(pairs, {2: 4, 3: 20}[n]):
        lows = [[lowest_term(f, d) for f in _build_at_order(n, dword, d).modified_functions()]
                for d in (gexp_order(n), gexp_order(n) + 1)]
        assert lows[0] == lows[1], dword
        builds = [_build_at_order(n, dword, d) for d in (table_order(n), gexp_order(n) + 1)]
        at_caps = [c.f_lows + c.phi_lows + c.psi_lows + [c.gprime_lows[i] for i in c.I2]
                   for c in builds]
        assert at_caps[0] == at_caps[1], dword


def assert_canonical(r: RatFun, num: Poly, den: Poly):
    """r has exactly the pair of RatFun(num, den), which is sympy's reduced
    form of num/den scaled to a denominator with leading coefficient 1."""
    canonical = RatFun(num, den)
    assert (r.num, r.den) == (canonical.num, canonical.den)
    p, q = to_sympy(num).cancel(to_sympy(den), include=True)
    lc = q.LC(order="grlex")
    assert to_sympy(r.num) == p.quo_ground(lc)
    assert to_sympy(r.den) == q.quo_ground(lc)


# the parts of the RatFuns below: products of a cofactor and shared factors
factors = polys(3, 2)
nonconstant = factors.filter(lambda p: not p.is_constant())


@st.composite
def ratfun_pairs(draw, max_factors=2):
    """Two reduced RatFuns whose parts are cofactors times powers of shared
    factors, so that sums, products and quotients cancel."""
    fs = draw(st.lists(nonconstant, min_size=1, max_size=max_factors))

    def operand():
        num, den = draw(factors), draw(factors.filter(bool))
        for f in fs:
            num = num * f ** draw(st.integers(0, 1))
            den = den * f ** draw(st.integers(0, 1))
        return RatFun(num, den)

    return operand(), operand()


@given(ratfun_pairs(), st.integers(-2, 2))
@example((RatFun(px("x"), px("x + y")), RatFun(px("y"), px("x + y"))), 1)
@example((RatFun(px("x"), px("x^2 - y^2")), RatFun(px("y"), px("x^2 - y^2"))), 1)
def test_ratfun_field_operations_are_canonical(pair, k):
    # the examples: one denominator, the sum cancelling all of it or a factor
    r, s = pair
    a, b, c, d = r.num, r.den, s.num, s.den
    assert_canonical(r + s, a * d + c * b, b * d)
    assert_canonical(r - s, a * d - c * b, b * d)
    assert_canonical(r * s, a * c, b * d)
    if c:
        assert_canonical(r / s, a * d, b * c)
    if k >= 0:
        assert_canonical(r**k, a**k, b**k)
    elif a:
        assert_canonical(r**k, b ** -k, a ** -k)


@given(ratfun_pairs(), st.integers(-2, 2))
def test_ratfun_results_are_in_canonical_form(pair, k):
    r, s = pair
    results = [r + s, r - s, r * s, -r]
    if s:
        results.append(r / s)
    if r or k >= 0:
        results.append(r**k)
    for q in results:
        assert_canonical_poly(q.num)
        assert_canonical_poly(q.den)


def random_multilinear(rng):
    """One to three terms with exponents 0 or 1 in each of x, y, z."""
    return Poly(X3, {tuple(rng.randint(0, 1) for _ in range(3)):
                     QQ(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                     for _ in range(rng.randint(1, 3))})


def random_factor(rng):
    """Three terms with exponents up to 2 in each of x, y, z, numerators
    in +-5 and denominators up to 3."""
    terms = {}
    while len(terms) < 3:
        terms[tuple(rng.randint(0, 2) for _ in range(3))] = QQ(
            rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.randint(1, 3))
    return Poly(X3, terms)


def assert_gcd_agrees(f, g):
    """poly_gcd(f, g) has leading coefficient 1 and is sympy's gcd up to a
    nonzero constant."""
    got = poly_gcd(f, g)
    assert got.leading()[1] == 1
    q, r = sympy.div(to_sympy(got), sympy.gcd(to_sympy(f), to_sympy(g)))
    assert r.is_zero and q.is_ground and not q.is_zero


def heuristic_fails(*args):
    raise polyring._HeuristicGcdFailed("no candidate verified")


def by_route(seeds):
    """(seed, fallback) cases: each seed by the heuristic route, with the
    seed as its id, and by the remainder-sequence fallback."""
    return [pytest.param(s, False, id=str(s)) for s in seeds] + [
        pytest.param(s, True, id=f"{s}-fallback") for s in seeds]


def use_route(monkeypatch, fallback):
    """With ``fallback``, GCDHEU fails at once, so every gcd that passes the
    divisor short-cut is found by the primitive remainder sequence."""
    if fallback:
        monkeypatch.setattr(polyring, "_heu_gcd", heuristic_fails)


@pytest.mark.parametrize("seed, fallback", by_route(range(20)))
def test_gcd_agrees_with_sympy(seed, fallback, monkeypatch):
    use_route(monkeypatch, fallback)
    rng = random.Random(seed)
    common = random_multilinear(rng) * random_multilinear(rng)
    f = random_multilinear(rng) * common
    g = random_multilinear(rng) * random_multilinear(rng) * common
    assert_gcd_agrees(f, g)


X, Y, Z = (Poly.var(X3, v) for v in X3.names)


@pytest.mark.parametrize("pair", [
    lambda f, g: (f * g, g),
    lambda f, g: (g, f * g),
    lambda f, g: (f * QQ(-3, 2), f),
    lambda f, g: (X**2 * Y * f * g, X * Z * g),
], ids=["product-first", "product-second", "constant-multiple", "monomial-content"])
@pytest.mark.parametrize("seed, fallback", by_route(range(5)))
def test_gcd_short_cut_cases_agree_with_sympy(pair, seed, fallback, monkeypatch):
    use_route(monkeypatch, fallback)
    rng = random.Random(seed)
    f = random_multilinear(rng) * random_multilinear(rng)
    assert_gcd_agrees(*pair(f, random_multilinear(rng)))


# pairs of 40-54 terms; the primitive remainder sequence took over 5 s on
# most of these seeds
@pytest.mark.parametrize("seed", range(12))
def test_gcd_of_squared_trivariate_factors(seed):
    rng = random.Random(seed)
    a, b, f, g = (random_factor(rng) for _ in range(4))
    assert_gcd_agrees(a * f**2 * g, b * f * g**2)


@given(st.lists(polys(3, 2), min_size=3, max_size=3), polys(4), polys(4))
def test_bracket_agrees_with_sympy(entries, f, g):
    # {f, g} = sum_ab df/dx_a P_ab dg/dx_b over a skew P with Poly entries
    zero = Poly.zero(X3)
    P = [[zero] * 3 for _ in range(3)]
    for (a, b), p in zip(combinations(range(3), 2), entries):
        P[a][b], P[b][a] = p, -p
    br = PoissonStructure(X3, P).bracket(f, g)
    assert type(br) is Poly
    expect = sympy.Poly(0, *GENS, domain="QQ")
    for a in range(3):
        for b in range(3):
            expect += (to_sympy(f).diff(GENS[a]) * to_sympy(P[a][b])
                       * to_sympy(g).diff(GENS[b]))
    assert to_sympy(br) == expect


LOG_VOLUME_KINDS = ["polys", "shared-denominator", "crossed-factor", "product-denominator",
                    "bivariate-denominator"]


def log_volume_functions(rng, kind):
    """Three functions over x, y, z with seeded multilinear parts: Polys;
    RatFuns whose denominators are powers of one shared factor, such as
    x + 1; RatFuns where one function's numerator holds a factor of
    another function's denominator; (x + a)(y + b) under one function and
    x + a under another, a denominator with content in each of its
    variables, as (1 + e1)(1 + e2) in the SL(3) chart; or the irreducible
    x*y + c squared under one function and to the first power under
    another, with the third a Poly in the last two kinds."""
    nums = [random_multilinear(rng) + Poly.var(X3, v) for v in rng.sample(X3.names, 3)]
    if kind == "polys":
        return nums
    if kind == "shared-denominator":
        shared = Poly.var(X3, rng.choice(X3.names)) + 1
        return [RatFun(p, shared ** rng.randint(1, 2)) for p in nums]
    if kind == "product-denominator":
        x, y = (Poly.var(X3, v) + rng.randint(1, 3) for v in rng.sample(X3.names, 2))
        return [RatFun(nums[0], x * y), RatFun(nums[1], x), nums[2]]
    if kind == "bivariate-denominator":
        x, y = (Poly.var(X3, v) for v in rng.sample(X3.names, 2))
        den = x * y + rng.randint(1, 3)
        return [RatFun(nums[0], den ** 2), RatFun(nums[1], den), nums[2]]
    g = random_multilinear(rng) + Poly.var(X3, rng.choice(X3.names))
    dens = [Poly.var(X3, v) + rng.randint(1, 3) for v in rng.sample(X3.names, 3)]
    return [RatFun(nums[0] * g, dens[0]), RatFun(nums[1], dens[1] * g),
            RatFun(nums[2], dens[2])]


FIELD = sympy.field("x,y,z", sympy.QQ)
K, KGENS = FIELD[0], FIELD[1:]


def to_field(f):
    """A Poly or RatFun as an element of sympy's field QQ(x, y, z), whose
    elements are reduced fractions."""
    num, den = (f.num, f.den) if isinstance(f, RatFun) else (f, Poly.const(X3, 1))
    return K.from_expr(to_sympy(num).as_expr()) / K.from_expr(to_sympy(den).as_expr())


def assert_reduced_form(r, expected):
    """r, a Poly or RatFun, has the parts of the reduced fraction
    ``expected`` scaled to a denominator with leading coefficient 1."""
    num, den = (r.num, r.den) if isinstance(r, RatFun) else (r, Poly.const(X3, 1))
    p, q = (sympy.Poly(e.as_expr(), *GENS, domain="QQ") for e in (expected.numer, expected.denom))
    lc = q.LC(order="grlex")
    assert to_sympy(num) == p.quo_ground(lc)
    assert to_sympy(den) == q.quo_ground(lc)


@pytest.mark.parametrize("kind", LOG_VOLUME_KINDS)
@pytest.mark.parametrize("seed", range(6))
def test_log_volume_agrees_with_sympy(kind, seed):
    # det(J) / prod(f) in sympy's field, with the 3 x 3 determinant by
    # permutations
    fs = log_volume_functions(random.Random(seed), kind)
    els = [to_field(f) for f in fs]
    jac = [[e.diff(v) for e in els] for v in KGENS]
    expected = sum(Permutation(list(p)).signature() * jac[0][p[0]] * jac[1][p[1]] * jac[2][p[2]]
                   for p in permutations(range(3))) / (els[0] * els[1] * els[2])
    if expected == 0:
        with pytest.raises(DependentSystem):
            log_volume(fs, X3)
        return
    assert_reduced_form(log_volume(fs, X3).coefficient, expected)


@pytest.mark.parametrize("kind", LOG_VOLUME_KINDS)
@pytest.mark.parametrize("seed", range(4))
def test_jacobian_column_is_the_squared_denominator_times_the_gradient(kind, seed):
    fs = log_volume_functions(random.Random(seed), kind)
    J = jacobian(fs, X3)
    for i, f in enumerate(fs):
        den = to_field(f.den if isinstance(f, RatFun) else Poly.const(X3, 1))
        for a, v in enumerate(KGENS):
            assert type(J[a, i]) is Poly
            assert to_field(J[a, i]) == den**2 * to_field(f).diff(v)


def rational_structure():
    """A structure on x, y, z with one rational entry: the log-canonical
    {u, v} = uv, {u, w} = 2uw, {v, w} = -vw carried to x = u,
    y = v/(1 + w), z = w, so each monomial in u = x, v = y(1 + z), w = z
    is log-canonical with every other."""
    P = [[Poly.zero(X3)] * 3 for _ in range(3)]
    for (a, b), entry in {(0, 1): RatFun(parse_poly("x*y - x*y*z", X3), parse_poly("1 + z", X3)),
                          (0, 2): parse_poly("2*x*z", X3),
                          (1, 2): parse_poly("-y*z", X3)}.items():
        P[a][b], P[b][a] = entry, -entry
    return PoissonStructure(X3, P), [[to_field(x) for x in row] for row in P]


@pytest.mark.parametrize("kind", LOG_VOLUME_KINDS)
@pytest.mark.parametrize("seed", range(4))
def test_rational_bracket_agrees_with_sympy(kind, seed):
    # {f, g} = sum_ab df/dx_a P_ab dg/dx_b and the field sum_b P_ab dg/dx_b
    # in sympy's field, with a RatFun entry and RatFun f and g
    pi, P = rational_structure()
    f, g, _ = log_volume_functions(random.Random(seed), kind)
    df, dg = ([to_field(h).diff(v) for v in KGENS] for h in (f, g))
    field = [sum(P[a][b] * dg[b] for b in range(3)) for a in range(3)]
    br = pi.bracket(f, g)
    assert type(br) is RatFun
    assert_reduced_form(br, sum(df[a] * field[a] for a in range(3)))
    for x, expected in zip(pi.hamiltonian_field(g), field):
        assert type(x) is RatFun
        assert_reduced_form(x, expected)


@pytest.mark.parametrize("f, g", [
    (("x", "z"), ("y + y*z", "x")),
    (("x*y + x*y*z", "1"), ("z^2", "y + y*z")),
    (("1", "x*z"), ("y + y*z", "1")),
    (("x", "z"), ("y", "x")),
    (("x + z", "1"), ("y", "1 + z")),
], ids=["monomials", "monomials-over-1", "reciprocal", "not-monomial", "sum"])
def test_log_canonical_ratio_agrees_with_sympy(f, g):
    # lambda is {f, g} / (f g) when sympy finds that ratio constant, else None
    pi, P = rational_structure()
    f, g = (RatFun(parse_poly(n, X3), parse_poly(d, X3)) for n, d in (f, g))
    df, dg = ([to_field(h).diff(v) for v in KGENS] for h in (f, g))
    ratio = sum(df[a] * P[a][b] * dg[b] for a in range(3) for b in range(3)) / (
        to_field(f) * to_field(g))
    lam = is_log_canonical(pi, f, g)
    if ratio.numer.is_ground and ratio.denom.is_ground:
        e = ratio.as_expr()
        assert lam == Fraction(int(e.p), int(e.q))
    else:
        assert lam is None


@given(polys(8))
def test_parse_inverts_str(p):
    assert parse_poly(str(p), X3) == p


# -- the fraction-free rank and the closed-form linear structures -------------


def int_pivots(rows):
    """``polyring._int_pivots`` of a dense matrix of rationals, each row
    cleared over one int."""
    return polyring._int_pivots([[x.numerator * (d // x.denominator) for x in r]
                                 for r in rows for d in [lcm(*[x.denominator for x in r])]])


def fraction_pivot_columns(rows):
    """Gaussian elimination on Fractions, the pivot rule of
    ``polyring._int_pivots``: the first row at or below the rank with a
    nonzero entry in the column."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            factor = m[i][col] / m[rank][col]
            m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
    return pivots


def sympy_pivots(rows):
    return list(sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                              for r in rows]).rref()[1])


rank_entries = st.one_of(st.just(Fraction(0)), st.fractions(-30, 30, max_denominator=12))


@st.composite
def rational_matrices(draw):
    """1-6 x 1-6 rational matrices: dense, of a drawn rank (a product of
    two thin factors), or with drawn rows and columns set to zero."""
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["dense", "low-rank", "zero-lines"]))
    if kind == "low-rank":
        k = draw(st.integers(0, min(nr, nc)))
        a = draw(st.lists(st.lists(rank_entries, min_size=k, max_size=k),
                          min_size=nr, max_size=nr))
        b = draw(st.lists(st.lists(rank_entries, min_size=nc, max_size=nc),
                          min_size=k, max_size=k))
        return [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
                 for j in range(nc)] for i in range(nr)]
    rows = draw(st.lists(st.lists(rank_entries, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    if kind == "zero-lines":
        zr = draw(st.sets(st.integers(0, nr - 1)))
        zc = draw(st.sets(st.integers(0, nc - 1)))
        rows = [[Fraction(0) if i in zr or j in zc else x for j, x in enumerate(r)]
                for i, r in enumerate(rows)]
    return rows


def as_fractions(rows):
    return [[Fraction(x) for x in r] for r in rows]


@given(rational_matrices())
@example(as_fractions([[0, 0, 0]]))
@example(as_fractions([[0, 3, 1, 0]]))
@example(as_fractions([[0], [0], [2], [5]]))
@example(as_fractions([[0, 0], [0, 0], [0, 0]]))
@example(as_fractions([[1, 2, 3], [2, 4, 6], [0, 0, 1]]))
@example(as_fractions([[0, 1, 2], [0, 2, 4], [0, 0, 0]]))
@example(as_fractions([[QQ(1, 2), QQ(1, 3)], [QQ(3, 2), 1], [QQ(-1, 7), 0]]))
@example(as_fractions([[2, 1, 0, 4, 1], [4, 2, 1, 8, 0]]))
def test_fraction_free_pivots_agree_with_sympy_rref(rows):
    # the examples: zero, 1 x k, k x 1, rank-deficient, zero-column, tall
    # and wide matrices
    got = int_pivots(rows)
    assert got == sympy_pivots(rows) == fraction_pivot_columns(rows)


def family_lows():
    """(lows, vars) of the Schubert m=4, BFZ n=2 and dual GL n=2 runs."""
    cell = build_cell(4, longest_word(4))
    cluster = build_bfz(2, standard_double_word(2))
    jets = lows_via_jets(build_staircase(2))
    return [(cell.lows(), cell.vars),
            ([low for low, _ in cluster.f_lows + cluster.phi_lows],
             cluster.vars),
            ([p for p, _ in jets.phi_lows + jets.cbar_lows], jets.u_vars)]


def test_fraction_free_pivots_on_the_family_jacobians():
    # five seeded points each, as numeric_pivots draws them
    for lows, vars in family_lows():
        m = jacobian(lows, vars)
        rng = random.Random(5)
        for _ in range(5):
            point = RationalPoint([random_rational(rng) for _ in vars.names], vars)
            rows = [[x.evaluate(point) for x in row] for row in m.entries]
            assert int_pivots(rows) == fraction_pivot_columns(rows)


def reference_sl_dual(n):
    """``sl_dual_linear_structure`` by Poly arithmetic on the traceless
    matrix: (sign(p-i)+sign(q-j))/2 (delta_iq u_pj + delta_pj u_iq)."""
    m = n + 1
    vars = sl_varset(n)
    u = sl_u_matrix(n, vars).entries
    zero = Poly.zero(vars)
    pairs = [(i, j) for i in range(m) for j in range(m) if (i, j) != (n, n)]
    return [[((u[p][j] if i == q else zero) + (u[i][q] if p == j else zero))
             * QQ(_sign(p - i) + _sign(q - j), 2)
             for p, q in pairs] for i, j in pairs]


def reference_kks(n):
    """``kks_gl`` by Poly arithmetic: delta_ps u_rq - delta_rq u_ps."""
    u = u_poly_matrix(n).entries
    zero = Poly.zero(u[0][0].vars)
    order = [(i, j) for i in range(n) for j in range(n)]
    return [[(u[r][q] if p == s else zero) - (u[p][s] if r == q else zero)
             for r, s in order] for p, q in order]


@pytest.mark.parametrize("n", range(1, 5))
def test_closed_form_linear_structures_are_the_poly_formulas(n):
    for built, expected in ((sl_dual_linear_structure(n), reference_sl_dual(n)),
                            (kks_gl(n), reference_kks(n))):
        assert [[(str(x), x.den) for x in row] for row in built.bracket_matrix] == [
            [(str(x), x.den) for x in row] for row in expected]


# -- the linear layer on int tables against Poly brackets and evaluations -----


@pytest.fixture(scope="module")
def linear_structures():
    """sl(3)* at the identity, the gl(3) coalgebra and a Schubert pi0."""
    return [sl_dual_linear_structure(2), kks_gl(3), build_cell(4, longest_word(4)).pi0]


def polys_over(vars, max_terms=3):
    exponents = st.tuples(*[st.integers(0, 2)] * len(vars))
    return st.dictionaries(exponents, coefficients, max_size=max_terms).map(
        lambda terms: Poly(vars, terms))


@st.composite
def involution_cases(draw, structures):
    """A linear structure and 2-3 Polys or RatFuns on its variables: drawn
    freely (which rarely commute), or made from the first by a square, a
    reciprocal or a constant (which commute with it)."""
    pi0 = draw(st.sampled_from(structures))
    vars = pi0.vars

    def function():
        num = draw(polys_over(vars))
        if draw(st.booleans()):
            return num
        return RatFun(num, draw(polys_over(vars, 2).filter(lambda p: not p.is_constant())))

    f = function()
    fs = [f]
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["free", "square", "reciprocal", "constant"]))
        if kind == "square":
            fs.append(f * f)
        elif kind == "reciprocal" and f:
            fs.append(1 / f if isinstance(f, RatFun) else RatFun(Poly.const(vars, 1), f))
        elif kind == "constant":
            fs.append(Poly.const(vars, draw(coefficients)))
        else:
            fs.append(function())
    return pi0, fs


@given(data=st.data())
def test_table_certificate_is_the_poly_bracket(linear_structures, data):
    pi0, fs = data.draw(involution_cases(linear_structures))
    expected = all(pi0.bracket(f, g).is_zero() for f, g in combinations(fs, 2))
    assert involutivity_certificate(pi0, fs) == expected
    # a plain structure with the same entries is read through its table
    plain = PoissonStructure(pi0.vars, pi0.bracket_matrix)
    assert involutivity_certificate(plain, fs) == expected


def test_table_certificate_on_coordinate_pairs(linear_structures):
    # {v_a, v_b} is the entry itself: both outcomes occur on every structure
    for pi0 in linear_structures:
        coords = [Poly.var(pi0.vars, nm) for nm in pi0.vars.names]
        seen = set()
        for a, b in combinations(range(len(coords)), 2):
            got = involutivity_certificate(pi0, [coords[a], coords[b]])
            assert got == pi0.bracket_matrix[a][b].is_zero()
            seen.add(got)
        assert seen == {True, False}


def evaluated_pivots(m, rng, retries):
    """``numeric_pivots`` as ``int_pivots`` of the ``Poly.evaluate``
    values, at the same seeded points."""
    full, best = min(m.rows, m.cols), []
    for _ in range(retries if full else 0):
        vars = m.entries[0][0].vars
        point = RationalPoint([random_rational(rng) for _ in vars.names], vars)
        pivots = int_pivots([[x.evaluate(point) for x in row] for row in m.entries])
        if len(pivots) > len(best):
            best = pivots
        if len(best) == full:
            break
    return best


@st.composite
def poly_matrices(draw):
    """0-4 x 0-4 Poly matrices with Fraction coefficients and mixed
    degrees; a column may be zero or a Poly multiple of an earlier one."""
    nr, nc = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    cols = []
    for j in range(nc):
        kind = draw(st.sampled_from(["free", "zero", "multiple"]))
        if kind == "zero":
            cols.append([Poly.zero(X3)] * nr)
        elif kind == "multiple" and j:
            c = draw(polys(2, 2))
            cols.append([x * c for x in cols[draw(st.integers(0, j - 1))]])
        else:
            cols.append([draw(polys(3)) for _ in range(nr)])
    return PolyMatrix([[col[i] for col in cols] for i in range(nr)])


@given(poly_matrices(), st.integers(0, 2**16), st.integers(0, 4))
@example(PolyMatrix([]), 1, 3)
@example(PolyMatrix([[], []]), 1, 3)
@example(PolyMatrix([[Poly.zero(X3), px("x^3 + 1/2*y")], [Poly.zero(X3), px("2/3*z")]]), 1, 3)
def test_int_pivots_are_the_evaluated_pivots(m, seed, retries):
    rng, ref = random.Random(seed), random.Random(seed)
    assert numeric_pivots(m, rng, retries) == evaluated_pivots(m, ref, retries)
    assert rng.random() == ref.random()  # the same points were drawn


def test_int_pivots_on_the_family_jacobians():
    for lows, vars in family_lows():
        m = jacobian(lows, vars)
        assert numeric_pivots(m, random.Random(5)) == evaluated_pivots(m, random.Random(5), 8)
        rng, ref = random.Random(5), random.Random(5)
        assert jacobian_pivots(lows, vars, rng) == numeric_pivots(m, ref)
        assert rng.getstate() == ref.getstate()


class ZeroProneRandom(random.Random):
    """A Random whose ``randint`` returns 0 for one numerator in three, so
    that ``random_rational`` draws again often."""

    def randint(self, a, b):
        if a < 0 <= b and self.random() < 1 / 3:
            return 0
        return super().randint(a, b)


@st.composite
def jacobian_cases(draw):
    """(fs, rng class, seed): 0-4 Polys and RatFuns on x, y, z with
    exponents up to 3, constants, repeats, shifts f + c of a drawn f (whose
    column is f's, so the quotient rule shows), and RatFuns whose
    denominator vanishes at the first point the seed draws."""
    cls = draw(st.sampled_from([random.Random, ZeroProneRandom]))
    seed = draw(st.integers(0, 2**16))
    first = [random_rational(r) for r in [cls(seed)] for _ in X3.names]
    fs = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["poly", "ratfun", "constant", "repeat", "shift", "pole"]))
        if kind == "constant":
            fs.append(Poly.const(X3, draw(coefficients)))
        elif kind == "repeat" and fs:
            fs.append(draw(st.sampled_from(fs)))
        elif kind == "shift" and fs:
            fs.append(draw(st.sampled_from(fs)) + draw(coefficients))
        elif kind in ("ratfun", "pole"):
            den = draw(nonconstant)
            if kind == "pole":  # den(first) = 0 through its factor z - z(first)
                den = den * (Poly.var(X3, "z") - first[2])
            fs.append(RatFun(draw(polys(4)), den))
        else:
            fs.append(draw(polys(4)))
    return fs, cls, seed


@given(jacobian_cases(), st.integers(0, 4))
@example(([], random.Random, 1), 3)
@example(([px("x*y^2 + z"), RatFun(px("x"), px("y^2 + x*z"))], ZeroProneRandom, 7), 8)
@example(([RatFun(px("x + z"), px("y^2 + x*z")), RatFun(px("x + y^2 + x*z + z"), px("y^2 + x*z"))],
          random.Random, 3), 2)
def test_jacobian_pivots_are_the_poly_jacobian_pivots(case, retries):
    fs, cls, seed = case
    rng, ref = cls(seed), cls(seed)
    assert jacobian_pivots(fs, X3, rng, retries) == numeric_pivots(jacobian(fs, X3), ref, retries)
    assert rng.getstate() == ref.getstate()


def test_random_rational_draws_a_zero_numerator_again():
    # under ZeroProneRandom, one first numerator in three is 0: the draw is
    # then never 0, and every other draw is the plain pair of randints
    redrawn = 0
    for seed in range(200):
        rng = ZeroProneRandom(seed)
        num, den = rng.randint(-1000, 1000), rng.randint(1, 1000)
        got = random_rational(ZeroProneRandom(seed))
        assert got != 0
        if num:
            assert got == QQ(num, den)
        redrawn += not num
    assert redrawn > 50


def test_jacobian_pivots_refuse_mixed_variables():
    with pytest.raises(MixedVariables):
        jacobian_pivots([Poly.var(VarSet(["x", "y"]), "x")], X3, random.Random(1))
