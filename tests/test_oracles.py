"""The polynomial kernel against sympy, on polynomials drawn by hypothesis.

sympy's sparse polynomials over QQ are an implementation independent of
``polyring``; its graded-lex order on (x, y, z) is the one ``polyring``
uses on exponent tuples.
"""

import pytest
import sympy
from hypothesis import given, strategies as st

from clusterint.errors import NotDivisible
from clusterint.polyring import (
    Poly,
    RatFun,
    VarSet,
    parse_poly,
    ratfun_reduced_by_factors,
)
from clusterint.rationals import QQ

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
         for e, c in p.terms.items()},
        *GENS, domain="QQ")


@given(nonzero, nonzero)
def test_product_divides_back(f, g):
    assert (f * g).exact_div(g) == f


@given(polys(), nonzero, polys(2))
def test_exact_div_agrees_with_sympy_div(a, g, b):
    # a*g + b is divisible by g exactly when b is, e.g. when b is 0
    f = a * g + b
    q, r = sympy.div(to_sympy(f), to_sympy(g))
    if r.is_zero:
        got = f.exact_div(g)
        assert got * g == f
        assert to_sympy(got) == q
    else:
        with pytest.raises(NotDivisible):
            f.exact_div(g)


# poly_gcd, which RatFun(num, den) runs on the unreduced pair, slows down
# sharply with degree (the rational coefficients of its remainder sequence
# grow exponentially), so the cofactors and factors here are multilinear
@given(polys(3, 1).filter(bool), polys(3, 1).filter(bool), st.lists(
    st.tuples(polys(3, 1).filter(lambda p: not p.is_constant()),
              st.integers(0, 2), st.integers(0, 2)),
    min_size=1, max_size=2))
def test_trial_division_gives_the_canonical_ratfun(a, b, factors):
    num, den = a, b
    for f, i, j in factors:
        num = num * f**i
        den = den * f**j
    fs = [f for f, _, _ in factors]
    reduced = ratfun_reduced_by_factors(num, den, fs)
    canonical = RatFun(num, den)
    assert (reduced.num, reduced.den) == (canonical.num, canonical.den)
    # sympy's reduced form, scaled to a denominator with leading coefficient 1
    p, q = to_sympy(num).cancel(to_sympy(den), include=True)
    lc = q.LC(order="grlex")
    assert to_sympy(canonical.num) == p.quo_ground(lc)
    assert to_sympy(canonical.den) == q.quo_ground(lc)


@given(polys(8))
def test_parse_inverts_str(p):
    assert parse_poly(str(p), X3) == p
