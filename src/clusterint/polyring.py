"""Exact sparse multivariate polynomial, rational-function and jet arithmetic.

There is no floating point anywhere.  A Poly stores its rational
coefficients as nonzero int numerators ``terms`` (keyed by exponent tuples)
over one int denominator ``den`` >= 1 with ``gcd(den, *terms.values()) ==
1``; the pair is unique, so equality and hashing are exact.
``Poly(vars, terms)`` takes rational coefficients; ``Poly._trusted`` takes
nonzero int numerators.  The accessors (``leading``, ``constant_value``,
``evaluate``, ``sorted_terms``) give rationals.  The kernel loops run on
ints (Monagan and Pearce, "Sparse polynomial multiplication and division in
Maple 14", 2010): one product kernel, ``_mul_terms``, serves Poly and Jet
(whose products pass a degree cap, so each term meets only the terms of the
other factor that keep the product within it); exact division runs on the
primitive integer part of the divisor, with the remainder in one dict and
its leading terms taken from a heap of graded-lex keys (Johnson 1974;
Monagan and Pearce, "Sparse polynomial division using a heap", JSC 2011).
A gcd tries the smaller operand as a divisor, then the heuristic integer
gcd GCDHEU, then a primitive remainder sequence.  The minors of a matrix
come from one memoized table (``minors``), a Laplace expansion along first
rows keyed by row and column bit masks, so that every minor read from it
reuses the sub-minors met before; ``det`` is the full minor of a fresh
table.  The canonical text
(``str``, read back by ``parse_poly``) lists terms in descending graded-lex
order, e.g. ``z1*z4 - z2``.
"""

from __future__ import annotations

import heapq
import operator
import re
from bisect import bisect_right
from functools import reduce
from math import gcd, isqrt, lcm

from .errors import (
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
from .rationals import QQ, QQ0, QQ1, qq, qq_str, random_rational

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# a factor of a term: a variable with an optional power, or a rational number
_FACTOR_RE = re.compile(
    rf"({_NAME_RE.pattern})(?:\^([0-9]+))?|([0-9]+(?:/[0-9]*[1-9][0-9]*)?)")


class VarSet:
    """An ordered list of distinct variable names, fixed for the lifetime
    of every object built over it."""

    __slots__ = ("names", "index")

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise BadVariableNames("variable list must be nonempty")
        if len(set(names)) != len(names):
            raise BadVariableNames("duplicate variable names")
        for nm in names:
            if not _NAME_RE.fullmatch(nm):
                raise BadVariableNames(f"bad variable name {nm!r}")
        self.names = names
        self.index = {nm: i for i, nm in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, VarSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarSet{self.names}"

    def unit_exp(self, name):
        e = [0] * len(self.names)
        e[self.index[name]] = 1
        return tuple(e)


def _grlex_key(exp):
    return (sum(exp), exp)


def _mul_terms(a: dict, b: dict, cap=None) -> dict:
    """Product of two dicts of integer numerators, deleting terms that
    cancel; with ``cap``, only its terms of total degree <= cap.  With a
    cap, the larger factor's terms are sorted by degree once, and each term
    of the smaller factor runs only over the prefix that keeps the product
    within the cap."""
    if len(a) > len(b):
        a, b = b, a
    row = list(b.items())
    if cap is not None:
        row.sort(key=lambda t: sum(t[0]))
        degs = [sum(e) for e, _ in row]
    add = operator.add
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in (row if cap is None else row[:bisect_right(degs, cap - sum(e1))]):
            key = tuple(map(add, e1, e2))
            s = out.get(key)
            if s is None:
                out[key] = c1 * c2
            else:
                s = s + c1 * c2
                if s == 0:
                    del out[key]
                else:
                    out[key] = s
    return out


def _div_terms(f: dict, g: dict) -> dict:
    """The quotient of dicts of integer numerators f / g, g nonzero; raises
    NotDivisible when the remainder is nonzero or a quotient coefficient is
    not an integer.  For g primitive, a quotient over Q of integer
    polynomials has integer coefficients (Gauss's lemma), so a step whose
    coefficient is not an integer already proves that g does not divide f.

    Sparse division with a heap: the remainder is one dict, keyed by
    negated exponents and updated in place.  Each step takes the
    remainder's graded-lex leading term from a min-heap of keys
    ``(-degree, negated exponent)``, skipping keys of monomials that
    have cancelled, and subtracts ``q_term * (g - lt(g))`` term by
    term, so a step costs O(|g| log) rather than O(|remainder|).  It
    raises NotDivisible as soon as the leading term is not divisible
    by g's leading term.  Every monomial a step adds lies below the
    one it removes, so the heap's keys come out in decreasing order and
    each quotient term is new and nonzero."""
    ge = max(g, key=_grlex_key)
    gc = g[ge]
    neg, add, sub = operator.neg, operator.add, operator.sub
    # a negated exponent sums to the negated degree
    nge = tuple(map(neg, ge))
    ndge = sum(nge)
    # g below its leading term: negated exponent and degree, -coefficient
    tail = []
    for e, c in g.items():
        if e != ge:
            ne = tuple(map(neg, e))
            tail.append((ne, sum(ne), -c))
    rem = {tuple(map(neg, e)): c for e, c in f.items()}
    heap = [(sum(ne), ne) for ne in rem]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    qterms = {}
    while heap:
        nd, ne = heappop(heap)
        rc = rem.pop(ne, None)
        if rc is None:
            continue
        nqe = tuple(map(sub, ne, nge))
        if max(nqe) > 0:
            raise NotDivisible("leading term not divisible")
        qc, r = divmod(rc, gc)
        if r:
            raise NotDivisible("quotient coefficient not an integer")
        qterms[tuple(map(neg, nqe))] = qc
        ndq = nd - ndge
        for nte, ndte, tc in tail:
            nm = tuple(map(add, nqe, nte))
            c = rem.get(nm)
            if c is None:
                rem[nm] = qc * tc
                heappush(heap, (ndq + ndte, nm))
            else:
                c = c + qc * tc
                if c:
                    rem[nm] = c
                else:
                    del rem[nm]
    return qterms


class RationalPoint:
    """A point, given as a list of rationals in varset order or a dict by
    name of ``vars``, as int numerators ``nums`` over one denominator
    ``den``; build it once to evaluate many functions at it."""

    __slots__ = ("nums", "den")

    def __init__(self, point, vars: VarSet = None):
        if isinstance(point, dict):
            point = [point[nm] for nm in vars.names]
        point = [qq(v) for v in point]
        self.den = lcm(*[x.denominator for x in point])
        self.nums = [x.numerator * (self.den // x.denominator) for x in point]


def _as_point(point, vars: VarSet) -> RationalPoint:
    return point if isinstance(point, RationalPoint) else RationalPoint(point, vars)

class Poly:
    """Sparse polynomial with exact rational coefficients over a VarSet,
    stored as nonzero integer numerators ``terms`` over one denominator
    ``den`` >= 1 that shares no factor with all of them."""

    __slots__ = ("vars", "terms", "den")

    def __init__(self, vars: VarSet, terms=None):
        self.vars = vars
        terms = {e: c for e, c in terms.items() if c != 0} if terms else {}
        self.den = den = lcm(*[c.denominator for c in terms.values()])
        # no prime of the lcm of reduced denominators divides every numerator
        self.terms = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}

    # -- constructors -------------------------------------------------------

    @classmethod
    def _trusted(cls, vars: VarSet, terms: dict, den: int = 1) -> "Poly":
        """A Poly over nonzero int numerators ``terms``, which it takes
        over, and ``den`` >= 1, reduced by their common factor."""
        if den != 1:
            g = gcd(den, *terms.values())
            if g != 1:
                terms = {e: c // g for e, c in terms.items()}
                den //= g
        p = cls.__new__(cls)
        p.vars = vars
        p.terms = terms
        p.den = den
        return p

    @staticmethod
    def zero(vars: VarSet) -> "Poly":
        return Poly._trusted(vars, {})

    @staticmethod
    def const(vars: VarSet, c) -> "Poly":
        if not isinstance(c, int):
            c = qq(c)
        return Poly._trusted(vars, {(0,) * len(vars): c.numerator} if c else {},
                             c.denominator)

    @staticmethod
    def var(vars: VarSet, name) -> "Poly":
        return Poly._trusted(vars, {vars.unit_exp(name): 1})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        c = self.terms.get((0,) * len(self.vars))
        return QQ0 if c is None else QQ(c, self.den)

    def __bool__(self):
        return bool(self.terms)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.vars != self.vars:
                raise MixedVariables("mixed variable sets")
            return other
        return Poly.const(self.vars, other)

    def __add__(self, other):
        if isinstance(other, (RatFun, Jet)):
            return NotImplemented
        other = self._coerce(other)
        den, b = self.den, other.terms
        if den == other.den:
            terms = dict(self.terms)
        else:
            den = lcm(den, other.den)
            k = den // self.den
            terms = {e: c * k for e, c in self.terms.items()}
            k = den // other.den
            b = {e: c * k for e, c in b.items()}
        for e, c in b.items():
            s = terms.get(e)
            if s is None:
                terms[e] = c
            else:
                s = s + c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return Poly._trusted(self.vars, terms, den)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.vars, {e: -c for e, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        if isinstance(other, (RatFun, Jet)):
            return NotImplemented
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (RatFun, Jet)):
            return NotImplemented
        if not isinstance(other, Poly):
            if not isinstance(other, int):
                other = qq(other)
            if other == 0:
                return Poly.zero(self.vars)
            n = other.numerator
            return Poly._trusted(self.vars, {e: n * c for e, c in self.terms.items()},
                                 self.den * other.denominator)
        if other.vars != self.vars:
            raise MixedVariables("mixed variable sets")
        return Poly._trusted(self.vars, _mul_terms(self.terms, other.terms),
                             self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return NotImplemented
        if isinstance(other, RatFun):
            return RatFun.from_poly(self) / other
        return RatFun(self, self._coerce(other))

    def __rtruediv__(self, other):
        return RatFun(self._coerce(other), self)

    def __pow__(self, k: int):
        if k < 0:
            raise NegativePower("negative power of a Poly")
        result = Poly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            return (self.vars == other.vars and self.den == other.den
                    and self.terms == other.terms)
        if isinstance(other, (int,)) or type(other) is type(QQ0):
            return self == Poly.const(self.vars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, self.den, frozenset(self.terms.items())))

    # -- degrees and components ----------------------------------------------

    def total_degree(self) -> int:
        """Max total degree; zero polynomial uses -1 sentinel (callers that
        need the -infinity semantics test is_zero first)."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def min_degree(self) -> int:
        if not self.terms:
            raise ZeroInput("zero polynomial has no lowest degree term")
        return min(sum(e) for e in self.terms)

    def lowest(self) -> "Poly":
        """Homogeneous component of minimal total degree."""
        return self.homogeneous_component(self.min_degree())

    def homogeneous_component(self, d: int) -> "Poly":
        return Poly._trusted(
            self.vars, {e: c for e, c in self.terms.items() if sum(e) == d}, self.den)

    def degree_in(self, name) -> int:
        i = self.vars.index[name]
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def coeff_of(self, name, k: int) -> "Poly":
        """Coefficient of name**k, as a Poly with that exponent stripped."""
        i = self.vars.index[name]
        out = {}
        for e, c in self.terms.items():
            if e[i] == k:
                e2 = list(e)
                e2[i] = 0
                out[tuple(e2)] = c
        return Poly._trusted(self.vars, out, self.den)

    # -- calculus / evaluation ------------------------------------------------

    def derivative(self, name) -> "Poly":
        i = self.vars.index[name]
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return Poly._trusted(self.vars, out, self.den)

    def evaluate(self, point):
        """Value at a RationalPoint or what it takes, summed on ints over
        den * point.den**D, D the total degree."""
        point = _as_point(point, self.vars)
        if not self.terms:
            return QQ0
        nums, D = point.nums, self.total_degree()
        scale = [point.den**k for k in range(D + 1)]
        total = 0
        for e, c in self.terms.items():
            for x, k in zip(nums, e):
                if k:
                    c *= x**k
            if c:
                total += c * scale[D - sum(e)]
        return QQ(total, self.den * scale[D])

    def shift(self, point) -> "Poly":
        """Substitute v_i -> v_i + c_i (translates the base point c to 0);
        ``point`` as for ``evaluate``."""
        point = _as_point(point, self.vars)
        result = self
        for i, c in enumerate(point.nums):
            if c == 0:
                continue
            nm = self.vars.names[i]
            # expand (v + c)^k per term, one variable at a time
            out = Poly.zero(self.vars)
            v_plus_c = Poly.var(self.vars, nm) + Poly.const(self.vars, QQ(c, point.den))
            powers = {0: Poly.const(self.vars, 1)}
            for e, coef in result.terms.items():
                k = e[i]
                if k not in powers:
                    powers[k] = v_plus_c**k
                e2 = list(e)
                e2[i] = 0
                out = out + powers[k] * Poly._trusted(self.vars, {tuple(e2): coef}, result.den)
            result = out
        return result

    def substitute(self, mapping, one):
        """Generic substitution: mapping sends variable names to elements of a
        commutative ring containing ``one``; unmapped variables must not occur.
        Rational coefficients are sent to coeff*one."""
        powers = {}

        def pw(nm, k):
            key = (nm, k)
            if key not in powers:
                base = mapping[nm]
                acc = base
                for _ in range(k - 1):
                    acc = acc * base
                powers[key] = acc
            return powers[key]

        total = None
        for e, c in self.terms.items():
            term = one * c
            for nm, k in zip(self.vars.names, e):
                if k:
                    term = term * pw(nm, k)
            total = term if total is None else total + term
        if total is None:
            return one * QQ0
        return total if self.den == 1 else total * QQ(1, self.den)

    # -- division and gcd -----------------------------------------------------

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ZeroInput("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, QQ(self.terms[e], self.den)

    def exact_div(self, g: "Poly") -> "Poly":
        """Exact division; raises NotDivisible when the remainder is nonzero.
        With g = (c / g.den) * G for G primitive over Z, the quotient is
        (g.den / (self.den * c)) * (self.terms / G), the last by
        ``_div_terms``."""
        if g.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if g.vars != self.vars:
            raise MixedVariables("mixed variable sets")
        if g.is_constant():
            return self * (QQ1 / g.constant_value())
        c = gcd(*g.terms.values())
        G = g.terms if c == 1 else {e: v // c for e, v in g.terms.items()}
        q = _div_terms(self.terms, G)
        if g.den != 1:
            q = {e: v * g.den for e, v in q.items()}
        return Poly._trusted(self.vars, q, self.den * c)

    def divides(self, f: "Poly") -> bool:
        try:
            f.exact_div(self)
            return True
        except NotDivisible:
            return False

    def monomial_content(self):
        """Exponent vector of the largest monomial dividing all terms."""
        it = iter(self.terms)
        try:
            first = next(it)
        except StopIteration:
            return (0,) * len(self.vars)
        mins = list(first)
        for e in it:
            for i, k in enumerate(e):
                if k < mins[i]:
                    mins[i] = k
        return tuple(mins)

    def div_monomial(self, mexp) -> "Poly":
        return Poly._trusted(
            self.vars,
            {tuple(a - b for a, b in zip(e, mexp)): c for e, c in self.terms.items()},
            self.den,
        )

    # -- canonical text -------------------------------------------------------

    def sorted_terms(self):
        """(exponent, rational coefficient) pairs in descending graded-lex
        order."""
        return [(e, QQ(c, self.den)) for e, c in
                sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                nm if k == 1 else f"{nm}^{k}"
                for nm, k in zip(self.vars.names, e)
                if k
            )
            neg = c < 0
            ac = -c if neg else c
            if mono:
                body = mono if ac == 1 else f"{qq_str(ac)}*{mono}"
            else:
                body = qq_str(ac)
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


def parse_poly(text: str, vars: VarSet) -> Poly:
    """Parse the canonical polynomial format (inverse of str)."""
    s = text.strip()
    if s == "0":
        return Poly(vars)
    s = s.replace("-", "+-")
    chunks = [c.strip() for c in s.split("+")]
    result = Poly(vars)
    for chunk in chunks:
        if not chunk:
            continue
        sign = QQ1
        if chunk.startswith("-"):
            sign = -QQ1
            chunk = chunk[1:].strip()
        if not chunk:
            raise PolySyntaxError(f"dangling sign in {text!r}")
        coeff = QQ1
        exp = [0] * len(vars)
        for factor in chunk.split("*"):
            factor = factor.strip()
            m = _FACTOR_RE.fullmatch(factor)
            if not m:
                raise PolySyntaxError(f"bad factor {factor!r} in {text!r}")
            name, k, number = m.groups()
            if number:
                coeff = coeff * qq(number)
            elif name not in vars.index:
                raise PolySyntaxError(
                    f"unknown variable {name!r} in {text!r}; "
                    f"the variables are {', '.join(vars.names)}")
            else:
                exp[vars.index[name]] += int(k or 1)
        term = Poly(vars, {tuple(exp): sign * coeff})
        result = result + term
    return result


# -- gcd ----------------------------------------------------------------------


def _poly_content_and_primitive(f: Poly, i: int):
    """View f as univariate in vars.names[i]; return (content, primitive)
    where content = gcd of the Poly coefficients (over the other variables)
    times the rational scale that makes the primitive part's leading
    coefficient monic in lex order, so that the coefficients of a remainder
    sequence of primitive parts cannot grow in scale."""
    name = f.vars.names[i]
    polys = {k: f.coeff_of(name, k) for k in {e[i] for e in f.terms}}
    cont = reduce(poly_gcd, polys.values())
    # lex order needs no key function, unlike graded lex
    top = polys[max(polys)]
    t, ct = top.terms, cont.terms
    scale = QQ(t[max(t)] * cont.den, top.den * ct[max(ct)])
    if scale != 1:
        cont = cont * scale
    prim_coeffs = {k: p.exact_div(cont) for k, p in polys.items()}
    return cont, prim_coeffs


def _from_univariate(vars: VarSet, i: int, coeffs) -> Poly:
    x = Poly.var(vars, vars.names[i])
    return sum((p * x**k for k, p in coeffs.items()), Poly.zero(vars))


def _uni_pseudo_rem(f, g, vars):
    """Pseudo-remainder of univariate polynomials given as dicts
    {degree: Poly coefficient}."""
    f = dict(f)
    dg = max(g)
    lcg = g[dg]
    while f and max(f) >= dg:
        df = max(f)
        lcf = f[df]
        # f := lcg*f - lcf * x^(df-dg) * g
        newf = {k: p * lcg for k, p in f.items()}
        for k, p in g.items():
            kk = k + df - dg
            q = newf.get(kk, Poly.zero(vars)) - lcf * p
            if q.is_zero():
                newf.pop(kk, None)
            else:
                newf[kk] = q
        f = newf
    return f


def _prs_gcd(f: Poly, g: Poly, main: int) -> Poly:
    """gcd of f and g, up to a constant, by the primitive remainder sequence
    in the variable ``main``, which occurs in both."""
    cf, fprim = _poly_content_and_primitive(f, main)
    cg, gprim = _poly_content_and_primitive(g, main)
    cont = poly_gcd(cf, cg)
    a, b = fprim, gprim
    if max(a) < max(b):
        a, b = b, a
    while True:
        r = _uni_pseudo_rem(a, b, f.vars)
        if not r:
            return cont * _from_univariate(f.vars, main, b)
        _, rprim = _poly_content_and_primitive(_from_univariate(f.vars, main, r), main)
        a, b = b, rprim
        if max(b) == 0:
            return cont


# GCDHEU gives up after this many evaluation points per level
_HEU_TRIES = 6


class _HeuristicGcdFailed(Exception):
    """GCDHEU verified no candidate at any of its evaluation points."""


def _int_primitive(f: dict) -> dict:
    c = gcd(*f.values())
    return f if c == 1 else {e: v // c for e, v in f.items()}


def _eval_at(f: dict, i: int, xi: int) -> dict:
    """The integer term dict f with variable i set to xi."""
    out = {}
    for e, c in f.items():
        k = e[i]
        if k:
            e = (*e[:i], 0, *e[i + 1:])
            c = c * xi**k
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _interpolate(h: dict, i: int, xi: int) -> dict:
    """The integer term dict whose coefficients of variable i are the
    symmetric xi-adic digits, in (-xi/2, xi/2], of those of h."""
    out = {}
    half = xi // 2
    for e, c in h.items():
        k = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[(*e[:i], k, *e[i + 1:])] = d
            c = (c - d) // xi
            k += 1
    return out


def _heu_gcd(f: dict, g: dict) -> dict:
    """gcd in Z[vars] of nonzero integer term dicts, by GCDHEU (Char,
    Geddes and Gonnet 1989); raises _HeuristicGcdFailed.

    The common integer content c of f and g comes out first and goes back
    into the result.  The last variable that occurs in f or g is set to an
    integer xi, the gcd of the two images is found by the same method one
    variable down (an integer gcd when none is left), and the candidate is
    the primitive part of the polynomial whose coefficients are the
    symmetric xi-adic digits of that gcd.  It is returned only if it
    divides f and g exactly.  With xi >= 2*min(|f|, |g|) + 2 in the max
    norm, a candidate that divides both is the gcd; otherwise xi grows by
    a factor of about 2.73*xi**(1/4) and the method tries again."""
    c = gcd(*f.values(), *g.values())
    occurs = [k for k, col in enumerate(zip(*f, *g)) if any(col)]
    if not occurs:
        return {next(iter(f)): c}
    i = occurs[-1]
    if c != 1:
        f = {e: v // c for e, v in f.items()}
        g = {e: v // c for e, v in g.items()}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    for _ in range(_HEU_TRIES):
        ff, gg = _eval_at(f, i, xi), _eval_at(g, i, xi)
        if ff and gg:
            h = _int_primitive(_interpolate(_heu_gcd(ff, gg), i, xi))
            try:
                _div_terms(f, h)
                _div_terms(g, h)
                return {e: c * v for e, v in h.items()}
            except NotDivisible:
                pass
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    raise _HeuristicGcdFailed(f"no gcd verified in {_HEU_TRIES} evaluation points")


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """gcd over Q[vars], normalized with graded-lex-positive leading
    coefficient 1 on its primitive scale (constant gcds are 1).

    After the monomial content comes out, three routes are tried in turn:

    - the divisor short-cut: the operand of lower degree (ties: fewer
      terms), if it divides the other exactly, is the gcd;
    - GCDHEU (``_heu_gcd``; Char, Geddes and Gonnet, "GCDHEU: Heuristic
      polynomial GCD algorithm based on integer GCD computation", JSC 7,
      1989; analysed by Liao and Fateman, "Evaluation of the heuristic
      polynomial GCD", ISSAC 1995) on the primitive integer multiples of
      the operands, with every evaluation point xi >= 2*min(|f|, |g|) + 2
      in the max norm of that level's operands, so that a candidate that
      divides both exactly is the gcd;
    - if no candidate passes at some level, the primitive remainder
      sequence (``_prs_gcd``)."""
    if f.vars != g.vars:
        raise MixedVariables("mixed variable sets")
    vars = f.vars
    if f.is_zero():
        return _normalize_gcd(g)
    if g.is_zero():
        return _normalize_gcd(f)

    # monomial content comes out first
    mf, mg = f.monomial_content(), g.monomial_content()
    mcommon = tuple(min(a, b) for a, b in zip(mf, mg))
    f = f.div_monomial(mf)
    g = g.div_monomial(mg)
    mono = Poly._trusted(vars, {mcommon: 1})

    # after removing monomial content a monomial is constant
    if f.is_constant() or g.is_constant():
        return _normalize_gcd(mono)

    # main variable: last one occurring in both
    main = None
    for i in reversed(range(len(vars))):
        if any(e[i] for e in f.terms) and any(e[i] for e in g.terms):
            main = i
            break
    if main is None:
        return _normalize_gcd(mono)

    a, b = sorted((f, g), key=lambda p: (p.total_degree(), len(p.terms)))
    if a.divides(b):
        return _normalize_gcd(a * mono)
    try:
        h = _heu_gcd(_int_primitive(f.terms), _int_primitive(g.terms))
    except _HeuristicGcdFailed:
        return _normalize_gcd(_prs_gcd(f, g, main) * mono)
    return _normalize_gcd(Poly._trusted(vars, h) * mono)


def _normalize_gcd(p: Poly) -> Poly:
    if p.is_zero():
        return p
    _, lc = p.leading()
    return p * (QQ1 / lc)


# -- rational functions ---------------------------------------------------------


class RatFun:
    """Quotient num/den of Polys in canonical form: num and den are coprime
    and den has graded-lex leading coefficient 1 (den is 1 when num is 0).
    The form is unique, so equal functions have equal pairs and strings.

    ``RatFun(num, den)`` reduces any pair by one gcd; ``reduce=False``
    takes a pair that is already canonical.  The field operations keep the
    form by Henrici's rules (Henrici 1956; Knuth, TAOCP vol. 2, 4.5.1),
    which take gcds of operand parts only, never of the unreduced result:

    - a/b + c/d: with g = gcd(b, d), the sum is (a*d + c*b)/(b*d) when g is
      1 (in particular when b or d is 1); otherwise t = a*(d/g) + c*(b/g),
      g2 = gcd(t, g) and the sum is (t/g2) / ((b/g)*(d/g2));
    - (a/b) * (c/d): only gcd(a, d) and gcd(c, b) cancel, and the quotient
      is the product with the reciprocal d/c;
    - d/dv (n/d): with g = gcd(d, d'), t = n'*(d/g) - n*(d'/g) and
      g2 = gcd(t, d), it is (t/g2) / ((d/g2)*(d/g)); g2 collects the
      factors of d free of v, which t may share;
    - (a/b)**k = a**k / b**k, as powers of coprime polynomials are coprime.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None, reduce: bool = True):
        if den is None:
            den = Poly.const(num.vars, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.vars != den.vars:
            raise MixedVariables("mixed variable sets")
        if num.is_zero():
            den = Poly.const(num.vars, 1)
        elif reduce:
            if not den.is_constant():
                g = poly_gcd(num, den)
                if not g.is_constant():
                    num = num.exact_div(g)
                    den = den.exact_div(g)
            _, lc = den.leading()
            if lc != 1:
                inv = QQ1 / lc
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_poly(p: Poly) -> "RatFun":
        return RatFun(p, None, reduce=False)

    @staticmethod
    def const(vars: VarSet, c) -> "RatFun":
        return RatFun(Poly.const(vars, c), None, reduce=False)

    @staticmethod
    def var(vars: VarSet, name) -> "RatFun":
        return RatFun(Poly.var(vars, name), None, reduce=False)

    @property
    def vars(self):
        return self.num.vars

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self):
        return self.num.constant_value() / self.den.constant_value()

    def is_polynomial(self):
        return self.den.is_constant()

    def as_poly(self) -> Poly:
        if not self.den.is_constant():
            raise NotDivisible("not a polynomial")
        return self.num * (QQ1 / self.den.constant_value())

    def __bool__(self):
        return not self.num.is_zero()

    # -- field operations -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFun):
            return other
        if isinstance(other, Poly):
            return RatFun.from_poly(other)
        return RatFun.const(self.vars, other)

    def __add__(self, other):
        other = self._coerce(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b.is_constant():
            return RatFun(a * d + c, d, reduce=False)
        if d.is_constant():
            return RatFun(a + c * b, b, reduce=False)
        g = b if b == d else poly_gcd(b, d)
        if g.is_constant():
            return RatFun(a * d + c * b, b * d, reduce=False)
        b, d = b.exact_div(g), d.exact_div(g)
        t = a * d + c * b
        g2 = poly_gcd(t, g)
        if not g2.is_constant():
            t, g = t.exact_div(g2), g.exact_div(g2)
        return RatFun(t, b * d * g, reduce=False)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    @staticmethod
    def _product(a: Poly, b: Poly, c: Poly, d: Poly) -> "RatFun":
        """(a*c)/(b*d) in canonical form for coprime pairs (a, b) and
        (c, d), with b and d nonzero: only gcd(a, d) and gcd(c, b) cancel."""
        if not (a.is_constant() or d.is_constant()):
            g = poly_gcd(a, d)
            if not g.is_constant():
                a, d = a.exact_div(g), d.exact_div(g)
        if not (c.is_constant() or b.is_constant()):
            g = poly_gcd(c, b)
            if not g.is_constant():
                c, b = c.exact_div(g), b.exact_div(g)
        num, den = a * c, b * d
        _, lc = den.leading()
        if lc != 1:
            inv = QQ1 / lc
            num, den = num * inv, den * inv
        return RatFun(num, den, reduce=False)

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFun._product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun._product(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return (1 / self) ** (-k)
        return RatFun(self.num**k, self.den**k, reduce=False)

    def __eq__(self, other):
        if isinstance(other, (Poly, int)) or type(other) is type(QQ0):
            other = self._coerce(other)
        if not isinstance(other, RatFun):
            return NotImplemented
        # reduced canonical form makes this exact; cross-multiply as a guard
        if self.num == other.num and self.den == other.den:
            return True
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        return hash((self.num, self.den))

    # -- calculus / evaluation ----------------------------------------------------

    def derivative(self, name) -> "RatFun":
        n, d = self.num, self.den
        dn = n.derivative(name)
        if d.is_constant():
            return RatFun(dn, d, reduce=False)
        dd = d.derivative(name)
        # gcd(d, 0) is d itself
        g = d if dd.is_zero() else poly_gcd(d, dd)
        dg = d.exact_div(g)
        t = dn * dg - n * dd.exact_div(g)
        g2 = poly_gcd(t, d)
        if not g2.is_constant():
            t, d = t.exact_div(g2), d.exact_div(g2)
        return RatFun(t, d * dg, reduce=False)

    def evaluate(self, point):
        point = _as_point(point, self.vars)
        d = self.den.evaluate(point)
        if d == 0:
            raise EvaluationSingular("denominator vanishes at evaluation point")
        return self.num.evaluate(point) / d

    def __str__(self):
        if self.den.is_constant() and self.den.constant_value() == 1:
            return str(self.num)
        num = str(self.num)
        if len(self.num.terms) > 1:
            num = f"({num})"
        den = str(self.den)
        if len(self.den.terms) > 1:
            den = f"({den})"
        return f"{num} / {den}"

    def __repr__(self):
        return f"RatFun({self})"


def ratfun_reduced_by_factors(num: Poly, den: Poly, factors) -> "RatFun":
    """Build num/den, first cancelling the given candidate factors by exact
    trial division (cheap when the denominator's factorization is known from
    the construction), then falling back to the generic gcd."""
    for f in factors:
        if f.is_constant():
            continue
        while True:
            try:
                n2 = num.exact_div(f)
                d2 = den.exact_div(f)
            except NotDivisible:
                break
            num, den = n2, d2
    return RatFun(num, den)


# -- lowest degree terms ---------------------------------------------------------


def lowest_term(f):
    """Lowest degree term at the origin and its degree.

    Poly -> (Poly, int); RatFun -> (RatFun, int) with the quotient of the
    numerator and denominator lowest terms (presentation independent).
    """
    if isinstance(f, Poly):
        if f.is_zero():
            raise ZeroInput("lowest term of the zero polynomial")
        low = f.lowest()
        return low, low.min_degree()
    if isinstance(f, RatFun):
        if f.is_zero():
            raise ZeroInput("lowest term of the zero function")
        nlow = f.num.lowest()
        dlow = f.den.lowest()
        return RatFun(nlow, dlow), nlow.min_degree() - dlow.min_degree()
    raise TypeError(f"lowest_term expects Poly or RatFun, got {type(f)!r}")


def _sign_canonical(p: Poly) -> Poly:
    """Representative of {p, -p} with positive graded-lex leading coefficient."""
    if p.is_zero():
        return p
    _, lc = p.leading()
    return -p if lc < 0 else p


# -- jets --------------------------------------------------------------------------


class Jet:
    """A polynomial truncated at total degree ``order``; products drop
    everything above the order.  The constructor drops the terms of its Poly
    above the order; sums, negations, scalar multiples and capped products
    of Jets already lie within it and are wrapped by ``Jet._trusted``."""

    __slots__ = ("poly", "order")

    def __init__(self, poly: Poly, order: int):
        if order < 0:
            raise BadTruncation("jet order must be >= 0")
        self.order = order
        self.poly = Poly._trusted(
            poly.vars, {e: c for e, c in poly.terms.items() if sum(e) <= order}, poly.den
        )

    @classmethod
    def _trusted(cls, poly: Poly, order: int) -> "Jet":
        """A Jet over ``poly`` as given: the caller guarantees that no term
        of ``poly`` lies above the order."""
        j = cls.__new__(cls)
        j.order = order
        j.poly = poly
        return j

    @staticmethod
    def const(vars: VarSet, c, order: int) -> "Jet":
        return Jet(Poly.const(vars, c), order)

    @property
    def vars(self):
        return self.poly.vars

    def is_zero(self):
        return self.poly.is_zero()

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.order != self.order:
                raise BadTruncation("jet orders differ")
            return other
        if isinstance(other, Poly):
            return Jet(other, self.order)
        return Jet.const(self.vars, other, self.order)

    def __add__(self, other):
        other = self._coerce(other)
        return Jet._trusted(self.poly + other.poly, self.order)

    __radd__ = __add__

    def __neg__(self):
        return Jet._trusted(-self.poly, self.order)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, (Jet, Poly)):
            return Jet._trusted(self.poly * other, self.order)
        other = self._coerce(other).poly
        if other.vars != self.vars:
            raise MixedVariables("mixed variable sets")
        terms = _mul_terms(self.poly.terms, other.terms, self.order)
        return Jet._trusted(Poly._trusted(self.vars, terms, self.poly.den * other.den),
                            self.order)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Jet):
            return self.order == other.order and self.poly == other.poly
        return NotImplemented

    def __repr__(self):
        return f"Jet({self.poly}, order={self.order})"


def jet_lowest_term(j: Jet):
    """(lowest term, its degree) of the function a jet truncates.  A jet is
    exact through total degree ``order``: ``truncated_exp`` drops only the
    powers X^k with k > order, whose terms have degree > order, and capped
    products, sums and scalar multiples of jets exact through the order stay
    exact through it.  A Jet holds no term above its order, so the lowest
    term of a nonzero jet, of degree d <= order, is the function's own; a
    zero jet leaves it above the order and raises TruncationInsufficient."""
    if j.is_zero():
        raise TruncationInsufficient(f"no term through jet order {j.order}")
    low = j.poly.lowest()
    return low, low.min_degree()


# -- matrices -------------------------------------------------------------------


class PolyMatrix:
    """A rectangular grid of ring elements (Poly, RatFun or Jet) over one
    VarSet."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged matrix")

    @staticmethod
    def identity(vars: VarSet, n: int) -> "PolyMatrix":
        one, zero = Poly.const(vars, 1), Poly.zero(vars)
        return PolyMatrix(
            [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def is_square(self):
        return self.rows == self.cols

    def map(self, fn) -> "PolyMatrix":
        return PolyMatrix([[fn(x) for x in row] for row in self.entries])

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("shape mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = None
                for k in range(self.cols):
                    term = self.entries[i][k] * other.entries[k][j]
                    acc = term if acc is None else acc + term
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch")
        return PolyMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def submatrix(self, rows, cols) -> "PolyMatrix":
        return PolyMatrix([[self.entries[i][j] for j in cols] for i in rows])

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(x) for x in row) for row in self.entries
        )
        return f"PolyMatrix[{body}]"


def _entry_is_zero(x):
    if isinstance(x, (Poly, RatFun, Jet)):
        return x.is_zero()
    return x == 0


def _minor(rows, rmask, cmask, memo):
    """Determinant of ``rows`` restricted to the rows in the bit set
    ``rmask`` and the columns in ``cmask`` (of one size), by Laplace
    expansion along its first row; None when no term survives.  ``memo``
    holds each minor by its (row mask, column mask), so the expansions of
    all larger minors share it."""
    key = (rmask, cmask)
    if key in memo:
        return memo[key]
    first = rmask & -rmask
    row = rows[first.bit_length() - 1]
    rest_rows = rmask ^ first
    total = None
    negate = False
    rest_mask = cmask
    while rest_mask:
        bit = rest_mask & -rest_mask
        rest_mask ^= bit
        a = row[bit.bit_length() - 1]
        if not _entry_is_zero(a):
            if not rest_rows:
                term = a
            else:
                rest = _minor(rows, rest_rows, cmask ^ bit, memo)
                term = None if rest is None else a * rest
            if term is not None:
                if negate:
                    term = -term
                total = term if total is None else total + term
        negate = not negate
    memo[key] = total
    return total


def minors(m: PolyMatrix):
    """The minors of ``m`` as a function of (rows, cols), two collections
    of 0-based indices of one size, each read in increasing order.  Poly and
    Jet minors are expanded by Laplace along their first rows into one table
    that every minor of ``m`` shares, so a minor met inside another is
    computed once (no division, so Jet entries work as well as Poly ones);
    RatFun minors are each cleared by ``det``."""
    if {type(x) for row in m.entries for x in row} == {RatFun}:
        return lambda rows, cols: det(m.submatrix(sorted(rows), sorted(cols)))
    memo = {}

    def minor(rows, cols):
        if len(rows) != len(cols) or not rows:
            raise NonSquare(f"{len(rows)}x{len(cols)} minor")
        out = _minor(m.entries, sum(1 << i for i in rows), sum(1 << j for j in cols), memo)
        if out is None:
            x = m.entries[0][0]
            return x - x
        return out

    return minor


def det(m: PolyMatrix):
    """Exact determinant.  RatFun entries are first cleared of their
    denominators row by row; every other matrix gives the full minor of a
    fresh ``minors`` table."""
    if not m.is_square():
        raise NonSquare(f"{m.rows}x{m.cols} matrix")
    if {type(x) for row in m.entries for x in row} == {RatFun}:
        # clear each row by the lcm of its denominators, divide back at the
        # end, cancelling the known denominator factors by trial division
        cleared = []
        scale = None
        vars = m.entries[0][0].vars
        factors = []
        for row in m.entries:
            den = Poly.const(vars, 1)
            for x in row:
                if x.den.is_constant():
                    continue
                if x.den not in factors:
                    factors.append(x.den)
                den = den * x.den.exact_div(poly_gcd(den, x.den))
            cleared.append(
                [
                    x.num * (den if x.den.is_constant() else den.exact_div(x.den))
                    for x in row
                ]
            )
            scale = den if scale is None else scale * den
        d = det(PolyMatrix(cleared))
        return ratfun_reduced_by_factors(d, scale, factors)
    return minors(m)(range(m.rows), range(m.cols))


def inverse(m: PolyMatrix) -> PolyMatrix:
    """Inverse of a square matrix over a field (rational or RatFun entries)
    by Gauss-Jordan elimination; raises SingularLocus when it has none."""
    if not m.is_square():
        raise NonSquare(f"{m.rows}x{m.cols} matrix")
    n = m.rows
    zero = m.entries[0][0] - m.entries[0][0]
    one = zero + 1
    a = [list(row) + [one if i == j else zero for j in range(n)]
         for i, row in enumerate(m.entries)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise SingularLocus("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            factor = a[r][col]
            if r != col and factor:
                a[r] = [x - factor * y if y else x for x, y in zip(a[r], a[col])]
    return PolyMatrix([row[n:] for row in a])


def jacobian(fs, vars: VarSet) -> PolyMatrix:
    """Partial-derivative matrix with rows indexed by the variables and
    columns by the functions: J[a][i] = d f_i / d v_a."""
    return PolyMatrix(
        [[f.derivative(nm) for f in fs] for nm in vars.names]
    )


def _pivot_columns(rows) -> list:
    """Pivot columns, in increasing order, of a dense matrix of rationals
    by Gaussian elimination: each is independent of the columns before it,
    and their number is the rank."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    for col in range(nc):
        rank = len(pivots)
        piv = next((i for i in range(rank, nr) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for i in range(rank + 1, nr):
            if m[i][col] != 0:
                factor = m[i][col] / pv
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        pivots.append(col)
        if len(pivots) == nr:
            break
    return pivots


def numeric_pivots(m: PolyMatrix, rng, retries: int = 8) -> list:
    """Pivot columns of m at the first of up to ``retries`` seeded-random
    rational points that reaches the highest rank seen; sampling stops at a
    point of rank min(rows, cols), which no other point exceeds.  The rank
    is a lower bound on the generic rank, equal to it with high
    probability.  A point where a denominator vanishes is skipped; raises
    EvaluationSingular when every point is.  A matrix with no Poly or
    RatFun entry is evaluated at the empty point."""
    nvars = next((len(x.vars) for row in m.entries for x in row
                  if isinstance(x, (Poly, RatFun))), 0)
    full = min(m.rows, m.cols)
    best = None
    for _ in range(retries):
        point = RationalPoint([random_rational(rng) for _ in range(nvars)])
        try:
            pivots = _pivot_columns([[x.evaluate(point) if isinstance(x, (Poly, RatFun))
                                      else qq(x) for x in row] for row in m.entries])
        except EvaluationSingular:
            continue
        if best is None or len(pivots) > len(best):
            best = pivots
        if len(best) == full:
            break
    if best is None:
        raise EvaluationSingular("all sampled points hit a denominator zero")
    return best


def numeric_rank(m: PolyMatrix, rng, retries: int = 8) -> int:
    """Rank of m at seeded-random rational points, as ``numeric_pivots``
    reads it: a lower bound on the generic rank.  Kept as a function of its
    own because the benchmark's layer tracer (``bench/layertrace.py``)
    wraps it by name."""
    return len(numeric_pivots(m, rng, retries))


def truncated_exp(x: PolyMatrix, order: int) -> PolyMatrix:
    """Matrix exponential sum_{k<=order} x^k/k!, exact through total degree
    ``order``; entries of x must vanish at the origin."""
    if order < 1:
        raise BadTruncation("jet order must be >= 1")
    if not x.is_square():
        raise NonSquare("exponential of a non-square matrix")
    vars = None
    for row in x.entries:
        for entry in row:
            if not entry.is_zero() and entry.constant_value() != 0:
                raise NotVanishing("entries must have zero constant term")
            vars = entry.vars
    xj = x.map(lambda p: Jet(p, order))
    result = power = PolyMatrix.identity(vars, x.rows).map(lambda p: Jet(p, order))
    fact = QQ1
    for k in range(1, order + 1):
        power = power * xj
        fact = fact * k
        result = result + power.map(lambda j: j * (QQ1 / fact))
    return result
