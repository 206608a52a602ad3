"""Exact sparse multivariate polynomial, rational-function and jet arithmetic.

Everything is over arbitrary-precision rationals; there is no floating
point anywhere.  Polynomials are dicts mapping exponent tuples to nonzero
coefficients.  The public constructor ``Poly(vars, terms)`` drops zero
coefficients; ``Poly._trusted`` skips that filter and is used only for
results whose every coefficient is already known to be nonzero (sums,
negations and products, which delete cancelled terms as they go, and
quotients of exact division).  One product kernel, ``_mul_terms``, serves
Poly and Jet alike: a Jet is a Poly whose products pass a degree cap to the
kernel, which then pairs each term only with the terms of the other factor
that keep the product within the cap.  There is one determinant, a Laplace
expansion over row prefixes that computes each minor once.  Exact division
keeps its remainder as one dict updated in place and takes each next
leading term from a heap of graded-lex keys (Johnson 1974; Monagan and
Pearce, "Sparse polynomial division using a heap", JSC 2011).  The
canonical text format (used in JSON reports and read back by
``parse_poly``) lists terms in descending graded-lex order, e.g.
``z1*z4 - z2``.
"""

from __future__ import annotations

import heapq
import operator
import re
from bisect import bisect_right
from functools import reduce

from .errors import (
    BadTruncation,
    EvaluationSingular,
    NonSquare,
    NotDivisible,
    SingularLocus,
    TruncationInsufficient,
    ZeroInput,
)
from .rationals import QQ0, QQ1, qq, qq_str, random_rational

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class VarSet:
    """An ordered list of distinct variable names, fixed for the lifetime
    of every object built over it."""

    __slots__ = ("names", "index")

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise ValueError("variable list must be nonempty")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for nm in names:
            if not _NAME_RE.fullmatch(nm):
                raise ValueError(f"bad variable name {nm!r}")
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
    """Product of two term dicts, deleting terms that cancel; with ``cap``,
    only its terms of total degree <= cap.  With a cap, the larger factor's
    terms are sorted by degree once, and each term of the smaller factor
    runs only over the prefix that keeps the product within the cap."""
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


class Poly:
    """Sparse polynomial with exact rational coefficients over a VarSet."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VarSet, terms=None):
        self.vars = vars
        if terms is None:
            terms = {}
        self.terms = {e: c for e, c in terms.items() if c != 0}

    # -- constructors -------------------------------------------------------

    @classmethod
    def _trusted(cls, vars: VarSet, terms: dict) -> "Poly":
        """A Poly over ``terms`` as given, which it takes over: the caller
        guarantees every coefficient is nonzero."""
        p = cls.__new__(cls)
        p.vars = vars
        p.terms = terms
        return p

    @staticmethod
    def zero(vars: VarSet) -> "Poly":
        return Poly(vars)

    @staticmethod
    def const(vars: VarSet, c) -> "Poly":
        c = qq(c)
        if c == 0:
            return Poly(vars)
        return Poly(vars, {(0,) * len(vars): c})

    @staticmethod
    def var(vars: VarSet, name) -> "Poly":
        return Poly(vars, {vars.unit_exp(name): QQ1})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        z = (0,) * len(self.vars)
        return self.terms.get(z, QQ0)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __bool__(self):
        return bool(self.terms)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.vars != self.vars:
                raise ValueError("mixed variable sets")
            return other
        return Poly.const(self.vars, other)

    def __add__(self, other):
        if isinstance(other, (RatFun, Jet)):
            return NotImplemented
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, QQ0) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return Poly._trusted(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

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
            c = qq(other)
            if c == 0:
                return Poly(self.vars)
            return Poly._trusted(self.vars, {e: c * v for e, v in self.terms.items()})
        if other.vars != self.vars:
            raise ValueError("mixed variable sets")
        return Poly._trusted(self.vars, _mul_terms(self.terms, other.terms))

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
            raise ValueError("negative power of a Poly")
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
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int,)) or type(other) is type(QQ0):
            return self == Poly.const(self.vars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

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
        d = self.min_degree()
        return Poly(self.vars, {e: c for e, c in self.terms.items() if sum(e) == d})

    def homogeneous_component(self, d: int) -> "Poly":
        return Poly(self.vars, {e: c for e, c in self.terms.items() if sum(e) == d})

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
        return Poly(self.vars, out)

    # -- calculus / evaluation ------------------------------------------------

    def derivative(self, name) -> "Poly":
        i = self.vars.index[name]
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return Poly(self.vars, out)

    def evaluate(self, point):
        """Evaluate at a full rational point (list in varset order or dict)."""
        if isinstance(point, dict):
            point = [qq(point[nm]) for nm in self.vars.names]
        else:
            point = [qq(v) for v in point]
        total = QQ0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v = v * x**k
            total = total + v
        return total

    def shift(self, point) -> "Poly":
        """Substitute v_i -> v_i + c_i (translates the base point to 0)."""
        if isinstance(point, dict):
            point = [qq(point.get(nm, 0)) for nm in self.vars.names]
        else:
            point = [qq(v) for v in point]
        result = self
        for i, c in enumerate(point):
            if c == 0:
                continue
            nm = self.vars.names[i]
            # expand (v + c)^k per term, one variable at a time
            out = Poly(self.vars)
            v_plus_c = Poly.var(self.vars, nm) + Poly.const(self.vars, c)
            powers = {0: Poly.const(self.vars, 1)}
            for e, coef in result.terms.items():
                k = e[i]
                if k not in powers:
                    powers[k] = v_plus_c**k
                e2 = list(e)
                e2[i] = 0
                out = out + powers[k] * Poly(self.vars, {tuple(e2): coef})
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
        return total

    # -- division and gcd -----------------------------------------------------

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ZeroInput("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def exact_div(self, g: "Poly") -> "Poly":
        """Exact division; raises NotDivisible when the remainder is nonzero.

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
        if g.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if g.vars != self.vars:
            raise ValueError("mixed variable sets")
        if g.is_constant():
            c = g.constant_value()
            return Poly(self.vars, {e: v / c for e, v in self.terms.items()})
        ge, gc = g.leading()
        neg, add, sub = operator.neg, operator.add, operator.sub
        # a negated exponent sums to the negated degree
        nge = tuple(map(neg, ge))
        ndge = sum(nge)
        # g below its leading term: negated exponent and degree, -coefficient
        tail = []
        for e, c in g.terms.items():
            if e != ge:
                ne = tuple(map(neg, e))
                tail.append((ne, sum(ne), -c))
        rem = {tuple(map(neg, e)): c for e, c in self.terms.items()}
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
            qc = rc / gc
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
        return Poly._trusted(self.vars, qterms)

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
        return Poly(
            self.vars,
            {tuple(a - b for a, b in zip(e, mexp)): c for e, c in self.terms.items()},
        )

    # -- canonical text -------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

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
            raise ValueError(f"dangling sign in {text!r}")
        coeff = QQ1
        exp = [0] * len(vars)
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            base = factor.split("^")[0]
            if _NAME_RE.fullmatch(base):
                if base not in vars.index:
                    raise ValueError(
                        f"unknown variable {base!r} in {text!r}; "
                        f"the variables are {', '.join(vars.names)}")
                if "^" in factor:
                    nm, k = factor.split("^")
                    exp[vars.index[nm]] += int(k)
                else:
                    exp[vars.index[factor]] += 1
            else:
                coeff = coeff * qq(factor)
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
    coeffs = {}
    for e, c in f.terms.items():
        k = e[i]
        e2 = list(e)
        e2[i] = 0
        coeffs.setdefault(k, {})[tuple(e2)] = c
    polys = [Poly(f.vars, t) for t in coeffs.values()]
    cont = reduce(poly_gcd, polys)
    # lex order needs no key function, unlike graded lex
    top, ct = coeffs[max(coeffs)], cont.terms
    lc, clc = top[max(top)], ct[max(ct)]
    if lc != clc:
        cont = cont * (lc / clc)
    prim_coeffs = {k: Poly(f.vars, t).exact_div(cont) for k, t in coeffs.items()}
    return cont, prim_coeffs


def _from_univariate(vars: VarSet, i: int, coeffs) -> Poly:
    out = {}
    for k, p in coeffs.items():
        for e, c in p.terms.items():
            e2 = list(e)
            e2[i] = k
            out[tuple(e2)] = c
    return Poly(vars, out)


def _uni_degree(coeffs):
    return max(coeffs)


def _uni_pseudo_rem(f, g, vars):
    """Pseudo-remainder of univariate polynomials given as dicts
    {degree: Poly coefficient}."""
    f = dict(f)
    dg = _uni_degree(g)
    lcg = g[dg]
    while f and _uni_degree(f) >= dg:
        df = _uni_degree(f)
        lcf = f[df]
        # f := lcg*f - lcf * x^(df-dg) * g
        newf = {}
        for k, p in f.items():
            newf[k] = p * lcg
        for k, p in g.items():
            kk = k + df - dg
            q = newf.get(kk, Poly.zero(vars)) - lcf * p
            if q.is_zero():
                newf.pop(kk, None)
            else:
                newf[kk] = q
        f = newf
    return f


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """gcd over Q[vars], normalized with graded-lex-positive leading
    coefficient 1 on its primitive scale (constant gcds are 1)."""
    if f.vars != g.vars:
        raise ValueError("mixed variable sets")
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
    mono = Poly(vars, {mcommon: QQ1})

    if f.is_constant() or g.is_constant():
        return _normalize_gcd(mono)
    if f.is_monomial() or g.is_monomial():
        # after removing monomial content a monomial is constant
        return _normalize_gcd(mono)

    # main variable: last one occurring in both
    main = None
    for i in reversed(range(len(vars))):
        if any(e[i] for e in f.terms) and any(e[i] for e in g.terms):
            main = i
            break
    if main is None:
        return _normalize_gcd(mono)

    cf, fprim = _poly_content_and_primitive(f, main)
    cg, gprim = _poly_content_and_primitive(g, main)
    cont = poly_gcd(cf, cg)

    a, b = fprim, gprim
    if _uni_degree(a) < _uni_degree(b):
        a, b = b, a
    while True:
        r = _uni_pseudo_rem(a, b, vars)
        if not r:
            break
        rpoly = _from_univariate(vars, main, r)
        _, rprim = _poly_content_and_primitive(rpoly, main)
        a, b = b, rprim
        if _uni_degree(b) == 0:
            return _normalize_gcd(cont * mono)
    gpoly = _from_univariate(vars, main, b)
    return _normalize_gcd(cont * mono * gpoly)


def _normalize_gcd(p: Poly) -> Poly:
    if p.is_zero():
        return p
    _, lc = p.leading()
    return p * (QQ1 / lc)


# -- rational functions ---------------------------------------------------------


class RatFun:
    """Reduced quotient of Polys; denominator is monic under graded-lex."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None, reduce: bool = True):
        if den is None:
            den = Poly.const(num.vars, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.vars != den.vars:
            raise ValueError("mixed variable sets")
        if num.is_zero():
            den = Poly.const(num.vars, 1)
        elif reduce:
            if den.is_constant():
                c = den.constant_value()
                num = num * (QQ1 / c)
                den = Poly.const(num.vars, 1)
            else:
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
        if self.den == other.den:
            return RatFun(self.num + other.num, self.den)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return RatFun(self.den, self.num) ** (-k)
        return RatFun(self.num**k, self.den**k)

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
        dn = self.num.derivative(name)
        dd = self.den.derivative(name)
        if dd.is_zero():
            return RatFun(dn, self.den)
        return RatFun(dn * self.den - self.num * dd, self.den * self.den)

    def evaluate(self, point):
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
    everything above the order."""

    __slots__ = ("poly", "order")

    def __init__(self, poly: Poly, order: int):
        if order < 0:
            raise BadTruncation("jet order must be >= 0")
        self.order = order
        self.poly = Poly._trusted(
            poly.vars, {e: c for e, c in poly.terms.items() if sum(e) <= order}
        )

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
                raise ValueError("jet orders differ")
            return other
        if isinstance(other, Poly):
            return Jet(other, self.order)
        return Jet.const(self.vars, other, self.order)

    def __add__(self, other):
        other = self._coerce(other)
        return Jet(self.poly + other.poly, self.order)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.poly, self.order)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, (Jet, Poly)):
            return Jet(self.poly * other, self.order)
        other = self._coerce(other).poly
        if other.vars != self.vars:
            raise ValueError("mixed variable sets")
        terms = _mul_terms(self.poly.terms, other.terms, self.order)
        return Jet(Poly._trusted(self.vars, terms), self.order)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Jet):
            return self.order == other.order and self.poly == other.poly
        return NotImplemented

    def __repr__(self):
        return f"Jet({self.poly}, order={self.order})"


def jet_lowest_term(j: Jet):
    """Exact lowest term of the function a jet truncates, provided the jet is
    nonzero and its degree is below the jet order, so that one more doubling
    could not reveal anything lower."""
    if j.is_zero():
        return None
    low = j.poly.lowest()
    d = low.min_degree()
    if d >= j.order:
        return None
    return low, d


def escalate(attempt, order: int, cap: int):
    """``attempt(order)`` at doubling jet orders, the last step capped at
    ``cap``, until it returns something other than None; raises
    TruncationInsufficient when it still returns None at the cap."""
    while True:
        got = attempt(order)
        if got is not None:
            return got
        if order >= cap:
            raise TruncationInsufficient(f"jet order cap {cap} reached")
        order = min(2 * order, cap)


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
                raise ValueError("ragged matrix")

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
            raise ValueError("shape mismatch")
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
            raise ValueError("shape mismatch")
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


def _minor(rows, r, mask, memo):
    """Determinant of the rows from ``r`` on, restricted to the columns in
    the bit set ``mask`` (one per row), by Laplace expansion along row r;
    None when no term survives.  ``memo`` holds each minor by its mask, so
    the expansions of all larger minors share it."""
    if mask in memo:
        return memo[mask]
    last = r + 1 == len(rows)
    total = None
    negate = False
    rest_mask = mask
    while rest_mask:
        bit = rest_mask & -rest_mask
        rest_mask ^= bit
        a = rows[r][bit.bit_length() - 1]
        if not _entry_is_zero(a):
            if last:
                term = a
            else:
                rest = _minor(rows, r + 1, mask ^ bit, memo)
                term = None if rest is None else a * rest
            if term is not None:
                if negate:
                    term = -term
                total = term if total is None else total + term
        negate = not negate
    memo[mask] = total
    return total


def det(m: PolyMatrix):
    """Exact determinant.  RatFun entries are first cleared of their
    denominators row by row; every other matrix is expanded by Laplace along
    its rows in order, computing each minor on a set of trailing rows once
    (no division, so Jet entries work as well as Poly ones)."""
    if not m.is_square():
        raise NonSquare(f"{m.rows}x{m.cols} matrix")
    if m.rows == 0:
        raise NonSquare("empty matrix")
    kinds = {type(x) for row in m.entries for x in row}
    if kinds == {RatFun}:
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
    out = _minor(m.entries, 0, (1 << m.rows) - 1, {})
    if out is None:
        x = m.entries[0][0]
        return x - x
    return out


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


def _rational_rank(rows) -> int:
    """Rank of a dense matrix of rationals by Gaussian elimination."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    for col in range(nc):
        piv = None
        for i in range(rank, nr):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for i in range(rank + 1, nr):
            if m[i][col] != 0:
                factor = m[i][col] / pv
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nr:
            break
    return rank


def numeric_rank_at(m: PolyMatrix, point) -> int:
    """Exact rank of the rational matrix obtained by evaluating at a point."""
    rows = []
    for row in m.entries:
        vals = []
        for x in row:
            if isinstance(x, (Poly, RatFun)):
                vals.append(x.evaluate(point))
            else:
                vals.append(qq(x))
        rows.append(vals)
    return _rational_rank(rows)


def numeric_rank(m: PolyMatrix, rng, retries: int = 8) -> int:
    """Max rank over ``retries`` seeded-random rational points; raises
    EvaluationSingular when some denominator vanished at every sample."""
    nvars = None
    for row in m.entries:
        for x in row:
            if isinstance(x, (Poly, RatFun)):
                nvars = len(x.vars)
                break
        if nvars is not None:
            break
    if nvars is None:
        return _rational_rank([[qq(x) for x in row] for row in m.entries])
    best = None
    for _ in range(retries):
        point = [random_rational(rng) for _ in range(nvars)]
        try:
            r = numeric_rank_at(m, point)
        except EvaluationSingular:
            continue
        best = r if best is None else max(best, r)
    if best is None:
        raise EvaluationSingular("all sampled points hit a denominator zero")
    return best


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
                raise ValueError("entries must have zero constant term")
            vars = entry.vars
    xj = x.map(lambda p: Jet(p, order))
    result = power = PolyMatrix.identity(vars, x.rows).map(lambda p: Jet(p, order))
    fact = QQ1
    for k in range(1, order + 1):
        power = power * xj
        fact = fact * k
        result = result + power.map(lambda j: j * (QQ1 / fact))
    return result
