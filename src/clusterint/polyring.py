"""Exact sparse multivariate polynomial and rational-function arithmetic.

There is no floating point anywhere.  A Poly stores its rational
coefficients as nonzero int numerators ``terms`` over one int denominator
``den`` >= 1 with ``gcd(den, *terms.values()) == 1``; the pair is unique, so
equality and hashing are exact.  The keys of ``terms`` are packed monomials
(Monagan and Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007), ints of the one ``_Packing`` layout
of the VarSet's length: int order is graded-lex order, and a monomial
product is one int addition.  Exponent tuples are made or read only at the
edges (``Poly(vars, terms)``, which takes rational coefficients,
``sorted_terms``, ``evaluate``, ``gradient``, the gcd helpers, ...).  The
kernel loops run on ints (Monagan and Pearce, "Sparse polynomial
multiplication and division in Maple 14", 2010): one accumulate loop,
``_mul_terms``, serves Poly products, Poly sums (a factor of 1), ``dot``,
which adds products into one dict and is each entry of a matrix product,
every minor of the minors table and each Horner step of ``truncated_exp``.
A key sum never carries from field to field, so only a result is checked:
SizeOutOfRange is raised exactly when it holds an exponent >= 2^15.  A
truncation is a Poly and a degree cap, not a type of its own: ``dot``,
``minors`` and ``det`` take a ``cap`` and keep only the terms of total
degree <= cap (each term of one factor meets only the terms of the other
that keep the product within it), ``truncated_exp`` cuts each product at
its order, and ``lowest_term`` with an ``order`` reads the lowest term of
a function known through that order.  Division runs on the primitive
integer part of the divisor, with the remainder in one dict and its leading
terms taken from a heap of keys (Johnson 1974; Monagan and Pearce, "Sparse
polynomial division using a heap", JSC 2011).
A gcd tries the smaller operand as a divisor, then the heuristic integer
gcd GCDHEU, then a primitive remainder sequence.  The minors of a matrix
come from one memoized table (``minors``), a Laplace expansion along first
rows keyed by row and column bit masks, so that every minor read from it
reuses the sub-minors met before, capped or not.  It is the one
determinant algorithm: ``det`` is the full minor of a fresh table,
``adjugate`` reads the cofactors and the determinant from one, and
``inverse`` is the adjugate of a Poly matrix over its constant determinant.
None takes a RatFun entry, nor does ``numeric_pivots`` (``generic_rank``),
which reads each entry at a point as ints, as ``evaluate`` does.  Jacobian
ranks go through ``jacobian_pivots``, which reads the Jacobian of Polys
and RatFuns from its terms' values at a point with no zero coordinate.
The canonical text (``str``, read back by ``parse_poly``) lists terms in
descending graded-lex order, e.g. ``z1*z4 - z2``.
"""

from __future__ import annotations

import operator
import re
import struct
from bisect import bisect_left
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import factorial, gcd, isqrt, lcm, prod

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
    SizeOutOfRange,
    TruncationInsufficient,
    ZeroInput,
)
from .rationals import QQ, QQ0, QQ1, qq, qq_str, random_rational

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# a factor of a term: a variable with an optional power, or a rational number
_FACTOR_RE = re.compile(
    rf"({_NAME_RE.pattern})(?:\^([0-9]+))?|([0-9]+(?:/[0-9]*[1-9][0-9]*)?)")

# every exponent stays below this: the top bit of each 16-bit field is free
_LIMIT = 1 << 15


class VarSet:
    """An ordered list of distinct variable names, fixed for the lifetime
    of every object built over it, and the ``_Packing`` of its monomials."""

    __slots__ = ("names", "index", "pk")

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
        self.pk = _Packing(len(names))

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, VarSet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarSet{self.names}"


class _Packing:
    """The one monomial layout of ``n`` variables: exponents e as the int
    ``sum(e) << shift | fields`` (masked by ``low``), a 16-bit field a
    variable, the first the most significant; ``unit[i]`` is variable i.
    Exponents stay below 2^15, so the top bit of each field (``guard``) is
    free: a sum of two keys never carries from field to field, and a key
    with a guard bit set holds an exponent out of range."""

    __slots__ = ("shift", "low", "guard", "unit", "_fields")

    def __init__(self, n):
        self.shift = 16 * n
        self.low = (1 << self.shift) - 1
        self.guard = self.low // 0xFFFF << 15
        self.unit = [1 << self.shift | 1 << 16 * (n - 1 - i) for i in range(n)]
        self._fields = struct.Struct(f">{n}H")

    def pack(self, exps) -> list:
        shift, fields = self.shift, self._fields.pack
        try:
            keys = [sum(e) << shift | int.from_bytes(fields(*e), "big") for e in exps]
        except struct.error as exc:
            raise SizeOutOfRange(f"exponents must lie in 0..{_LIMIT - 1}: {exc}") from exc
        self.check(keys)
        return keys

    def unpack(self, keys) -> list:
        low, size, fields = self.low, self.shift // 8, self._fields.unpack
        return [fields((k & low).to_bytes(size, "big")) for k in keys]

    def check(self, keys):
        """Raise SizeOutOfRange when an exponent of ``keys`` reaches 2^15."""
        if reduce(operator.or_, keys, 0) & self.guard:
            raise SizeOutOfRange(f"an exponent reaches {_LIMIT}")


def _mul_terms(pk: _Packing, a: dict, b: dict, cap=None, out=None, scale=1) -> dict:
    """Product of two dicts of integer numerators on ``pk`` keys, deleting
    terms that cancel; with ``cap``, only its terms of total degree <= cap.
    With ``out``, the products times ``scale`` are added into that dict,
    which is returned: the one loop of this module that combines term
    dicts.  With a cap, the larger factor's terms are sorted once, and each
    term of the smaller factor runs only over the prefix that keeps the
    product within the cap.  No field carries, so the callers check only
    their result for an exponent >= 2^15."""
    if len(a) > len(b):
        a, b = b, a
    shift = pk.shift
    row = b.items() if cap is None else sorted(b.items())
    if cap is not None:
        keys = [k for k, _ in row]
    if out is None:
        out = {}
    for k1, c1 in a.items():
        c1 *= scale
        for k2, c2 in (row if cap is None else
                       row[:bisect_left(keys, (cap + 1 - (k1 >> shift)) << shift)]):
            k = k1 + k2
            s = out.get(k)
            if s is None:
                out[k] = c1 * c2
            else:
                s = s + c1 * c2
                if s == 0:
                    del out[k]
                else:
                    out[k] = s
    return out


def _div_terms(pk: _Packing, f: dict, g: dict) -> dict:
    """The quotient of dicts of integer numerators f / g on ``pk`` keys, g
    nonzero; raises NotDivisible when the remainder is nonzero or a quotient
    coefficient is not an integer, which for g primitive already proves
    that g does not divide f (Gauss's lemma).

    Sparse division with a heap on the stored keys: the remainder is one
    dict, updated in place.  Each step pops its leading term, the largest
    key, from a heap of negated keys, skipping monomials that have
    cancelled, and subtracts ``q_term * (g - lt(g))``, one int addition a
    term, so a step costs O(|g| log) rather than O(|remainder|).  If g
    divides f, no remainder exponent passes f's largest in its variable, so
    a leading term with a guard bit set proves that g does not; otherwise it
    is divisible by lt(g) exactly when subtracting lt(g) with its guard bits
    set clears none of them, and no key carries.  Every monomial a step adds
    lies below the one it removes, so each quotient term is new and nonzero."""
    low, guard = pk.low, pk.guard
    lt = max(g)
    gc = g[lt]
    tail = [(k, -c) for k, c in g.items() if k != lt]
    rem = dict(f)
    heap = [-k for k in rem]
    heapify(heap)
    qterms = {}
    while heap:
        k = -heappop(heap)
        rc = rem.pop(k, None)
        if rc is None:
            continue
        if k & guard or ((k & low | guard) - lt) & guard != guard:
            raise NotDivisible("leading term not divisible")
        qc, r = divmod(rc, gc)
        if r:
            raise NotDivisible("quotient coefficient not an integer")
        qk = k - lt
        qterms[qk] = qc
        for tk, tc in tail:
            m = qk + tk
            c = rem.get(m)
            if c is None:
                rem[m] = qc * tc
                heappush(heap, -m)
            else:
                c = c + qc * tc
                if c:
                    rem[m] = c
                else:
                    del rem[m]
    return qterms


class RationalPoint:
    """A point of ``vars``, given as a list of rationals in varset order, as
    int numerators ``nums`` over one denominator ``den``; build it once to
    evaluate many functions at it.  A list of another length raises
    DimensionMismatch."""

    __slots__ = ("nums", "den")

    def __init__(self, point, vars: VarSet):
        point = [qq(v) for v in point]
        self.den = lcm(*[x.denominator for x in point])
        self.nums = [x.numerator * (self.den // x.denominator) for x in point]
        _as_point(self, vars)  # the length check


def _as_point(point, vars: VarSet) -> RationalPoint:
    """``point`` as a RationalPoint of ``vars``, checked for its length."""
    if not isinstance(point, RationalPoint):
        return RationalPoint(point, vars)
    if len(point.nums) != len(vars):
        raise DimensionMismatch(
            f"a point of {len(point.nums)} coordinates for {len(vars)} variables")
    return point


class Poly:
    """Sparse polynomial with exact rational coefficients over a VarSet,
    stored as nonzero integer numerators ``terms``, keyed by the packed
    monomials of ``vars.pk``, over one denominator ``den`` >= 1 that shares
    no factor with all of them.  ``Poly(vars, terms)`` takes a dict from
    exponent tuples to rationals."""

    __slots__ = ("vars", "terms", "den")

    def __init__(self, vars: VarSet, terms=None):
        self.vars = vars
        terms = {e: c for e, c in terms.items() if c != 0} if terms else {}
        self.den = den = lcm(*[c.denominator for c in terms.values()])
        # no prime of the lcm of reduced denominators divides every numerator
        self.terms = dict(zip(vars.pk.pack(terms),
                              [c.numerator * (den // c.denominator) for c in terms.values()]))

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
        return Poly._trusted(vars, {0: c.numerator} if c else {}, c.denominator)

    @staticmethod
    def var(vars: VarSet, name) -> "Poly":
        return Poly._trusted(vars, {vars.pk.unit[vars.index[name]]: 1})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        # the constant monomial is the one key 0
        return not any(self.terms)

    def constant_value(self):
        c = self.terms.get(0)
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
        if isinstance(other, RatFun):
            return NotImplemented
        other = self._coerce(other)
        den = lcm(self.den, other.den)
        k = den // self.den
        terms = dict(self.terms) if k == 1 else {e: c * k for e, c in self.terms.items()}
        _mul_terms(self.vars.pk, {0: 1}, other.terms, None, terms, den // other.den)
        return Poly._trusted(self.vars, terms, den)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.vars, {e: -c for e, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        if isinstance(other, RatFun):
            return NotImplemented
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, RatFun):
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
        terms = _mul_terms(self.vars.pk, self.terms, other.terms)
        self.vars.pk.check(terms)
        return Poly._trusted(self.vars, terms, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
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
        return max(self.terms) >> self.vars.pk.shift

    def min_degree(self) -> int:
        if not self.terms:
            raise ZeroInput("zero polynomial has no lowest degree term")
        return min(self.terms) >> self.vars.pk.shift

    def lowest(self) -> "Poly":
        """Homogeneous component of minimal total degree."""
        return self.homogeneous_component(self.min_degree())

    def homogeneous_component(self, d: int) -> "Poly":
        shift = self.vars.pk.shift
        return Poly._trusted(
            self.vars, {k: c for k, c in self.terms.items() if k >> shift == d}, self.den)

    def truncate(self, cap: int) -> "Poly":
        """The terms of total degree <= cap: self when that is every term."""
        top = (cap + 1) << self.vars.pk.shift
        if max(self.terms, default=0) < top:
            return self
        return Poly._trusted(
            self.vars, {k: c for k, c in self.terms.items() if k < top}, self.den)

    def degree_in(self, name) -> int:
        i = self.vars.index[name]
        if not self.terms:
            return -1
        return max(e[i] for e in self.vars.pk.unpack(self.terms))

    def coeff_of(self, name, k: int) -> "Poly":
        """Coefficient of name**k, as a Poly with that exponent stripped."""
        i, pk = self.vars.index[name], self.vars.pk
        drop = k * pk.unit[i]
        return Poly._trusted(self.vars, {key - drop: c for (key, c), e in zip(
            self.terms.items(), pk.unpack(self.terms)) if e[i] == k}, self.den)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, point):
        """Value at a RationalPoint or what it takes, by ``_scaled_terms``."""
        point = _as_point(point, self.vars)
        w, values = _scaled_terms(self, point.nums, [point.den] * len(point.nums))
        return QQ(sum(v for v, _ in values), w)

    def shift(self, point) -> "Poly":
        """Substitute v_i -> v_i + c_i (translates the base point c to 0);
        ``point`` as for ``evaluate``; the origin returns the Poly itself.
        One variable at a time, the terms are grouped by their power k of
        it, and the sum of (v + c)^k times each group is added up in one
        ``dot``."""
        point, pk = _as_point(point, self.vars), self.vars.pk
        if not any(point.nums):
            return self
        result = self
        for i, c in enumerate(point.nums):
            if c == 0:
                continue
            v_plus_c = (Poly.var(self.vars, self.vars.names[i])
                        + Poly.const(self.vars, QQ(c, point.den)))
            groups = {}
            for (key, coef), e in zip(result.terms.items(), pk.unpack(result.terms)):
                groups.setdefault(e[i], {})[key - e[i] * pk.unit[i]] = coef
            result = dot(self.vars, [(v_plus_c**k, Poly._trusted(self.vars, g, result.den))
                                     for k, g in groups.items()])
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
        for e, c in zip(self.vars.pk.unpack(self.terms), self.terms.values()):
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
        k = max(self.terms)
        return self.vars.pk.unpack([k])[0], QQ(self.terms[k], self.den)

    def exact_div(self, g: "Poly") -> "Poly":
        """Exact division; raises NotDivisible when the remainder is nonzero.
        A zero dividend, or a divisor of 1, is returned as it is: 70 of the
        210 divisors of a Schubert m=6 build are 1, and the heap division by
        them costs that build about 2.5% (in-process medians).  Otherwise,
        with g = (c / g.den) * G for G primitive over Z, the quotient is
        (g.den / (self.den * c)) * (self.terms / G), the last by
        ``_div_terms``, on ints, a constant G too."""
        if g.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if g.vars != self.vars:
            raise MixedVariables("mixed variable sets")
        if not self.terms or (g.den == 1 and g.terms == {0: 1}):
            return self
        c = gcd(*g.terms.values())
        G = g.terms if c == 1 else {e: v // c for e, v in g.terms.items()}
        q = _div_terms(self.vars.pk, self.terms, G)
        if g.den != 1:
            q = {e: v * g.den for e, v in q.items()}
        return Poly._trusted(self.vars, q, self.den * c)

    def divides(self, f: "Poly") -> bool:
        try:
            f.exact_div(self)
            return True
        except NotDivisible:
            return False

    # -- canonical text -------------------------------------------------------

    def sorted_terms(self):
        """(exponent, rational coefficient) pairs in descending graded-lex
        order."""
        keys = sorted(self.terms, reverse=True)
        return [(e, QQ(self.terms[k], self.den))
                for e, k in zip(self.vars.pk.unpack(keys), keys)]

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


def dot(vars: VarSet, pairs, cap=None) -> Poly:
    """sum p * q over Poly pairs (p, q), skipping zero factors: every
    product added into one dict over one common denominator; with ``cap``,
    only the terms of total degree <= cap, which raises BadTruncation when
    negative.  Unless the cap keeps it below 2^15, the sum is checked once:
    products out of range that cancel leave it exact, as no field carries."""
    if cap is not None and cap < 0:
        raise BadTruncation(f"a degree cap must be >= 0, got {cap}")
    pairs = [(p, q) for p, q in pairs if p.terms and q.terms]
    den = lcm(*[p.den * q.den for p, q in pairs])
    out = {}
    for p, q in pairs:
        _mul_terms(vars.pk, p.terms, q.terms, cap, out, den // (p.den * q.den))
    if cap is None or cap >= _LIMIT:
        vars.pk.check(out)
    return Poly._trusted(vars, out, den)


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
    coefficient monic in graded-lex order, so that the coefficients of a
    remainder sequence of primitive parts cannot grow in scale."""
    name = f.vars.names[i]
    polys = {k: f.coeff_of(name, k) for k in {e[i] for e in f.vars.pk.unpack(f.terms)}}
    cont = reduce(poly_gcd, polys.values())
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


def _eval_at(pk: _Packing, f: dict, i: int, xi: int) -> dict:
    """The integer term dict f with variable i set to xi."""
    out = {}
    for (key, c), e in zip(f.items(), pk.unpack(f)):
        k = e[i]
        if k:
            key -= k * pk.unit[i]
            c = c * xi**k
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _interpolate(pk: _Packing, h: dict, i: int, xi: int) -> dict:
    """The integer term dict whose coefficients of variable i are the
    symmetric xi-adic digits, in (-xi/2, xi/2], of those of h; a digit past
    the largest exponent fails the heuristic."""
    out = {}
    half = xi // 2
    for key, c in h.items():
        k = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[key + k * pk.unit[i]] = d
            c = (c - d) // xi
            k += 1
        if k > _LIMIT:
            raise _HeuristicGcdFailed(f"a digit lies past exponent {_LIMIT - 1}")
    return out


def _heu_gcd(pk: _Packing, f: dict, g: dict) -> dict:
    """gcd in Z[vars] of nonzero integer term dicts on ``pk`` keys, by
    GCDHEU (Char, Geddes and Gonnet 1989); raises _HeuristicGcdFailed.

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
    occurs = [k for k, col in enumerate(zip(*pk.unpack([*f, *g]))) if any(col)]
    if not occurs:
        return {next(iter(f)): c}
    i = occurs[-1]
    if c != 1:
        f = {e: v // c for e, v in f.items()}
        g = {e: v // c for e, v in g.items()}
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    for _ in range(_HEU_TRIES):
        ff, gg = _eval_at(pk, f, i, xi), _eval_at(pk, g, i, xi)
        if ff and gg:
            h = _int_primitive(_interpolate(pk, _heu_gcd(pk, ff, gg), i, xi))
            try:
                _div_terms(pk, f, h)
                _div_terms(pk, g, h)
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
    (mf, f), (mg, g) = _monomial_content(f), _monomial_content(g)
    mono = Poly(vars, {tuple(map(min, *vars.pk.unpack([mf, mg]))): 1})

    # after removing monomial content a monomial is constant
    if f.is_constant() or g.is_constant():
        return _normalize_gcd(mono)

    # main variable: last one occurring in both
    fe, ge = (list(zip(*vars.pk.unpack(p.terms))) for p in (f, g))
    main = next((i for i in reversed(range(len(vars))) if any(fe[i]) and any(ge[i])), None)
    if main is None:
        return _normalize_gcd(mono)

    a, b = sorted((f, g), key=lambda p: (p.total_degree(), len(p.terms)))
    if a.divides(b):
        return _normalize_gcd(a * mono)
    try:
        h = _heu_gcd(vars.pk, _int_primitive(f.terms), _int_primitive(g.terms))
    except _HeuristicGcdFailed:
        return _normalize_gcd(_prs_gcd(f, g, main) * mono)
    return _normalize_gcd(Poly._trusted(vars, h) * mono)


def _monomial_content(p: Poly):
    """(m, p / m) for m the key of the largest monomial dividing every term
    of a nonzero p."""
    m = p.vars.pk.pack([tuple(map(min, zip(*p.vars.pk.unpack(p.terms))))])[0]
    return m, Poly._trusted(p.vars, {k - m: c for k, c in p.terms.items()}, p.den)


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
    form:

    - a/b + c/d is (a*d + c)/d when b is 1 (and the mirror when d is 1);
      otherwise it is one reduced construction, of (a + c)/b when b = d
      and of (a*d + c*b)/(b*d) when not;
    - (a/b) * (c/d) by Henrici's rule (Henrici 1956; Knuth, TAOCP vol. 2,
      4.5.1), which takes gcds of operand parts only: gcd(a, d) and
      gcd(c, b) cancel, and the quotient is the product with the
      reciprocal d/c;
    - (a/b)**k = a**k / b**k, as powers of coprime polynomials are coprime.

    A RatFun has no calculus: ``gradient`` differentiates its Poly parts.
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
        if b == d:
            return RatFun(a + c, b)
        return RatFun(a * d + c * b, b * d)

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
        # the canonical form is unique
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- evaluation ---------------------------------------------------------------

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


def num_den(h):
    """(N, D) with h = N/D for a Poly or RatFun h; D is None when h has no
    denominator (a Poly, or a RatFun over 1)."""
    if isinstance(h, RatFun):
        return (h.num, None) if h.den.is_constant() else (h.num, h.den)
    return h, None


# -- lowest degree terms ---------------------------------------------------------


def lowest_term(f, order=None):
    """Lowest degree term at the origin and its degree.

    Poly -> (Poly, int); RatFun -> (RatFun, int) with the quotient of the
    numerator and denominator lowest terms (presentation independent).

    With ``order``, f is a Poly exact through total degree ``order``, as
    ``truncated_exp``, capped ``minors`` and capped ``dot`` give it: the
    exponential drops only powers X^k with k > order and terms of degree >
    order, and capped products and sums of Polys exact through the order
    stay exact through it (a product of two factors exact through C, with
    lowest terms of degree >= e, is exact through C + e).  So a term of f of
    degree d <= order is the function's own lowest term; when f has none,
    the lowest term lies above the order and TruncationInsufficient is
    raised.
    """
    if isinstance(f, Poly):
        if order is not None and (f.is_zero() or f.min_degree() > order):
            raise TruncationInsufficient(f"no term through jet order {order}")
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
    """A Poly cut at total degree ``order``, and the capped product of two
    of one order, one ``dot``.  No module of the package builds one: a
    truncation is a Poly and a cap argument.  The class stays only because
    the benchmark's layer tracer (``bench/layertrace.py``) reads ``Jet`` and
    wraps its ``__mul__`` by name."""

    __slots__ = ("poly", "order")

    def __init__(self, poly: Poly, order: int):
        self.order = order
        self.poly = poly.truncate(order)

    def __mul__(self, other: "Jet") -> "Jet":
        if other.order != self.order:
            raise BadTruncation("jet orders differ")
        if other.poly.vars != self.poly.vars:
            raise MixedVariables("mixed variable sets")
        return Jet(dot(self.poly.vars, [(self.poly, other.poly)], self.order), self.order)


# -- matrices -------------------------------------------------------------------


def _refuse_other_entries(rows, kinds, what):
    """Raise TypeError naming each type in ``rows`` that is not in ``kinds``."""
    other = {type(x) for row in rows for x in row} - set(kinds)
    if other:
        raise TypeError(f"{what} take {' or '.join(t.__name__ for t in kinds)} entries, not "
                        + ", ".join(sorted(t.__name__ for t in other)))


class PolyMatrix:
    """A rectangular grid of ring elements over one VarSet: Polys for
    products, for ``minors`` and what is read from them (``det``,
    ``adjugate``, ``inverse``) and for ``numeric_pivots``."""

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
        """The product of two Poly matrices, each entry one ``dot``; any
        other entry raises TypeError."""
        if self.cols != other.rows:
            raise DimensionMismatch("shape mismatch")
        entries = [x for m in (self, other) for row in m.entries for x in row]
        _refuse_other_entries([entries], (Poly,), "matrix products")
        vars = entries[0].vars if entries else None
        if any(x.vars is not vars and x.vars != vars for x in entries):
            raise MixedVariables("mixed variable sets")
        cols = list(zip(*other.entries))
        return PolyMatrix([[dot(vars, zip(row, col)) for col in cols] for row in self.entries])

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


def _packed_minor(rows, rmask, cmask, memo, cap, pk, check):
    """Determinant of ``rows`` (entries as dicts of integer numerators on
    ``pk`` keys) on the rows of the bit set ``rmask`` and the columns of
    ``cmask``, as such a dict, by Laplace expansion along its first row:
    each product of an entry and its sub-minor is one ``_mul_terms`` into
    the minor's dict, cut at ``cap``.  ``memo`` holds each minor by (row
    mask, column mask), and {0: 1} at (0, 0).  With ``check``, each minor
    is checked (``_Packing.check``) before a product reads it."""
    key = (rmask, cmask)
    out = memo.get(key)
    if out is not None:
        return out
    first = rmask & -rmask
    row, rest_rows = rows[first.bit_length() - 1], rmask ^ first
    out, sign, rest_cols = {}, 1, cmask
    while rest_cols:
        bit = rest_cols & -rest_cols
        rest_cols ^= bit
        entry = row[bit.bit_length() - 1]
        if entry:
            sub = _packed_minor(rows, rest_rows, cmask ^ bit, memo, cap, pk, check)
            _mul_terms(pk, entry, sub, cap, out, sign)
        sign = -sign
    if check:
        pk.check(out)
    memo[key] = out
    return out


def minors(m: PolyMatrix, cap=None):
    """The minors of ``m``, a matrix of Polys, as a function of (rows,
    cols), two collections of 0-based indices of one size, each read in
    increasing order (the empty minor is 1), all from one table of minors
    on the stored keys (``_packed_minor``).  With ``cap``, each product of
    the table, a 1 x 1 minor's (its entry times 1) too, keeps its terms of
    total degree <= cap; a negative cap raises BadTruncation.  A RatFun
    entry raises NotDivisible (a RatFun Jacobian is cleared to Polys by its
    caller), and any other entry TypeError.  Each row is cleared to
    the lcm of its denominators.  No minor has a degree above the sum over
    the rows of their top degrees, so the exponents of the minors are
    checked only when that sum, and the cap, reach an exponent's range."""
    if not m.cols:
        raise NonSquare(f"{m.rows}x{m.cols} minor")
    if cap is not None and cap < 0:
        raise BadTruncation(f"a degree cap must be >= 0, got {cap}")
    if any(isinstance(x, RatFun) for row in m.entries for x in row):
        raise NotDivisible("minors take Poly entries, not RatFuns")
    _refuse_other_entries(m.entries, (Poly,), "minors")
    vars = m.entries[0][0].vars
    if any(p.vars is not vars and p.vars != vars for row in m.entries for p in row):
        raise MixedVariables("mixed variable sets")
    pk = vars.pk
    check = (cap is None or cap >= _LIMIT) and sum(
        max(max(p.terms, default=0) for p in row) >> pk.shift for row in m.entries) >= _LIMIT
    dens = [lcm(*(p.den for p in row)) for row in m.entries]
    rows = [[{k: c * (d // p.den) for k, c in p.terms.items()} for p in row]
            for row, d in zip(m.entries, dens)]
    memo = {(0, 0): {0: 1}}

    def minor(rs, cs):
        if len(rs) != len(cs):
            raise NonSquare(f"{len(rs)}x{len(cs)} minor")
        terms = _packed_minor(rows, sum(1 << i for i in rs), sum(1 << j for j in cs),
                              memo, cap, pk, check)
        # a Poly takes over its dict, and the table's is shared
        return Poly._trusted(vars, dict(terms), prod(dens[i] for i in rs))

    return minor


def det(m: PolyMatrix, cap=None):
    """Exact determinant of a Poly matrix, or with ``cap`` its terms of total
    degree <= cap: the full minor of a fresh ``minors`` table of its rows
    sorted by ascending term count, which expands the sparsest rows first,
    times the sign of that permutation."""
    if not m.is_square():
        raise NonSquare(f"{m.rows}x{m.cols} matrix")
    order = sorted(range(m.rows), key=lambda i: sum(
        len(getattr(x, "terms", ())) for x in m.entries[i]))
    d = minors(PolyMatrix([m.entries[i] for i in order]), cap)(range(m.rows), range(m.cols))
    return -d if prod(-1 for i, j in combinations(order, 2) if i > j) < 0 else d


def adjugate(m: PolyMatrix):
    """(adj(m), det(m)) of a square Poly matrix, all read from one
    ``minors`` table: adj(m)[i][j] is (-1)^(i+j) times the minor of m
    without row j and column i."""
    if not m.is_square():
        raise NonSquare(f"{m.rows}x{m.cols} matrix")
    n, table = m.rows, minors(m)

    def cofactor(i, j):
        c = table([t for t in range(n) if t != j], [t for t in range(n) if t != i])
        return -c if (i + j) % 2 else c

    return (PolyMatrix([[cofactor(i, j) for j in range(n)] for i in range(n)]),
            table(range(n), range(n)))


def inverse(m: PolyMatrix) -> PolyMatrix:
    """Inverse of a square Poly matrix of constant determinant, its
    adjugate over the determinant (``adjugate``); raises SingularLocus when
    the determinant is zero and NotDivisible when it is not a constant."""
    adj, d = adjugate(m)
    if d.is_zero():
        raise SingularLocus("matrix is singular")
    if not d.is_constant():
        raise NotDivisible("the inverse is not polynomial")
    inv = QQ1 / d.constant_value()
    return adj.map(lambda p: p * inv)


def _gradient_terms(h, vars: VarSet):
    """(G, q, D), grad h = G / (q D^2) for a Poly or RatFun h = N/D: G = D
    grad N - N grad D as int dicts, one a variable, q an int, D None for 1.
    The one derivative: one pass over the terms of each part."""
    (num, den), pk = num_den(h), vars.pk
    if num.vars is not vars and num.vars != vars:
        raise MixedVariables("mixed variable sets")

    def partials(p):
        out, unit = [{} for _ in vars.names], pk.unit
        for (key, c), e in zip(p.terms.items(), pk.unpack(p.terms)):
            for i, k in enumerate(e):
                if k:
                    out[i][key - unit[i]] = c * k
        return out

    grad = partials(num)
    if den is not None:
        grad = [_mul_terms(pk, num.terms, y, None, _mul_terms(pk, den.terms, x), -1)
                for x, y in zip(grad, partials(den))]
        pk.check([k for t in grad for k in t])
    return grad, num.den * (1 if den is None else den.den), den


def gradient(h, vars: VarSet):
    """(G, C) with grad h = G / C: ``_gradient_terms`` read into Polys (the
    zero partials one shared Poly), and C = D^2, or None for a Poly or a
    RatFun over 1."""
    (grad, q, den), zero = _gradient_terms(h, vars), Poly.zero(vars)
    return [Poly._trusted(vars, t, q) if t else zero for t in grad], den and den * den


def jacobian(fs, vars: VarSet) -> PolyMatrix:
    """Rows indexed by the variables, column i the ``gradient`` numerator
    D_i^2 d f_i / d v_a of f_i = N_i/D_i (D_i = 1 for a Poly): the rank is
    the Jacobian's, and the determinant is scaled by prod D_i^2.  Its callers
    are ``bfz.modified_mu_low_degree`` and the tests."""
    cols = [gradient(f, vars)[0] for f in fs]
    return PolyMatrix([[col[a] for col in cols] for a in range(len(vars))])


def _int_pivots(m) -> list:
    """Pivot columns, in increasing order, of a dense int matrix (which it
    overwrites): each is independent of the columns before it, and their
    number is the rank.  Bareiss's fraction-free elimination (Math. Comp.
    22, 1968) pivots on the first row at or below the rank with a nonzero
    entry in the column; its entries are Gaussian elimination's times
    nonzero minors, so the pivots are the same."""
    nr, nc = len(m), len(m[0]) if m else 0
    pivots, prev = [], 1
    for col in range(nc):
        rank = len(pivots)
        piv = next((i for i in range(rank, nr) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top, pv = m[rank], m[rank][col]
        for i in range(rank + 1, nr):
            c = m[i][col]
            if c:
                m[i] = [(pv * a - c * b) // prev for a, b in zip(m[i], top)]
            elif pv != prev:
                m[i] = [pv * a // prev for a in m[i]]
        prev = pv
        pivots.append(col)
        if len(pivots) == nr:
            break
    return pivots


def _scaled_terms(p: Poly, nums, dens) -> tuple:
    """(w, [(v, e)]) with p = sum v / w at x_i = nums[i] / dens[i]: w is
    den prod dens[i]^D_i, D_i the top exponent of variable i in p, and v
    is c prod nums[i]^e_i dens[i]^(D_i - e_i) for each term c x^e."""
    exps = p.vars.pk.unpack(p.terms)
    D = [(i, d) for i, d in enumerate(map(max, zip(*exps))) if d]
    return p.den * prod(dens[i] ** d for i, d in D), [
        (c * prod(nums[i] ** e[i] * dens[i] ** (d - e[i]) for i, d in D), e)
        for c, e in zip(p.terms.values(), exps)]


def _sampled_pivots(nvars: int, full: int, rng, retries: int, rows_at) -> list:
    """``_int_pivots`` of the int rows ``rows_at(nums, dens)`` at the first
    of up to ``retries`` seeded-random rational points nums[i] / dens[i]
    that reaches the highest rank seen; sampling stops at rank ``full``."""
    best = []
    for _ in range(retries if full else 0):
        xs = [random_rational(rng) for _ in range(nvars)]
        pivots = _int_pivots(rows_at([x.numerator for x in xs], [x.denominator for x in xs]))
        best = max(best, pivots, key=len)  # the first of the highest rank
        if len(best) == full:
            break
    return best


def numeric_pivots(m: PolyMatrix, rng, retries: int = 8) -> list:
    """Pivot columns of a Poly matrix m at seeded-random points (full at
    rank min(rows, cols)), each entry read as ints, each row cleared over
    one int: a lower bound on the generic rank, equal with high
    probability, for ``generic_rank``.  Non-Poly entries raise TypeError."""
    _refuse_other_entries(m.entries, (Poly,), "numeric pivots")
    full = min(m.rows, m.cols)

    def rows_at(nums, dens):
        values = [[_scaled_terms(p, nums, dens) for p in row] for row in m.entries]
        return [[sum(v for v, _ in t) * (L // w) for w, t in row]
                for row in values for L in [lcm(*[w for w, _ in row])]]

    return _sampled_pivots(len(m.entries[0][0].vars) if full else 0, full, rng, retries, rows_at)


def numeric_rank(m: PolyMatrix, rng, retries: int = 8) -> int:
    """``len(numeric_pivots(m, rng, retries))``, kept because the
    benchmark's layer tracer (``bench/layertrace.py``) wraps it by name."""
    return len(numeric_pivots(m, rng, retries))


def jacobian_pivots(fs, vars: VarSet, rng, retries: int = 8) -> list:
    """The draws and pivots of ``numeric_pivots`` on ``jacobian(fs, vars)``,
    read from each term's value v at a point (``_scaled_terms``), whose
    coordinates are nonzero (``random_rational``): row a is scaled by x_a,
    so x_a d(t)/dx_a = e_a t adds e_a v.  The column of N/D is D dN - N dD
    over one int; nonzero row and column scales keep the pivot columns."""
    parts, n = [num_den(f) for f in fs], len(vars)
    if any(num.vars is not vars and num.vars != vars for num, _ in parts):
        raise MixedVariables("mixed variable sets")

    def values(p, nums, dens):
        value, row = 0, [0] * n
        for v, e in _scaled_terms(p, nums, dens)[1]:
            value += v
            for i, k in enumerate(e):
                if k:
                    row[i] += k * v
        return value, row

    def rows_at(nums, dens):
        cols = []
        for num, den in parts:
            v, dn = values(num, nums, dens)
            if den is not None:
                w, dd = values(den, nums, dens)
                dn = [w * x - v * y for x, y in zip(dn, dd)]
            cols.append(dn)
        return [list(row) for row in zip(*cols)]

    return _sampled_pivots(n, min(n, len(parts)), rng, retries, rows_at)


def truncated_exp(x: PolyMatrix, order: int) -> PolyMatrix:
    """Matrix exponential sum_{k<=order} x^k/k! of a Poly matrix, exact
    through total degree ``order``, as Polys cut at the order; entries of x
    must vanish at the origin.  Horner form on ints: with x = X/d over one
    denominator, the sum is M_0 / a_0, where M_(order+1) = 0, M_k = a_k I +
    X M_(k+1) and a_k = order!/k! * d^(order-k).  Each entry of X M_(k+1) is
    one ``_mul_terms`` dict cut at the order: every later step multiplies by
    X, which vanishes at the origin, so no cut term comes back within it."""
    if order < 1:
        raise BadTruncation("jet order must be >= 1")
    if not x.is_square():
        raise NonSquare("exponential of a non-square matrix")
    _refuse_other_entries(x.entries, (Poly,), "exponentials")
    if not x.rows:
        return PolyMatrix([])
    vars, n, d = x[0, 0].vars, x.rows, 1
    for row in x.entries:
        for p in row:
            if 0 in p.terms:
                raise NotVanishing("entries must have zero constant term")
            if p.vars is not vars and p.vars != vars:
                raise MixedVariables("mixed variable sets")
            d = lcm(d, p.den)
    M = [[{}] * n] * n  # M_(order+1) = 0, whose dicts are only read
    for k in range(order, -1, -1):
        ak = factorial(order) // factorial(k) * d ** (order - k)
        step = [[{0: ak} if i == j else {} for j in range(n)] for i in range(n)]
        for row, out in zip(x.entries, step):
            for p, m_row in zip(row, M):
                for m, o in zip(m_row, out):
                    if p.terms and m:
                        _mul_terms(vars.pk, p.terms, m, order, o, d // p.den)
        M = step
        if order >= _LIMIT:
            vars.pk.check([key for row in M for m in row for key in m])
    return PolyMatrix([[Poly._trusted(vars, m, ak) for m in row] for row in M])
