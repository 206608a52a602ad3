"""Poisson structures in coordinates: brackets, log-canonicity,
linearization at a vanishing point, log-volume forms, the degree
criterion that certifies polynomial integrable systems, and torus
Pfaffian coefficients.

Bracket-matrix entries are Polys where polynomial and RatFuns elsewhere.
A structure clears its matrix once to Poly rows over one Poly denominator,
and every bracket, field and rank runs on Polys, forming at most one RatFun
at the end.  ``PoissonStructure._field`` is the one loop over the matrix:
the fields of N and D, h = N/D, joined by the quotient rule.  The bracket
dots the cleared ``polyring.gradient`` of f with the field of g, and the
Jacobi and Casimir checks use ``hamiltonian_field``.  A linear structure
runs on its int keys: its entries are linear when every key is a unit key,
its Jacobi check reads int structure constants from its terms, and
``linear_structure`` builds one from closed-form int constants.
``bracket_poly`` is the checked Poly form of the bracket, kept as a method
of its own because the benchmark's layer tracer (``bench/layertrace.py``)
wraps it by name.  ``_cleared_jacobian`` is the one Jacobian determinant,
of the Poly ``jacobian``; it raises DependentSystem when it vanishes.

``certify`` is the single certification path: every family (Schubert
cells, the BFZ cluster, the dual group of GL(n)) and the generic
``extract_integrable_system`` hand it their selected lowest terms, and it
checks the count, involutivity under pi0 and independence, and builds the
report.  Independence is the rank of the Jacobian at up to ``samples``
seeded random points, read until it is full by fraction-free elimination:
a lower bound on the generic rank, equal to it with high probability."""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from functools import reduce
from itertools import combinations
from math import lcm

from .errors import (
    CountShortfall,
    DependentSystem,
    DimensionMismatch,
    InequalityViolated,
    NotDivisible,
    NotInvolutive,
    NotLogCanonical,
    NotPoisson,
    NotRegular,
    NotVanishing,
    ZeroInput,
)
from .polyring import (
    Poly,
    PolyMatrix,
    RatFun,
    RationalPoint,
    VarSet,
    det,
    dot,
    gradient,
    jacobian,
    lowest_term,
    num_den,
    numeric_pivots,
    numeric_rank,
    poly_gcd,
)
from .rationals import QQ0, QQ1

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 8


def _as_entry(x, vars):
    """A bracket-matrix entry: a Poly unless x is a non-polynomial RatFun."""
    if isinstance(x, RatFun):
        return x.as_poly() if x.is_polynomial() else x
    return x if isinstance(x, Poly) else Poly.const(vars, x)


def _skew(x, y) -> bool:
    """x == -y, for two Polys on their den and terms, negating neither."""
    if type(x) is Poly and type(y) is Poly:
        return x.den == y.den and x.terms == {k: -c for k, c in y.terms.items()}
    return x == -y


def _times(p, q):
    """p * q for Polys or None, which stands for 1."""
    return q if p is None else p if q is None else p * q


class PoissonStructure:
    """A variable list plus the skew matrix of brackets {v_a, v_b}; an entry
    given as a number, Poly or RatFun is stored as a Poly unless its
    denominator is not constant.  Brackets run on ``_rows``, the matrix
    times ``_den``, the lcm of the entry denominators (None for 1)."""

    def __init__(self, vars: VarSet, bracket_matrix):
        self.vars = vars
        n = len(vars)
        m = [[_as_entry(x, vars) for x in row] for row in bracket_matrix]
        if len(m) != n or any(len(row) != n for row in m):
            raise NotPoisson("bracket matrix must be square of size |vars|")
        for a in range(n):
            for b in range(a, n):
                if not _skew(m[a][b], m[b][a]):
                    raise NotPoisson("bracket matrix must be skew-symmetric")
        self.bracket_matrix = m
        self._rows, self._den = m, None
        dens = list(dict.fromkeys(x.den for row in m for x in row if isinstance(x, RatFun)))
        if dens:
            den = reduce(lambda a, d: a * d.exact_div(poly_gcd(a, d)), dens)
            cofactor = {d: den.exact_div(d) for d in dens}
            self._rows = [[x.num * cofactor[x.den] if isinstance(x, RatFun) else x * den
                           for x in row] for row in m]
            self._den = den

    @staticmethod
    def zero(vars: VarSet) -> "PoissonStructure":
        z = Poly.zero(vars)
        n = len(vars)
        return PoissonStructure(vars, [[z] * n for _ in range(n)])

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.bracket_matrix for x in row)

    # -- brackets -----------------------------------------------------------

    def _field(self, h, rows):
        """(X, C) with {v_a, h} = X[i] / C for a = rows[i] (C None for 1),
        by the quotient rule (D {v_a, N} - N {v_a, D}) / D^2, h = N/D."""
        vars, P = self.vars, self._rows
        num, den = num_den(h)
        dn = gradient(num, vars)[0]
        if den is None:
            return [dot(vars, zip(P[a], dn)) for a in rows], self._den
        dd = gradient(den, vars)[0]
        neg = -num
        return [dot(vars, ((den, dot(vars, zip(P[a], dn))), (neg, dot(vars, zip(P[a], dd)))))
                for a in rows], _times(den * den, self._den)

    def _bracket_parts(self, f, g):
        """(B, C) with {f, g} = B / C (C None for 1): the cleared gradient
        of f dotted with the field of g on the rows where it is nonzero."""
        grad, cf = gradient(f, self.vars)
        rows = [a for a, x in enumerate(grad) if x]
        field, cg = self._field(g, rows)
        return dot(self.vars, zip((grad[a] for a in rows), field)), _times(cf, cg)

    def hamiltonian_field(self, h) -> list:
        """[{v_a, h} for each variable v_a]: Polys when neither h nor the
        matrix has a denominator, else RatFuns."""
        field, den = self._field(h, range(len(self.vars)))
        return field if den is None else [RatFun(x, den) for x in field]

    def bracket(self, f, g) -> Poly | RatFun:
        """{f, g} = sum_a df/dv_a {v_a, g} for Polys or RatFuns f, g: a Poly
        when f, g and the entries are Polys, else one RatFun."""
        num, den = self._bracket_parts(f, g)
        if den is None and type(f) is Poly and type(g) is Poly:
            return num
        return RatFun(num, den)

    def bracket_poly(self, f, g) -> Poly:
        """The bracket as a Poly; raises NotDivisible when it is not
        polynomial."""
        br = self.bracket(f, g)
        return br if isinstance(br, Poly) else br.as_poly()

    # -- verification --------------------------------------------------------

    def check_jacobi(self) -> None:
        """The Jacobi identity in Schouten form: with F[b, c] the Hamiltonian
        field of the entry P_bc, {v_a, {v_b, v_c}} + cyclic =
        F[b, c][a] - F[a, c][b] + F[a, b][c] must vanish for every a < b < c.
        Raises NotPoisson naming the first triple where it does not."""
        n = len(self.vars)
        P = self.bracket_matrix
        F = {(b, c): self.hamiltonian_field(P[b][c])
             for b in range(n) for c in range(b + 1, n)}
        for a, b, c in combinations(range(n), 3):
            if not (F[b, c][a] - F[a, c][b] + F[a, b][c]).is_zero():
                raise NotPoisson(f"Jacobi identity fails on ({a}, {b}, {c})")


class LinearPoissonStructure(PoissonStructure):
    """Poisson structure whose bracket matrix has homogeneous degree-1
    polynomial entries (equivalently, the structure constants of a Lie
    algebra on the dual space).  The constructor checks only that the
    entries are linear (every key a unit key): ``linearize`` checks the
    Jacobi identity of the structure it derives, on its structure
    constants, and tests check the closed-form structures."""

    def __init__(self, vars: VarSet, bracket_matrix):
        super().__init__(vars, bracket_matrix)
        units = set(vars.pk.unit)
        for row in self.bracket_matrix:
            for x in row:
                if isinstance(x, RatFun):
                    raise NotPoisson("linear structure entries must be polynomial")
                if not units.issuperset(x.terms):
                    raise NotPoisson("linear structure entries must be linear")

    def check_jacobi(self) -> None:
        """The Schouten form on int structure constants over one common
        denominator, read from the terms (unit key -> variable): with
        P_ab = sum_d C_ab^d v_d, {v_a, P_bc} + cyclic has the v_e
        coefficient sum_d C_bc^d C_ad^e + C_ca^d C_bd^e + C_ab^d C_cd^e,
        so NotPoisson names the same first failing triple."""
        P = self.bracket_matrix
        den = lcm(*[x.den for row in P for x in row])
        index = {u: i for i, u in enumerate(self.vars.pk.unit)}
        C = [[{index[k]: c * (den // x.den) for k, c in x.terms.items()}
              for x in row] for row in P]
        for a, b, c in combinations(range(len(self.vars)), 3):
            coeff = {}
            for s, t, u in ((b, c, a), (c, a, b), (a, b, c)):
                for d, x in C[s][t].items():
                    for e, y in C[u][d].items():
                        coeff[e] = coeff.get(e, 0) + x * y
            if any(coeff.values()):
                raise NotPoisson(f"Jacobi identity fails on ({a}, {b}, {c})")


def linear_structure(vars: VarSet, constants, den: int) -> LinearPoissonStructure:
    """The linear structure {v_a, v_b} = sum c v_d / den over the pairs
    (d, c) of a variable index and an int in ``constants[a][b]`` (a repeated
    d adds), each entry built on the unit keys; zero entries share one Poly."""
    unit, zero = vars.pk.unit, Poly.zero(vars)

    def entry(pairs):
        terms = {}
        for d, c in pairs:
            terms[unit[d]] = terms.get(unit[d], 0) + c
        terms = {k: c for k, c in terms.items() if c}
        return Poly._trusted(vars, terms, den) if terms else zero

    return LinearPoissonStructure(vars, [[entry(p) for p in row] for row in constants])


def is_log_canonical(pi: PoissonStructure, f, g):
    """Return lambda with {f, g} = lambda*f*g (exactly, possibly 0), else None,
    for Polys or RatFuns f, g."""
    if f.is_zero() or g.is_zero():
        raise ZeroInput("log-canonical test requires nonzero functions")
    br, c = pi._bracket_parts(f, g)
    if br.is_zero():
        return QQ0
    (nf, df), (ng, dg) = num_den(f), num_den(g)
    # br/c = lam*(nf*ng)/(df*dg) iff br*df*dg = lam*c*nf*ng, lam the ratio
    # of leading coefficients
    num, den = _times(br, _times(df, dg)), _times(c, nf * ng)
    lam = num.leading()[1] / den.leading()[1]
    return lam if num == den * lam else None


def linearize(pi: PoissonStructure, at=None) -> LinearPoissonStructure:
    """Linearization at a point where every bracket vanishes: translate the
    point to the origin and keep the degree-1 part of each entry.  Raises
    NotPoisson when the result fails the Jacobi identity."""
    n = len(pi.vars)
    point = RationalPoint([0] * n if at is None else at, pi.vars)
    out = []
    for a in range(n):
        row = []
        for b in range(n):
            num, den = num_den(pi.bracket_matrix[a][b])
            den0 = 1 if den is None else den.evaluate(point)
            if den0 == 0:
                raise NotRegular(f"entry ({a},{b}) has a pole at the base point")
            if num.evaluate(point) != 0:
                raise NotVanishing(f"entry ({a},{b}) nonzero at the base point")
            lin = num.shift(point).homogeneous_component(1)
            # (num/den)^(1) = num^(1)/den(0) since num(0) = 0
            row.append(lin if den0 == 1 else lin * (QQ1 / den0))
        out.append(row)
    pi0 = LinearPoissonStructure(pi.vars, out)
    pi0.check_jacobi()
    return pi0


def generic_rank(pi: PoissonStructure) -> int:
    """Max rank of the bracket matrix over seeded random rational points; a
    probabilistic lower bound that equals the true rank with overwhelming
    probability (acceptance tests cross-check closed forms)."""
    if pi.is_zero():
        return 0
    r = numeric_rank(PolyMatrix(pi._rows), random.Random(DEFAULT_SEED),
                     retries=DEFAULT_SAMPLES)
    assert r % 2 == 0, "skew matrix evaluated to odd rank"
    return r


@dataclass
class LogCanonicalSystem:
    """n independent functions with pairwise log-canonical brackets."""

    vars: VarSet
    functions: list
    lam: list  # lam[i][j] with {f_i, f_j} = lam_ij f_i f_j

    @staticmethod
    def build(pi: PoissonStructure, functions) -> "LogCanonicalSystem":
        fs = list(functions)
        if len(fs) != len(pi.vars):
            raise DimensionMismatch(
                f"{len(fs)} functions for {len(pi.vars)} variables")
        n = len(fs)
        lam = [[QQ0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                val = is_log_canonical(pi, fs[i], fs[j])
                if val is None:
                    raise NotLogCanonical(f"pair ({i + 1}, {j + 1}) is not log-canonical")
                lam[i][j] = val
                lam[j][i] = -val
        return LogCanonicalSystem(pi.vars, fs, lam)


@dataclass
class LogVolumeForm:
    """d(log f_1) ^ ... ^ d(log f_n), stored as its single coefficient with
    respect to dv_1 ^ ... ^ dv_n."""

    coefficient: RatFun

    def low_degree(self) -> int:
        """Degree of the lowest term of the form (coefficient degree + n)."""
        _, d = lowest_term(self.coefficient)
        return d + len(self.coefficient.vars)


def _cleared_jacobian(functions, vars: VarSet):
    """(det M, the parts N_i and non-unit D_i of f_i = N_i/D_i), M the Poly
    ``jacobian``, so mu = det(M) / prod(N_i D_i).  Raises DependentSystem
    when det(M) vanishes identically."""
    d = det(jacobian(functions, vars))
    if d.is_zero():
        raise DependentSystem("Jacobian determinant vanishes identically")
    return d, [p for f in functions for p in num_den(f) if p is not None]


def log_volume(functions, vars: VarSet) -> LogVolumeForm:
    """mu = det(M) / prod(N_i D_i) (``_cleared_jacobian``): each factor,
    those of most terms first, divides the numerator exactly or joins the
    denominator, and one reduced RatFun is formed at the end."""
    num, factors = _cleared_jacobian(functions, vars)
    den = Poly.const(vars, 1)
    for p in sorted(factors, key=lambda p: -len(p.terms)):
        try:
            num = num.exact_div(p)
        except NotDivisible:
            den = den * p
    return LogVolumeForm(RatFun(num, den))


def pfaffian_coefficient(sys: LogCanonicalSystem) -> RatFun:
    """prod(f_i)/det(Jacobian): the coefficient of the torus Pfaffian with
    respect to d/dv_1 ^ ... ^ d/dv_n, up to a nonzero constant; the
    reciprocal of the log-volume coefficient."""
    return 1 / log_volume(sys.functions, sys.vars).coefficient


@dataclass
class PropertyIReport:
    deg_mu_low: int
    half_rank: int
    holds: bool


def property_I_check(
    sys: LogCanonicalSystem,
    pi: PoissonStructure,
    pi0: LinearPoissonStructure = None,
) -> PropertyIReport:
    """deg(mu^low) versus rk(pi0)/2; the inequality deg >= rk/2 must hold for
    every log-canonical system, so its failure raises."""
    # lowest degrees add over the products and quotient of det(M) / prod(N_i D_i)
    d, factors = _cleared_jacobian(sys.functions, sys.vars)
    deg_mu_low = d.min_degree() + len(sys.vars) - sum(p.min_degree() for p in factors)
    if pi0 is None:
        pi0 = linearize(pi)
    half = generic_rank(pi0) // 2
    if deg_mu_low < half:
        raise InequalityViolated(
            f"deg(mu^low) = {deg_mu_low} < rk(pi0)/2 = {half}"
        )
    return PropertyIReport(deg_mu_low, half, deg_mu_low == half)


@dataclass
class IntegrableSystemReport:
    """Certified output of an integrable-system construction."""

    variables: list
    functions: list  # canonical strings
    involutive: bool
    independent_count: int
    magic_number: int
    seed: int
    construction: str
    selected_indices: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def involutivity_certificate(pi0: PoissonStructure, functions) -> bool:
    """Fully symbolic: every pairwise bracket, the cleared gradient of one
    function dotted with the field of the other, each computed once, is 0."""
    vars, rows = pi0.vars, range(len(pi0.vars))
    parts = [(gradient(f, vars)[0], pi0._field(f, rows)[0]) for f in functions]
    return all(dot(vars, zip(f[0], g[1])).is_zero() for f, g in combinations(parts, 2))


def certify(
    lows,
    pi0: PoissonStructure,
    vars: VarSet,
    expected: int,
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
    construction: str = "lowest-terms",
    labels=(),
    commuting=None,
) -> IntegrableSystemReport:
    """Certify the selected lowest terms as a polynomial integrable system
    of ``expected`` functions: exactly that many are selected, they are in
    involution under pi0 (checked over ``commuting``, a larger pool that
    contains them, when given), and their Jacobian reaches rank
    ``expected`` at one of up to ``samples`` seeded random points, read
    until the rank is full.  That rank is a lower bound on the generic
    rank.  Raises CountShortfall or NotInvolutive instead of reporting a
    failure."""
    if len(lows) != expected:
        raise CountShortfall(f"selected {len(lows)} functions, expected {expected}")
    if not involutivity_certificate(pi0, lows if commuting is None else commuting):
        raise NotInvolutive("lowest terms are not in involution under pi0")
    rank = numeric_rank(jacobian(lows, vars), random.Random(seed), retries=samples)
    if rank != expected:
        raise CountShortfall(f"independent count {rank} below {expected}")
    return IntegrableSystemReport(
        variables=list(vars.names),
        functions=[str(f) for f in lows],
        involutive=True,
        independent_count=rank,
        magic_number=expected,
        seed=seed,
        construction=construction,
        selected_indices=list(labels),
    )


def extract_integrable_system(
    sys: LogCanonicalSystem, pi0: LinearPoissonStructure
) -> IntegrableSystemReport:
    """Lowest terms of a log-canonical system, certified involutive under
    pi0, with the pivot columns of their Jacobian at seeded random points
    (each independent of the lowest terms before it) as the selected
    subset of the magic-number size."""
    n = len(sys.vars)
    lows = [lowest_term(f)[0] for f in sys.functions]
    magic = n - generic_rank(pi0) // 2
    kept = numeric_pivots(jacobian(lows, sys.vars), random.Random(DEFAULT_SEED),
                          DEFAULT_SAMPLES)
    return certify([lows[i] for i in kept], pi0, sys.vars, magic, labels=kept,
                   commuting=lows)
