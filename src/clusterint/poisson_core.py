"""Poisson structures in coordinates: brackets, log-canonicity,
linearization at a vanishing point, log-volume forms, the degree
criterion that certifies polynomial integrable systems, and torus
Pfaffian coefficients.

Bracket-matrix entries are Polys where polynomial and RatFuns elsewhere.
A structure clears its matrix once to Poly rows over one Poly denominator;
``PoissonStructure._field`` is the one loop over them (the fields of N
and D, h = N/D, by the quotient rule), and the bracket dots the cleared
``polyring.gradient`` of f with the field of g.  A linear structure also
carries one table of int structure constants, built from closed-form
constants (``linear_structure``, which ``linearize`` calls) or read from
linear Polys; its Jacobi check and ``involutivity_certificate`` run on it
through ``polyring._mul_terms``, with no Poly arithmetic.  ``bracket_poly``
stays a method because the benchmark's layer tracer
(``bench/layertrace.py``) wraps it by name.  ``_cleared_jacobian`` is the
one Jacobian determinant.

``certify`` is the single certification path: every family (Schubert
cells, the BFZ cluster, the dual group of GL(n)) and the generic
``extract_integrable_system`` hand it their selected lowest terms, and it
checks the count, involutivity under pi0 and independence: the rank of
the Jacobian, its entries read as ints at up to ``samples`` seeded random
points until the rank is full, a lower bound on the generic rank, equal
to it with high probability."""

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
    _gradient_terms,
    _mul_terms,
    det,
    dot,
    gradient,
    jacobian,
    jacobian_pivots,
    lowest_term,
    num_den,
    numeric_rank,
    poly_gcd,
)
from .rationals import QQ0

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
        self.vars, n = vars, len(vars)
        m = [[_as_entry(x, vars) for x in row] for row in bracket_matrix]
        if len(m) != n or any(len(row) != n for row in m):
            raise NotPoisson("bracket matrix must be square of size |vars|")
        if not all(_skew(m[a][b], m[b][a]) for a in range(n) for b in range(a, n)):
            raise NotPoisson("bracket matrix must be skew-symmetric")
        self.bracket_matrix, self._rows, self._den = m, m, None
        dens = list(dict.fromkeys(x.den for row in m for x in row if isinstance(x, RatFun)))
        if dens:
            den = reduce(lambda a, d: a * d.exact_div(poly_gcd(a, d)), dens)
            cofactor = {d: den.exact_div(d) for d in dens}
            self._rows = [[x.num * cofactor[x.den] if isinstance(x, RatFun) else x * den
                           for x in row] for row in m]
            self._den = den

    @staticmethod
    def zero(vars: VarSet) -> "PoissonStructure":
        return PoissonStructure(vars, [[0] * len(vars) for _ in vars.names])

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
    """Poisson structure with homogeneous degree-1 polynomial entries (a Lie
    algebra on the dual space), carried as one int table: ``table[a][b]``
    is the term dict of {v_a, v_b} on the unit keys of ``vars.pk`` over the
    int ``den``, read from the entries or built by ``linear_structure``."""

    def __init__(self, vars: VarSet, bracket_matrix):
        super().__init__(vars, bracket_matrix)
        m, units = self.bracket_matrix, set(vars.pk.unit)
        if any(isinstance(x, RatFun) or not units.issuperset(x.terms) for row in m for x in row):
            raise NotPoisson("linear structure entries must be polynomial and linear")
        self.den = lcm(*[x.den for row in m for x in row])
        self.table = [[{k: c * (self.den // x.den) for k, c in x.terms.items()} for x in row]
                      for row in m]

    def check_jacobi(self) -> None:
        """Schouten on the table: the v_e coefficient of {v_a, P_bc} +
        cyclic, P_ab = sum_d C_ab^d v_d, is sum_d C_bc^d C_ad^e + C_ca^d
        C_bd^e + C_ab^d C_cd^e, summed over the nonzero C_st^d (s < t) and
        C_ud = -C_du only; NotPoisson names the first failing triple."""
        T, index, coeff = self.table, {u: i for i, u in enumerate(self.vars.pk.unit)}, {}
        for s, t in combinations(range(len(T)), 2):
            for d, x in T[s][t].items():
                for u, y in enumerate(T[index[d]]):
                    if y and u != s and u != t:
                        out = coeff.setdefault(tuple(sorted((s, t, u))), {})
                        for e, z in y.items():
                            out[e] = out.get(e, 0) + (x if s < u < t else -x) * z
        failing = [abc for abc, out in coeff.items() if any(out.values())]
        if failing:
            raise NotPoisson("Jacobi identity fails on ({}, {}, {})".format(*min(failing)))


def linear_structure(vars: VarSet, constants, den: int) -> LinearPoissonStructure:
    """{v_a, v_b} = sum c v_d / den over the pairs (d, c) of a variable
    index and an int in ``constants[a][b]`` (a repeated d adds), merged into
    the table, checked skew on its nonzero entries, and read into Polys
    (zero entries one dict and one Poly).  A den not an int >= 1 raises
    NotPoisson, an index outside 0..n-1 DimensionMismatch."""
    n, unit, table, empty = len(vars), vars.pk.unit, [], {}
    if len(constants) != n or any(len(row) != n for row in constants):
        raise NotPoisson("bracket matrix must be square of size |vars|")
    if type(den) is not int or den < 1:
        raise NotPoisson(f"a linear structure's denominator must be an int >= 1, got {den!r}")
    for row in constants:
        table.append([])
        for pairs in row:
            terms = {} if pairs else empty
            for d, c in pairs:
                if not 0 <= d < n:
                    raise DimensionMismatch(f"variable index {d} of {n} variables")
                terms[unit[d]] = terms.get(unit[d], 0) + c
            table[-1].append({k: c for k, c in terms.items() if c} if pairs else empty)
    if any(table[b][a] != {k: -c for k, c in t.items()}
           for a, row in enumerate(table) for b, t in enumerate(row) if t):
        raise NotPoisson("bracket matrix must be skew-symmetric")
    pi, zero = LinearPoissonStructure.__new__(LinearPoissonStructure), Poly.zero(vars)
    pi.vars, pi.table, pi.den, pi._den = vars, table, den, None
    pi.bracket_matrix = pi._rows = [[Poly._trusted(vars, t, den) if t else zero for t in row]
                                    for row in table]
    return pi


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
    """Linearization at a point where every bracket vanishes: translate it
    to the origin (unless it is the origin) and read the degree-1 keys of
    each entry num/den above the diagonal, num^(1) / den(0), into a
    ``linear_structure``.  Raises NotRegular at a pole, NotVanishing where
    an entry is nonzero, NotPoisson when Jacobi fails."""
    n, shift, index = len(pi.vars), pi.vars.pk.shift, {u: i for i, u in enumerate(pi.vars.pk.unit)}
    point = None if at is None else RationalPoint(at, pi.vars)
    moved, lins, dens = point is not None and any(point.nums), {}, {}
    for a, b in combinations(range(n), 2):
        num, den = num_den(pi.bracket_matrix[a][b])
        if moved:
            num, den = num.shift(point), den and den.shift(point)
        den0, q = (1, 1) if den is None else (den.terms.get(0, 0), den.den)
        if den0 == 0:
            raise NotRegular(f"entry ({a},{b}) has a pole at the base point")
        if 0 in num.terms:
            raise NotVanishing(f"entry ({a},{b}) nonzero at the base point")
        lins[a, b] = [(index[k], c * q) for k, c in num.terms.items() if k >> shift == 1]
        dens[a, b] = num.den * den0
    den, constants = lcm(*map(abs, dens.values())), [[[]] * n for _ in range(n)]
    for (a, b), lin in lins.items():
        constants[a][b] = [(d, c * (den // dens[a, b])) for d, c in lin]
        constants[b][a] = [(d, -c) for d, c in constants[a][b]]
    pi0 = linear_structure(pi.vars, constants, den)
    pi0.check_jacobi()
    return pi0


def generic_rank(pi: PoissonStructure) -> int:
    """Max rank of the bracket matrix over seeded random rational points; a
    probabilistic lower bound that equals the true rank with overwhelming
    probability (acceptance tests cross-check closed forms)."""
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
    """Fully symbolic, on the table T of pi0 (a plain structure is read as
    a ``LinearPoissonStructure``, so a non-linear one raises NotPoisson):
    each cleared gradient G, int dicts read from the terms by
    ``_gradient_terms``, gives the field X[a] = sum_b T[a][b] G[b]; each
    pairwise bracket sum_a G_f[a] X_g[a], summed like X, must cancel."""
    if not isinstance(pi0, LinearPoissonStructure):
        pi0 = LinearPoissonStructure(pi0.vars, pi0.bracket_matrix)
    pk, parts = pi0.vars.pk, []
    for f in functions:
        grad = [(a, g) for a, g in enumerate(_gradient_terms(f, pi0.vars)[0]) if g]
        field = {}
        for a, row in enumerate(pi0.table):
            for b, g in grad:
                if row[b]:
                    _mul_terms(pk, row[b], g, None, field.setdefault(a, {}))
        parts.append((grad, field))
    return not any(reduce(lambda out, ag: _mul_terms(pk, ag[1], field.get(ag[0], {}), None, out),
                          grad, {}) for (grad, _), (_, field) in combinations(parts, 2))


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
    until the rank is full (``jacobian_pivots``): a lower bound on the
    generic rank.  Raises CountShortfall, NotInvolutive (also naming a
    selected low missing from ``commuting``) or, for ``labels`` of another
    length than the lows, DimensionMismatch instead of reporting a failure."""
    if len(lows) != expected:
        raise CountShortfall(f"selected {len(lows)} functions, expected {expected}")
    if labels and len(labels) != len(lows):
        raise DimensionMismatch(f"{len(labels)} labels for {len(lows)} functions")
    missing = [] if commuting is None else [i for i, f in enumerate(lows) if f not in commuting]
    if missing:
        raise NotInvolutive(f"selected low {missing[0]} is not in the commuting pool")
    if not involutivity_certificate(pi0, lows if commuting is None else commuting):
        raise NotInvolutive("lowest terms are not in involution under pi0")
    rank = len(jacobian_pivots(lows, vars, random.Random(seed), samples))
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
    kept = jacobian_pivots(lows, sys.vars, random.Random(DEFAULT_SEED), DEFAULT_SAMPLES)
    return certify([lows[i] for i in kept], pi0, sys.vars, magic, labels=kept,
                   commuting=lows)
