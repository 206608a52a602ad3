"""Poisson structures in coordinates: brackets, log-canonicity,
linearization at a vanishing point, log-volume forms, the degree
criterion that certifies polynomial integrable systems, and torus
Pfaffian coefficients.

Bracket-matrix entries are Polys where polynomial and RatFuns elsewhere.
``_field_entry`` is the one loop over a bracket matrix: row a applied to
the gradient of h is {v_a, h}.  It starts from the zero Poly, so results
stay Polys over Polys; a RatFun entry or h lifts them to RatFuns.  The
bracket, ``hamiltonian_field``, the pair check of ``schubert.build_cell``,
the Jacobi check and the Casimir check of ``cluster_engine`` are built on it.
``bracket_poly`` is the checked Poly form of the bracket, kept as a method
of its own because the benchmark's layer tracer (``bench/layertrace.py``)
wraps it by name.  ``_system_jacobian_det`` is the one Jacobian determinant
and raises DependentSystem when it vanishes.

``certify`` is the single certification path: every family (Schubert
cells, the BFZ cluster, the dual group of GL(n)) and the generic
``extract_integrable_system`` hand it their selected lowest terms, and it
checks the count, involutivity under pi0 and independence, and builds the
report.  Independence is the rank of the Jacobian at up to ``samples``
seeded random points, read until it is full: a lower bound on the generic
rank, equal to it with high probability."""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from itertools import combinations

from .errors import (
    CountShortfall,
    DependentSystem,
    DimensionMismatch,
    InequalityViolated,
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
    jacobian,
    lowest_term,
    numeric_pivots,
    numeric_rank,
)
from .rationals import QQ0, QQ1

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 8


def _as_entry(x, vars):
    """A bracket-matrix entry: a Poly unless x is a non-polynomial RatFun."""
    if isinstance(x, RatFun):
        return x.as_poly() if x.is_polynomial() else x
    return x if isinstance(x, Poly) else Poly.const(vars, x)


def _num_den(x):
    """Numerator and denominator of a Poly or RatFun, as Polys."""
    return (x.num, x.den) if isinstance(x, RatFun) else (x, Poly.const(x.vars, 1))


def _field_entry(row, dh) -> Poly | RatFun:
    """sum_b row[b] * dh[b]: row a of a bracket matrix applied to the
    gradient of h, which is {v_a, h}; a Poly when every term is one."""
    total = Poly.zero(row[0].vars)
    for p, d in zip(row, dh):
        if not p.is_zero() and not d.is_zero():
            total = total + p * d
    return total


class PoissonStructure:
    """A variable list plus the skew matrix of brackets {v_a, v_b}; an entry
    given as a number, Poly or RatFun is stored as a Poly unless its
    denominator is not constant."""

    def __init__(self, vars: VarSet, bracket_matrix):
        self.vars = vars
        n = len(vars)
        m = [[_as_entry(x, vars) for x in row] for row in bracket_matrix]
        if len(m) != n or any(len(row) != n for row in m):
            raise NotPoisson("bracket matrix must be square of size |vars|")
        for a in range(n):
            for b in range(n):
                if m[a][b] != -m[b][a]:
                    raise NotPoisson("bracket matrix must be skew-symmetric")
        self.bracket_matrix = m

    @staticmethod
    def zero(vars: VarSet) -> "PoissonStructure":
        z = Poly.zero(vars)
        n = len(vars)
        return PoissonStructure(vars, [[z] * n for _ in range(n)])

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.bracket_matrix for x in row)

    def matrix(self) -> PolyMatrix:
        return PolyMatrix(self.bracket_matrix)

    # -- brackets -----------------------------------------------------------

    def hamiltonian_field(self, h) -> list:
        """[{v_a, h} for each variable v_a], for a Poly or RatFun h."""
        dh = [h.derivative(nm) for nm in self.vars.names]
        return [_field_entry(row, dh) for row in self.bracket_matrix]

    def bracket(self, f, g) -> Poly | RatFun:
        """{f, g} = sum_a df/dv_a {v_a, g} for Polys or RatFuns f, g, over the
        a with df/dv_a != 0: a Poly when f, g and the entries are Polys."""
        dg = [g.derivative(nm) for nm in self.vars.names]
        total = Poly.zero(self.vars)
        for nm, row in zip(self.vars.names, self.bracket_matrix):
            dfa = f.derivative(nm)
            if not dfa.is_zero():
                entry = _field_entry(row, dg)
                if not entry.is_zero():
                    total = total + entry * dfa
        return total

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
    entries are linear: ``linearize`` checks the Jacobi identity of the
    structure it derives, and tests check the closed-form structures."""

    def __init__(self, vars: VarSet, bracket_matrix):
        super().__init__(vars, bracket_matrix)
        for row in self.bracket_matrix:
            for x in row:
                if isinstance(x, RatFun):
                    raise NotPoisson("linear structure entries must be polynomial")
                if not x.is_zero() and (
                    x.total_degree() != 1 or x.min_degree() != 1
                ):
                    raise NotPoisson("linear structure entries must be linear")


def is_log_canonical(pi: PoissonStructure, f, g):
    """Return lambda with {f, g} = lambda*f*g (exactly, possibly 0), else None,
    for Polys or RatFuns f, g."""
    if f.is_zero() or g.is_zero():
        raise ZeroInput("log-canonical test requires nonzero functions")
    br = pi.bracket(f, g)
    if br.is_zero():
        return QQ0
    (a, b), (c, d) = _num_den(br), _num_den(f * g)
    # a/b = lam*c/d iff a*d = lam*b*c, lam the ratio of leading coefficients
    num, den = a * d, b * c
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
            num, den = _num_den(pi.bracket_matrix[a][b])
            den0 = den.evaluate(point)
            if den0 == 0:
                raise NotRegular(f"entry ({a},{b}) has a pole at the base point")
            if num.evaluate(point) != 0:
                raise NotVanishing(f"entry ({a},{b}) nonzero at the base point")
            lin = num.shift(point).homogeneous_component(1)
            # (num/den)^(1) = num^(1)/den(0) since num(0) = 0
            row.append(lin * (QQ1 / den0))
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
    r = numeric_rank(pi.matrix(), random.Random(DEFAULT_SEED), retries=DEFAULT_SAMPLES)
    if r % 2:
        raise ValueError("skew matrix evaluated to odd rank")
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


def _system_jacobian_det(functions, vars) -> Poly | RatFun:
    """det of the Jacobian of the functions; raises DependentSystem when it
    vanishes identically."""
    d = det(jacobian(functions, vars))
    if d.is_zero():
        raise DependentSystem("Jacobian determinant vanishes identically")
    return d


def log_volume(functions, vars: VarSet) -> LogVolumeForm:
    """mu = det(Jacobian)/prod(f_i), divided by one function at a time:
    each RatFun division cancels only the gcds of its operands' parts, so
    the unreduced product of all the functions is never formed."""
    mu = _system_jacobian_det(functions, vars)
    for f in functions:
        mu = mu / f
    return LogVolumeForm(mu)


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
    n = len(sys.vars)
    _, ddet = lowest_term(_system_jacobian_det(sys.functions, sys.vars))
    total = 0
    for f in sys.functions:
        _, df = lowest_term(f)
        total += df
    deg_mu_low = ddet + n - total
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
    """Fully symbolic: every pairwise bracket must reduce to zero."""
    for i in range(len(functions)):
        for j in range(i + 1, len(functions)):
            if not pi0.bracket(functions[i], functions[j]).is_zero():
                return False
    return True


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
