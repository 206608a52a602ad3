"""Poisson structures in coordinates: brackets, log-canonicity,
linearization at a vanishing point, log-volume forms, the degree
criterion that certifies polynomial integrable systems, and torus
Pfaffian coefficients.

``PoissonStructure.bracket`` is the one bracket loop, over Polys or
RatFuns; ``bracket_poly`` is its checked Poly form, kept as a method of its
own because the benchmark's layer tracer (``bench/layertrace.py``) wraps it
by name.  ``_system_jacobian_det`` is the one Jacobian determinant and
raises DependentSystem when it vanishes.

``certify`` is the single certification path: every family (Schubert
cells, the BFZ cluster, the dual group of GL(n)) and the generic
``extract_integrable_system`` hand it their selected lowest terms, and it
checks the count, involutivity under pi0 and independence, and builds the
report."""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field

from .errors import (
    CountShortfall,
    DependentSystem,
    InequalityViolated,
    NotInvolutive,
    NotLogCanonical,
    NotRegular,
    NotVanishing,
    ZeroInput,
)
from .polyring import (
    Poly,
    PolyMatrix,
    RatFun,
    VarSet,
    det,
    jacobian,
    lowest_term,
    numeric_rank,
    ratfun_reduced_by_factors,
)
from .rationals import QQ, QQ0, QQ1

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 8


def _as_ratfun(f, vars):
    if isinstance(f, RatFun):
        return f
    if isinstance(f, Poly):
        return RatFun.from_poly(f)
    return RatFun.const(vars, f)


class PoissonStructure:
    """A variable list plus the skew matrix of brackets {v_a, v_b}."""

    def __init__(self, vars: VarSet, bracket_matrix):
        self.vars = vars
        n = len(vars)
        m = [[_as_ratfun(x, vars) for x in row] for row in bracket_matrix]
        if len(m) != n or any(len(row) != n for row in m):
            raise ValueError("bracket matrix must be square of size |vars|")
        for a in range(n):
            for b in range(n):
                if m[a][b] != -m[b][a]:
                    raise ValueError("bracket matrix must be skew-symmetric")
        self.bracket_matrix = m

    @staticmethod
    def zero(vars: VarSet) -> "PoissonStructure":
        z = RatFun.const(vars, 0)
        n = len(vars)
        return PoissonStructure(vars, [[z] * n for _ in range(n)])

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.bracket_matrix for x in row)

    def matrix(self) -> PolyMatrix:
        return PolyMatrix(self.bracket_matrix)

    # -- brackets -----------------------------------------------------------

    def bracket(self, f, g) -> RatFun:
        """{f, g} = sum_{a<b} P_ab (df/dv_a dg/dv_b - df/dv_b dg/dv_a) for
        Polys or RatFuns f, g."""
        df = [f.derivative(nm) for nm in self.vars.names]
        dg = [g.derivative(nm) for nm in self.vars.names]
        total = RatFun.const(self.vars, 0)
        n = len(self.vars)
        for a in range(n):
            if df[a].is_zero() and dg[a].is_zero():
                continue
            for b in range(a + 1, n):
                p = self.bracket_matrix[a][b]
                if p.is_zero():
                    continue
                cross = df[a] * dg[b] - df[b] * dg[a]
                if not cross.is_zero():
                    total = total + p * cross
        return total

    def bracket_poly(self, f, g) -> Poly:
        """The bracket as a Poly; raises NotDivisible when it is not
        polynomial."""
        return self.bracket(f, g).as_poly()

    # -- verification --------------------------------------------------------

    def jacobi_defect(self, a: int, b: int, c: int) -> RatFun:
        va, vb, vc = (RatFun.var(self.vars, self.vars.names[i]) for i in (a, b, c))
        return (
            self.bracket(va, self.bracket(vb, vc))
            + self.bracket(vb, self.bracket(vc, va))
            + self.bracket(vc, self.bracket(va, vb))
        )

    def check_jacobi(self) -> None:
        n = len(self.vars)
        for a in range(n):
            for b in range(a + 1, n):
                for c in range(b + 1, n):
                    if not self.jacobi_defect(a, b, c).is_zero():
                        raise ValueError(
                            f"Jacobi identity fails on ({a}, {b}, {c})"
                        )


class LinearPoissonStructure(PoissonStructure):
    """Poisson structure whose bracket matrix has homogeneous degree-1
    polynomial entries (equivalently, the structure constants of a Lie
    algebra on the dual space)."""

    def __init__(self, vars: VarSet, bracket_matrix, check_jacobi: bool = True):
        super().__init__(vars, bracket_matrix)
        for row in self.bracket_matrix:
            for x in row:
                if not x.is_polynomial():
                    raise ValueError("linear structure entries must be polynomial")
                if not x.is_zero() and (
                    x.num.total_degree() != 1 or x.num.min_degree() != 1
                ):
                    raise ValueError("linear structure entries must be linear")
        if check_jacobi and len(vars) <= 24:
            self.check_jacobi()


def is_log_canonical(pi: PoissonStructure, f, g):
    """Return lambda with {f, g} = lambda*f*g (exactly, possibly 0), else None."""
    f = _as_ratfun(f, pi.vars)
    g = _as_ratfun(g, pi.vars)
    if f.is_zero() or g.is_zero():
        raise ZeroInput("log-canonical test requires nonzero functions")
    br = pi.bracket(f, g)
    if br.is_zero():
        return QQ0
    prod = f * g
    ratio_num = br.num * prod.den
    ratio_den = br.den * prod.num
    # constant ratio iff cross-multiplied leading coefficients match everywhere
    e1, c1 = ratio_num.leading()
    e2, c2 = ratio_den.leading()
    lam = c1 / c2
    if ratio_num == ratio_den * Poly.const(pi.vars, lam):
        return lam
    return None


def linearize(pi: PoissonStructure, at=None) -> LinearPoissonStructure:
    """Linearization at a point where every bracket vanishes: translate the
    point to the origin and keep the degree-1 part of each entry."""
    n = len(pi.vars)
    if at is None:
        at = [QQ0] * n
    at = [QQ(x) for x in (at[nm] for nm in pi.vars.names)] if isinstance(at, dict) else [QQ(x) for x in at]
    out = []
    for a in range(n):
        row = []
        for b in range(n):
            entry = pi.bracket_matrix[a][b]
            den0 = entry.den.evaluate(at)
            if den0 == 0:
                raise NotRegular(f"entry ({a},{b}) has a pole at the base point")
            if entry.num.evaluate(at) != 0:
                raise NotVanishing(f"entry ({a},{b}) nonzero at the base point")
            num = entry.num.shift(at)
            lin = num.homogeneous_component(1)
            # (num/den)^(1) = num^(1)/den(0) since num(0) = 0
            row.append(RatFun.from_poly(lin * (QQ1 / den0)))
        out.append(row)
    return LinearPoissonStructure(pi.vars, out)


def generic_rank(
    pi: PoissonStructure, seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES
) -> int:
    """Max rank of the bracket matrix over seeded random rational points; a
    probabilistic lower bound that equals the true rank with overwhelming
    probability (acceptance tests cross-check closed forms)."""
    if pi.is_zero():
        return 0
    rng = random.Random(seed)
    r = numeric_rank(pi.matrix(), rng, retries=samples)
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
        fs = [_as_ratfun(f, pi.vars) for f in functions]
        if len(fs) != len(pi.vars):
            raise ValueError("need as many functions as variables")
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


def _system_jacobian_det(functions, vars) -> RatFun:
    """det of the Jacobian of the functions; raises DependentSystem when it
    vanishes identically."""
    d = det(jacobian([_as_ratfun(f, vars) for f in functions], vars))
    if d.is_zero():
        raise DependentSystem("Jacobian determinant vanishes identically")
    return d


def log_volume(functions, vars: VarSet) -> LogVolumeForm:
    """mu = det(Jacobian)/prod(f_i).  The numerators and denominators of the
    functions are cancelled by exact trial division before the generic gcd
    reduction runs."""
    d = _system_jacobian_det(functions, vars)
    num, den = d.num, d.den
    factors = []
    for f in functions:
        f = _as_ratfun(f, vars)
        num = num * f.den
        den = den * f.num
        for p in (f.num, f.den):
            if not p.is_constant() and p not in factors:
                factors.append(p)
    return LogVolumeForm(ratfun_reduced_by_factors(num, den, factors))


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
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
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
    half = generic_rank(pi0, seed=seed, samples=samples) // 2
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
    ``expected`` at seeded random points.  Raises CountShortfall or
    NotInvolutive instead of reporting a failure."""
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


def greedy_independent_subset(functions, vars: VarSet, rng, samples=DEFAULT_SAMPLES):
    """Scan in order, keeping functions that increase the numeric Jacobian
    rank at seeded random points."""
    kept = []
    kept_idx = []
    rank = 0
    for idx, f in enumerate(functions):
        trial = kept + [f]
        j = jacobian(trial, vars)
        r = numeric_rank(j, random.Random(rng.randrange(1 << 30)), retries=samples)
        if r > rank:
            kept = trial
            kept_idx.append(idx)
            rank = r
    return kept, kept_idx


def extract_integrable_system(
    sys: LogCanonicalSystem,
    pi0: LinearPoissonStructure,
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
    construction: str = "lowest-terms",
) -> IntegrableSystemReport:
    """Lowest terms of a log-canonical system, certified involutive under
    pi0, with a greedy maximal independent subset of the magic-number size."""
    n = len(sys.vars)
    lows = [lowest_term(f)[0] for f in sys.functions]
    magic = n - generic_rank(pi0, seed=seed, samples=samples) // 2
    kept, kept_idx = greedy_independent_subset(
        lows, sys.vars, random.Random(seed), samples
    )
    return certify(kept, pi0, sys.vars, magic, seed, samples, construction,
                   kept_idx, commuting=lows)
