"""Schubert-cell family: the triangular polynomial system attached to a
reduced word, the Poisson structure in Bott-Samelson coordinates, its
linearization at the torus-fixed point, integrable-system selection by
degree jumps, Pfaffian and index formulas, and the quasi-polynomial flow
structure checks."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NonPolynomialStructure,
    NotDivisible,
    SizeOutOfRange,
    StructureViolated,
    WrongWord,
)
from .poisson_core import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    IntegrableSystemReport,
    LinearPoissonStructure,
    LogCanonicalSystem,
    PoissonStructure,
    certify,
    generic_rank,
    is_log_canonical,
    linearize,
    pfaffian_coefficient,
)
from .polyring import (
    Poly,
    PolyMatrix,
    RatFun,
    VarSet,
    _sign_canonical,
    det,
    lowest_term,
)
from .rationals import QQ0, QQ1
from .typea import (
    ReducedWord,
    elementary,
    fundamental_weight,
    kplus_kminus,
    longest_word,
    pairing,
    principal_minor,
    weyl_rep,
)


@dataclass
class SchubertCell:
    m: int
    word: ReducedWord
    vars: VarSet
    phis: list  # Poly, phi_k in z_1..z_k
    lam: list  # rational matrix, {phi_j, phi_k} = lam[j][k] phi_j phi_k
    pi_z: PoissonStructure
    pi0: LinearPoissonStructure
    kminus: dict
    kplus: dict

    def lows(self):
        return [lowest_term(p)[0] for p in self.phis]

    def low_degrees(self):
        return [lowest_term(p)[1] for p in self.phis]

    def frozen_indices(self):
        return [k for k in range(1, len(self.word) + 1) if self.kplus[k] is None]


def _phi_polys(word: ReducedWord, m: int, vars: VarSet):
    """phi_k = leading principal i_k x i_k minor of the length-k
    Bott-Samelson prefix."""
    phis = []
    prefix = PolyMatrix.identity(vars, m)
    for k, i in enumerate(word.letters, start=1):
        prefix = prefix * elementary(i, m, Poly.var(vars, f"z{k}"))
        prefix = prefix * weyl_rep(i, m, vars)
        phis.append(principal_minor(i, prefix))
    return phis


def _lambda_matrix(word: ReducedWord, m: int):
    """lam[j][k] = <w_j - u_j.w_j, w_k + u_k.w_k> for j < k, where w_t is the
    fundamental weight of letter t and u_t the length-t prefix."""
    l = len(word)
    lam = [[QQ0] * l for _ in range(l)]
    prefixes = [word.prefix(k) for k in range(l + 1)]
    for j in range(1, l + 1):
        wj = fundamental_weight(word.letters[j - 1], m)
        left = wj - prefixes[j].act(wj)
        for k in range(j + 1, l + 1):
            wk = fundamental_weight(word.letters[k - 1], m)
            right = wk + prefixes[k].act(wk)
            v = pairing(left, right)
            lam[j - 1][k - 1] = v
            lam[k - 1][j - 1] = -v
    return lam


def _divide_by_factors(num: Poly, factors) -> Poly:
    for f in factors:
        if f.is_constant():
            c = f.constant_value()
            if c != 1:
                num = num * (QQ1 / c)
            continue
        try:
            num = num.exact_div(f)
        except NotDivisible as exc:
            raise NonPolynomialStructure(
                "pulled-back bracket is not polynomial"
            ) from exc
    return num


def _pullback_structure(phis, lam, vars: VarSet, diag) -> list:
    """Solve J P J^T = (lam_jk phi_j phi_k) for P, where J[j][a] = d phi_j/d z_a
    is lower triangular with J[k][k] = diag[k] (the predecessor polynomial).
    Exact divisions only; P is returned as a dense list of Polys."""
    l = len(phis)
    J = [[phis[j].derivative(vars.names[a]) for a in range(l)] for j in range(l)]
    for j in range(l):
        for a in range(j + 1, l):
            if not J[j][a].is_zero():
                raise NonPolynomialStructure("Jacobian is not lower triangular")
        if J[j][j] != diag[j]:
            raise NonPolynomialStructure("diagonal is not the predecessor")

    B = [[phis[j] * phis[k] * lam[j][k] for k in range(l)] for j in range(l)]

    # Q = J^{-1} B, stored as q[j][k]/D_j with D_j = diag[0]*...*diag[j]
    q = [[None] * l for _ in range(l)]
    for j in range(l):
        for k in range(l):
            acc = B[j][k]
            for t in range(j):
                acc = acc * diag[t]  # B[j][k] * D_{j-1}
            for i in range(j):
                coef = J[j][i] * q[i][k]
                for t in range(i + 1, j):
                    coef = coef * diag[t]  # * D_{j-1}/D_i
                acc = acc - coef
            q[j][k] = acc

    # P^T columns: J y = Q^T column c, i.e. y_j = P[c][j]
    P = [[None] * l for _ in range(l)]
    for c in range(l):
        Dc_factors = diag[: c + 1]
        y = [None] * l
        for j in range(l):
            acc = q[c][j]
            if j:
                s = Poly.zero(vars)
                for i in range(j):
                    if not J[j][i].is_zero() and not y[i].is_zero():
                        s = s + J[j][i] * y[i]
                if not s.is_zero():
                    for f in Dc_factors:
                        s = s * f
                    acc = acc - s
            y[j] = _divide_by_factors(acc, list(Dc_factors) + [diag[j]])
        for j in range(l):
            P[c][j] = y[j]

    for row in P:
        for x in row:
            if not x.is_zero() and x.min_degree() < 1:
                raise NonPolynomialStructure("pullback does not vanish at 0")
    return P


def build_cell(m: int, word) -> SchubertCell:
    """Construct the full cell data for a reduced word: the triangular
    polynomial system, its log-canonical coefficient matrix, the bracket
    table of the z-coordinates obtained by pulling the constant-coefficient
    structure back through the triangular change of variables, and the
    linearization at the origin.  Every pair of the system is checked to be
    log-canonical with the expected coefficient."""
    if not isinstance(word, ReducedWord):
        word = ReducedWord(word, m)
    l = len(word)
    if l == 0:
        raise WrongWord("empty word has no cell data")
    vars = VarSet([f"z{k}" for k in range(1, l + 1)])
    phis = _phi_polys(word, m, vars)
    lam = _lambda_matrix(word, m)
    kminus, kplus = kplus_kminus(word)
    diag = [
        phis[kminus[k] - 1] if kminus[k] else Poly.const(vars, 1)
        for k in range(1, l + 1)
    ]
    P = _pullback_structure(phis, lam, vars, diag)
    pi_z = PoissonStructure(vars, P)
    for j in range(l):
        for k in range(j + 1, l):
            if is_log_canonical(pi_z, phis[j], phis[k]) != lam[j][k]:
                raise NonPolynomialStructure(
                    f"bracket of pair ({j + 1},{k + 1}) is not the expected multiple"
                )
    pi0 = linearize(pi_z)
    return SchubertCell(m, word, vars, phis, lam, pi_z, pi0, kminus, kplus)


def choose_integrable_system(
    cell: SchubertCell, seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES
) -> IntegrableSystemReport:
    """Keep the lowest terms whose degree jumps over the predecessor's;
    certify symbolic involutivity and the magic-number cardinality."""
    l = len(cell.word)
    lows = cell.lows()
    degs = cell.low_degrees()
    selected = []
    for k in range(1, l + 1):
        pred = degs[cell.kminus[k] - 1] if cell.kminus[k] else 0
        if degs[k - 1] == 1 + pred:
            selected.append(k)
    word = ",".join(map(str, cell.word.letters))
    # involution is certified over all lowest terms, not only the chosen ones
    return certify([lows[k - 1] for k in selected], cell.pi0, cell.vars,
                   magic_number(cell), seed, samples,
                   f"schubert m={cell.m} word={word}", selected, commuting=lows)


def magic_number(cell: SchubertCell) -> int:
    degs = cell.low_degrees()
    return sum(degs[k - 1] for k in cell.frozen_indices())


def index_and_magic(cell: SchubertCell) -> dict:
    l = len(cell.word)
    d_w = magic_number(cell)
    rank = generic_rank(cell.pi0)
    return {
        "d_w": d_w,
        "ind": 2 * d_w - l,
        "mag": d_w,
        "rank_check": rank == 2 * (l - d_w),
    }


def pfaffian_check(cell: SchubertCell) -> bool:
    """The Pfaffian coefficient of the cell system must be a constant times
    the product of the frozen polynomials."""
    sys = LogCanonicalSystem(
        cell.vars, [RatFun.from_poly(p) for p in cell.phis], cell.lam
    )
    pf = pfaffian_coefficient(sys)
    prod = Poly.const(cell.vars, 1)
    for k in cell.frozen_indices():
        prod = prod * cell.phis[k - 1]
    ratio = pf / RatFun.from_poly(prod)
    return ratio.is_constant() and not ratio.is_zero()


def solid_minor_positions(m: int):
    """(size, first column) pairs of solid square submatrices of a strictly
    upper m x m matrix that contain the first row and avoid the zero region."""
    out = []
    for s in range(1, m // 2 + 1):
        for c in range(s + 1, m - s + 2):
            out.append((s, c))
    return out


def generic_upper_matrix(m: int, vars: VarSet) -> PolyMatrix:
    """Strictly upper triangular matrix with z1, z2, ... placed row-major."""
    ent = [[Poly.zero(vars) for _ in range(m)] for _ in range(m)]
    k = 0
    for a in range(m):
        for b in range(a + 1, m):
            k += 1
            ent[a][b] = Poly.var(vars, f"z{k}")
    return PolyMatrix(ent)


def solid_minor_check(m: int, cell: SchubertCell = None) -> bool:
    """For the standard long word (1..m-1, 1..m-2, ..., 1): the set of lowest
    terms equals, up to sign, the solid first-row minors of the generic
    strictly upper matrix."""
    word = longest_word(m)
    if cell is None:
        cell = build_cell(m, word)
    elif tuple(cell.word.letters) != tuple(word.letters):
        raise WrongWord("solid-minor statement requires the standard long word")
    upper = generic_upper_matrix(m, cell.vars)
    minors = set()
    for s, c in solid_minor_positions(m):
        sub = upper.submatrix(range(s), range(c - 1, c - 1 + s))
        d = det(sub)
        minors.add(_sign_canonical(d))
    lows = {_sign_canonical(p) for p in cell.lows()}
    return lows == minors


def flow_structure_check(cell: SchubertCell, j: int) -> dict:
    """Hypotheses that make every Hamiltonian flow of phi_j^low
    quasi-polynomial: coordinates up to j are constants of motion, and for
    k > j the bracket {z_k, phi_j^low} is linear in z_k with coefficients in
    the earlier coordinates."""
    l = len(cell.word)
    if not 1 <= j <= l:
        raise SizeOutOfRange(f"j={j} out of range for a word of length {l}")
    low_j = cell.lows()[j - 1]
    report = {"j": j, "constant_coordinates": [], "linear_coordinates": []}
    for k in range(1, l + 1):
        zk = Poly.var(cell.vars, f"z{k}")
        br = cell.pi0.bracket_poly(zk, low_j)
        if k <= j:
            if not br.is_zero():
                raise StructureViolated((k, str(br)))
            report["constant_coordinates"].append(k)
        else:
            if not br.is_zero():
                if br.degree_in(f"z{k}") > 1:
                    raise StructureViolated((k, str(br)))
                for t in range(k + 1, l + 1):
                    if br.degree_in(f"z{t}") > 0:
                        raise StructureViolated((k, str(br)))
            report["linear_coordinates"].append(k)
    return report
