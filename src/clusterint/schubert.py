"""Schubert-cell family: the triangular polynomial system attached to a
reduced word, the Poisson structure in Bott-Samelson coordinates, its
linearization at the torus-fixed point, integrable-system selection by
degree jumps, Pfaffian and index formulas, and the quasi-polynomial flow
structure checks.  ``build_cell`` stores each phi's lowest term, read
once; the selection reads them and keeps the k of ``degree_jumps``."""

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
    SeedLows,
    certify,
    generic_rank,
    linearize,
    pfaffian_coefficient,
)
from .polyring import (
    Poly,
    PolyMatrix,
    VarSet,
    _sign_canonical,
    det,
    dot,
    gradient,
    lowest_term,
)
from .typea import (
    ReducedWord,
    bott_samelson_prefixes,
    degree_jumps,
    fundamental_weight,
    kplus_kminus,
    longest_word,
    pairing,
    principal_minor,
)


@dataclass
class SchubertCell:
    m: int
    word: ReducedWord
    vars: VarSet
    phis: list  # Poly, phi_k in z_1..z_k
    lam: list  # integer matrix, {phi_j, phi_k} = lam[j][k] phi_j phi_k
    pi_z: PoissonStructure
    pi0: LinearPoissonStructure
    kminus: dict
    kplus: dict
    phi_lows: list  # (lowest term, degree) of each phi, read once at build

    def lows(self):
        return [low for low, _ in self.phi_lows]

    def low_degrees(self):
        return [d for _, d in self.phi_lows]

    def frozen_indices(self):
        return [k for k in range(1, len(self.word) + 1) if self.kplus[k] is None]


def _phi_polys(word: ReducedWord, m: int, vars: VarSet):
    """phi_k = leading principal i_k x i_k minor of the length-k
    Bott-Samelson prefix."""
    return [principal_minor(i, prefix) for i, prefix in
            zip(word.letters, bott_samelson_prefixes(word, m, vars))]


def _lambda_matrix(word: ReducedWord, m: int):
    """lam[j][k] = <w_j - u_j.w_j, w_k + u_k.w_k> for j < k, where w_t is the
    fundamental weight of letter t and u_t the length-t prefix."""
    l = len(word)
    lam = [[0] * l for _ in range(l)]
    weights = [fundamental_weight(i, m) for i in word.letters]
    prefixes = word.prefixes()[1:]
    right = [w + u.act(w) for w, u in zip(weights, prefixes)]
    for j in range(l):
        left = weights[j] - prefixes[j].act(weights[j])
        for k in range(j + 1, l):
            v = pairing(left, right[k])
            lam[j][k] = v
            lam[k][j] = -v
    return lam


def _solve_lower(J, B, skew=False) -> list:
    """Half of X with J X = B for a lower-triangular J, by forward
    substitution: B[j][k] - sum J[j][i] X[i][k] is one ``dot``, divided
    exactly by J[j][j]; raises NonPolynomialStructure on a remainder.
    Entry (j, k) reads (i, k) for i < j.  Without ``skew`` X is solved above
    the diagonal, where those (i, k) lie too; with ``skew`` X is skew and
    solved below it, and (k, j) = -(j, k) is set as row j finishes, before
    any row reads it.  Other entries are zero."""
    l = len(B)
    zero, one = Poly.zero(J[0][0].vars), Poly.const(J[0][0].vars, 1)
    X = [[zero] * l for _ in range(l)]
    for j, row in enumerate(B):
        terms = [(-J[j][i], X[i]) for i in range(j) if J[j][i]]
        for k in (range(j) if skew else range(j + 1, l)):
            acc = dot(zero.vars, [(one, row[k])] + [(c, xi[k]) for c, xi in terms])
            try:
                X[j][k] = acc.exact_div(J[j][j])
            except NotDivisible as exc:
                raise NonPolynomialStructure(
                    "pulled-back bracket is not polynomial"
                ) from exc
            if skew:
                X[k][j] = -X[j][k]
    return X


def _pullback_structure(J, B, diag) -> tuple:
    """Solve J P J^T = B = (lam_jk phi_j phi_k), given above the diagonal,
    for P; J[j][a] = d phi_j/d z_a must be lower triangular with J[k][k] =
    diag[k] (the predecessor polynomial).  Q = J^{-1} B = P J^T holds
    Q[j][k] = {z_j, phi_k}, polynomial whenever P is, so both forward
    substitutions divide exactly: J Q = B above the diagonal, all that
    J P^T = Q^T reads to solve P^T below it.  J is invertible and B skew,
    so P and -P^T both solve it: P is skew, and each mirror entry is
    exactly the negation of the solved one.  Returns (P, Q), dense lists of
    Polys, Q zero on and below the diagonal."""
    l = len(B)
    for j in range(l):
        for a in range(j + 1, l):
            if not J[j][a].is_zero():
                raise NonPolynomialStructure("Jacobian is not lower triangular")
        if J[j][j] != diag[j]:
            raise NonPolynomialStructure("diagonal is not the predecessor")

    Q = _solve_lower(J, B)
    P = [list(c) for c in zip(*_solve_lower(J, list(zip(*Q)), skew=True))]

    for row in P:
        for x in row:
            if not x.is_zero() and x.min_degree() < 1:
                raise NonPolynomialStructure("pullback does not vanish at 0")
    return P, Q


def build_cell(m: int, word) -> SchubertCell:
    """Construct the full cell data for a reduced word: the triangular
    polynomial system, its log-canonical coefficient matrix, the bracket
    table of the z-coordinates obtained by pulling the constant-coefficient
    structure back through the triangular change of variables, and the
    linearization at the origin.  Every pair of the system is checked to be
    log-canonical with the expected coefficient: for j < k, {phi_j, phi_k}
    = sum_{a <= j} J[j][a] {z_a, phi_k} must be B[j][k] = (J Q)[j][k], and
    as J is lower triangular with a nonzero diagonal, that holds for all
    j < k exactly when each {z_j, phi_k} under P equals Q[j][k]."""
    if not isinstance(word, ReducedWord):
        word = ReducedWord(word, m)
    if word.m != m:
        raise WrongWord(f"reduced word is for m={word.m}, the cell for m={m}")
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
    J = [gradient(phi, vars)[0] for phi in phis]
    zero = Poly.zero(vars)
    B = [[phis[j] * phis[k] * lam[j][k] if k > j and lam[j][k] else zero
          for k in range(l)] for j in range(l)]
    P, Q = _pullback_structure(J, B, diag)
    pi_z = PoissonStructure(vars, P)
    for k in range(1, l):
        field = [dot(vars, zip(row, J[k])) for row in pi_z.bracket_matrix[:k]]
        for j in range(k):
            if field[j] != Q[j][k]:
                raise NonPolynomialStructure(
                    f"bracket of pair ({j + 1},{k + 1}) is not the expected multiple"
                )
    pi0 = linearize(pi_z)
    return SchubertCell(m, word, vars, phis, lam, pi_z, pi0, kminus, kplus,
                        [lowest_term(p) for p in phis])


def choose_integrable_system(
    cell: SchubertCell, seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES
) -> IntegrableSystemReport:
    """The cell's ``SeedLows``, certified: the lowest terms whose degree
    jumps over the predecessor's, labelled by k, the other lows as
    ``others``, and the frozen lows' degrees as the magic number."""
    lows = cell.lows()
    selected = degree_jumps(cell.low_degrees(), cell.kminus)
    word = ",".join(map(str, cell.word.letters))
    return certify(SeedLows(cell.pi0, [lows[k - 1] for k in selected], selected,
                            [f for k, f in enumerate(lows, 1) if k not in selected],
                            magic_number(cell), f"schubert m={cell.m} word={word}"), seed, samples)


def magic_number(cell: SchubertCell) -> int:
    return sum(cell.phi_lows[k - 1][1] for k in cell.frozen_indices())


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
    pf = pfaffian_coefficient(LogCanonicalSystem(cell.vars, cell.phis, cell.lam))
    prod = Poly.const(cell.vars, 1)
    for k in cell.frozen_indices():
        prod = prod * cell.phis[k - 1]
    ratio = pf / prod
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
