"""The dual Poisson-Lie group of GL(n): staircase determinants and their
trailing minors, the deformed Casimir coefficients from the pencil
det(lam Y + X), lowest degree terms at the identity both as the same
minors and pencil of the truncated exponentials of u and in closed form as
minors of the Krylov matrix of u, the selection of the integrable system on
the matrix coalgebra, and the birational Krylov map."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

from .errors import SingularLocus, SizeOutOfRange
from .poisson_core import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    IntegrableSystemReport,
    LinearPoissonStructure,
    PoissonStructure,
    certify,
    log_volume,
)
from .polyring import (
    Poly,
    PolyMatrix,
    RatFun,
    VarSet,
    adjugate,
    det,
    inverse,
    lowest_term,
    minors,
    truncated_exp,
)
from .rationals import QQ, QQ0, QQ1, _sign


# -- variable sets -------------------------------------------------------------


def entry_index(n: int) -> dict:
    """Name -> (kind, i, j) of the upper entries of X and the lower entries
    of Y, diagonals included.  The names run the indices together, so they
    are read through this map, never parsed (x110 is x_{1,10} at n >= 10)."""
    index = {f"x{i}{j}": ("x", i, j) for i in range(1, n + 1) for j in range(i, n + 1)}
    index.update(
        {f"y{i}{j}": ("y", i, j) for i in range(1, n + 1) for j in range(1, i + 1)}
    )
    return index


def bb_varset(n: int) -> VarSet:
    """Upper entries of X and lower entries of Y, diagonal included on both."""
    return VarSet(entry_index(n))


def chart_varset(n: int) -> VarSet:
    """Free coordinates of the dual group: y_ii is eliminated by x_ii*y_ii = 1."""
    return VarSet(
        nm for nm, (kind, i, j) in entry_index(n).items() if kind == "x" or i != j
    )


def u_varset(n: int) -> VarSet:
    """Entries of an n x n matrix.  The names run the indices together, so
    they collide from n = 11 on (u1_11 and u11_1 are both u111)."""
    if n >= 11:
        raise SizeOutOfRange(f"gl({n}) entry names collide; the largest supported n is 10")
    return VarSet([f"u{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)])


def x_matrix(n: int, vars: VarSet) -> PolyMatrix:
    return PolyMatrix(
        [
            [
                Poly.var(vars, f"x{i}{j}") if i <= j else Poly.zero(vars)
                for j in range(1, n + 1)
            ]
            for i in range(1, n + 1)
        ]
    )


def y_matrix(n: int, vars: VarSet) -> PolyMatrix:
    return PolyMatrix(
        [
            [
                Poly.var(vars, f"y{i}{j}") if i >= j else Poly.zero(vars)
                for j in range(1, n + 1)
            ]
            for i in range(1, n + 1)
        ]
    )


# -- the Poisson structure on the free chart ------------------------------------


@dataclass
class DualGroupChart:
    n: int
    vars: VarSet
    pi_dual: PoissonStructure

    def x_entry(self, i, j) -> Poly:
        if i > j:
            return Poly.zero(self.vars)
        return Poly.var(self.vars, f"x{i}{j}")

    def y_entry(self, i, j) -> Poly | RatFun:
        """A Poly, except y_ii = 1/x_ii."""
        if i < j:
            return Poly.zero(self.vars)
        if i == j:
            return RatFun(Poly.const(self.vars, 1), Poly.var(self.vars, f"x{i}{i}"))
        return Poly.var(self.vars, f"y{i}{j}")


def build_dual_chart(n: int) -> DualGroupChart:
    """Bracket matrix of the free coordinates: the double-group bracket with
    the overall sign flipped and the diagonal of Y eliminated."""
    if n < 2:
        raise SizeOutOfRange(f"the dual group chart needs n >= 2, got {n}")
    vars = chart_varset(n)
    chart = DualGroupChart(n, vars, None)
    entries = entry_index(n)
    coords = [entries[nm] for nm in vars.names]
    size = len(coords)
    mat = [[None] * size for _ in range(size)]
    for a in range(size):
        mat[a][a] = Poly.zero(vars)
        for b in range(a + 1, size):
            ka, ia, ja = coords[a]
            kb, ib, jb = coords[b]
            val = -_double_bracket(chart, ka, ia, ja, kb, ib, jb)
            mat[a][b] = val
            mat[b][a] = -val
    chart.pi_dual = PoissonStructure(vars, mat)
    return chart


def _double_bracket(chart: DualGroupChart, a_kind, i, j, b_kind, p, q) -> Poly | RatFun:
    """The three bracket families on the double group, between the entries
    (i, j) of a_kind and (p, q) of b_kind, in the chart's coordinates."""
    if a_kind == "x" and b_kind == "x":
        c = QQ(_sign(p - i) + _sign(q - j), 2)
        return chart.x_entry(i, q) * chart.x_entry(p, j) * c
    if a_kind == "y" and b_kind == "y":
        c = QQ(_sign(p - i) + _sign(q - j), 2)
        return chart.y_entry(i, q) * chart.y_entry(p, j) * c
    if a_kind == "y" and b_kind == "x":
        return (
            chart.y_entry(i, q) * chart.x_entry(p, j) * QQ(1 + _sign(q - j), 2)
            - chart.x_entry(i, q) * chart.y_entry(p, j) * QQ(1 + _sign(i - p), 2)
        )
    # {x, y} = -{y, x}
    return -_double_bracket(chart, "y", p, q, "x", i, j)


def kks_gl(n: int) -> LinearPoissonStructure:
    """Linear structure of the matrix coalgebra on entry coordinates:
    {u_pq, u_rs} = delta_ps u_rq - delta_rq u_ps."""
    u = u_poly_matrix(n).entries
    vars = u[0][0].vars
    zero = Poly.zero(vars)
    order = [(i, j) for i in range(n) for j in range(n)]
    mat = [[(u[r][q] if p == s else zero) - (u[p][s] if r == q else zero)
            for r, s in order] for p, q in order]
    return LinearPoissonStructure(vars, mat)


# -- staircase system ------------------------------------------------------------


@dataclass
class StaircaseSystem:
    n: int
    bb_vars: VarSet
    phis: list  # Poly over bb_vars, index 1..(n-1)^2
    cbar_nums: list  # polynomial numerators of cbar_i over detY, i in 0..n
    lam_matrix: PolyMatrix  # the uncut staircase, size n(n-1)

    def lambdas(self):
        return trailing_minors(self.lam_matrix)

    def cbar(self, i: int, chart: DualGroupChart) -> Poly | RatFun:
        """cbar_i = cbar_num_i / det(Y) restricted to the chart, where
        y_ii = 1/x_ii makes det(Y) = 1/(x_11 ... x_nn)."""
        num = restrict_to_chart(self.cbar_nums[i], chart)
        for t in range(1, self.n + 1):
            num = num * chart.x_entry(t, t)
        return num

    def restricted_system(self, chart: DualGroupChart):
        """phi's, the off-corner diagonal of X, and the deformed Casimirs."""
        n = self.n
        funcs = [restrict_to_chart(phi, chart) for phi in self.phis]
        funcs += [chart.x_entry(i, i) for i in range(2, n + 1)]
        funcs += [self.cbar(i, chart) for i in range(0, n)]
        return funcs


def restrict_to_chart(p: Poly, chart: DualGroupChart) -> Poly | RatFun:
    """p with y_ii = 1/x_ii: a RatFun when p has a diagonal entry of Y."""
    mapping = {}
    entries = entry_index(chart.n)
    for nm in p.vars.names:
        kind, i, j = entries[nm]
        if kind == "y" and i == j:
            mapping[nm] = chart.y_entry(i, i)
        else:
            mapping[nm] = Poly.var(chart.vars, nm)
    return p.substitute(mapping, Poly.const(chart.vars, 1))


def full_staircase_matrix(X: PolyMatrix, Y: PolyMatrix) -> PolyMatrix:
    """The uncut n(n-1) staircase of two n x n Poly matrices: Y-blocks
    on the diagonal, X-blocks below, each without its first row.  Its
    trailing minors interleave the phi's, the trailing minors of its
    leading (n-1)^2 block, with the trailing diagonal products of X."""
    n = X.rows
    size = n * (n - 1)
    zero = X[0, 0] - X[0, 0]
    ent = [[zero for _ in range(size)] for _ in range(size)]

    def put(block, row0, col0):
        for a in range(n - 1):
            for b in range(n):
                ent[row0 + a][col0 + b] = block.entries[a + 1][b]

    for q in range(n - 1):
        put(Y, q * (n - 1), q * n)
        put(X, (q + 1) * (n - 1), q * n)
    return PolyMatrix(ent)


def trailing_minors(mat: PolyMatrix, cap=None) -> list:
    """The principal minors on rows and columns [i, size], i = 1..size,
    from one ``minors`` table, cut at ``cap`` as ``minors`` cuts them."""
    table = minors(mat, cap)
    size = mat.rows
    return [table(range(i, size), range(i, size)) for i in range(size)]


def pencil_coefficients(A: PolyMatrix, B: PolyMatrix, cap=None) -> list:
    """The coefficients c_0, ..., c_n of det(lam A + B) = sum_k c_k lam^k,
    for n x n Poly matrices, cut at ``cap`` as ``minors`` cuts them.  The
    determinant is multilinear in its rows, so c_k is the sum over the
    k-sets S of rows of the determinant with row i from A for i in S and
    from B otherwise: a minor of the 2n x n matrix of rows A_0, B_0, A_1,
    B_1, ..., on increasing rows, so all 2^n of them come from one
    ``minors`` table."""
    n = A.rows
    table = minors(PolyMatrix([row for pair in zip(A.entries, B.entries) for row in pair]), cap)
    cols = range(n)
    return [reduce(operator.add, [table([2 * i + (i not in S) for i in range(n)], cols)
                                  for S in combinations(range(n), k)])
            for k in range(n + 1)]


def build_staircase(n: int) -> StaircaseSystem:
    if n < 2:
        raise SizeOutOfRange(f"the staircase needs n >= 2, got {n}")
    vars = bb_varset(n)
    X = x_matrix(n, vars)
    Y = y_matrix(n, vars)
    lam_matrix = full_staircase_matrix(X, Y)
    lead = range((n - 1) ** 2)
    phis = trailing_minors(lam_matrix.submatrix(lead, lead))
    # det((lam-1) Y + X) = sum over i of cbar_num_i(x, y) lam^i, so that
    # cbar_i = cbar_num_i / det(Y)
    cbar_nums = pencil_coefficients(Y, X + Y.map(operator.neg))
    return StaircaseSystem(n, vars, phis, cbar_nums, lam_matrix)


# -- lowest terms via jets --------------------------------------------------------


def exp_jets(n: int, order: int):
    """The two exponential factors X and Y, cut at ``order`` by
    ``truncated_exp``: the upper one carries half the diagonal of u, the
    lower one minus the other half, so their difference of logarithms is u."""
    u = u_poly_matrix(n).entries
    zero = u[0][0] * 0
    half = QQ(1, 2)
    xm = PolyMatrix([[u[i][j] * half if i == j else u[i][j] if i < j else zero
                      for j in range(n)] for i in range(n)])
    ym = PolyMatrix([[-u[i][j] * half if i == j else -u[i][j] if i > j else zero
                      for j in range(n)] for i in range(n)])
    return truncated_exp(xm, order), truncated_exp(ym, order)


@dataclass
class JetLows:
    n: int
    order: int  # the jet order the lows were read at
    u_vars: VarSet
    phi_lows: list  # (Poly, degree) for i in 1..(n-1)^2
    cbar_lows: list  # (Poly, degree) for i in 0..n-1


def lows_order(n: int) -> int:
    """The largest degree among the lowest terms of the restricted system:
    c(c+1)/2 for a phi whose closed form (``lows_closed_form``) has c Krylov
    columns, at most n-1 of them, and n - i for cbar_i."""
    return max(n * (n - 1) // 2, n)


def lows_via_jets(s: StaircaseSystem) -> JetLows:
    """Exact lowest terms of the restricted system in the difference-of-
    logarithms coordinates: the phi's and cbar's as minors of the staircase
    and the pencil of ``exp_jets``, capped and read at the jet order
    ``lows_order(n)``."""
    return _jet_lows_at(s, lows_order(s.n))


def _jet_lows_at(s: StaircaseSystem, D: int) -> JetLows:
    """The lows at jet order D; raises TruncationInsufficient when one lies
    above D."""
    n = s.n
    X, Y = exp_jets(n, D)
    lead = range((n - 1) ** 2)
    phis = trailing_minors(full_staircase_matrix(X, Y).submatrix(lead, lead), D)
    cbars = pencil_coefficients(Y, X + Y.map(operator.neg), D)[:n]
    lows = [lowest_term(f, D) for f in phis + cbars]
    k = len(phis)
    return JetLows(n, D, X[0, 0].vars, lows[:k], lows[k:])


# -- closed-form lowest terms -------------------------------------------------------


def u_poly_matrix(n: int) -> PolyMatrix:
    uv = u_varset(n)
    return PolyMatrix(
        [[Poly.var(uv, f"u{i}{j}") for j in range(1, n + 1)] for i in range(1, n + 1)]
    )


def krylov_columns(u_rows, count: int):
    """Columns u e_1, u^2 e_1, ..., u^count e_1 of a square matrix given by
    its rows, over any ring."""
    if count == 0:
        return []
    col = [row[0] for row in u_rows]
    cols = [col]
    for _ in range(count - 1):
        col = [
            sum((row[k] * col[k] for k in range(1, len(col))), row[0] * col[0])
            for row in u_rows
        ]
        cols.append(col)
    return cols


def lows_closed_form(n: int, p: int, i: int) -> Poly:
    """Lowest term (up to sign) of the staircase minor indexed by
    k = p(n-1)+i, as a determinant mixing standard basis columns and Krylov
    columns of u."""
    if not (1 <= i <= n - 1 and 0 <= p <= n - 2):
        raise SizeOutOfRange(f"index (p, i) = ({p}, {i}) out of range for n={n}")
    uv = u_varset(n)
    u = u_poly_matrix(n).entries

    def e_col(t):
        return [Poly.const(uv, 1) if r == t else Poly.zero(uv) for r in range(1, n + 1)]

    if i <= p + 1:
        kry = krylov_columns(u, n - p - 1)
        cols = [e_col(t) for t in range(n - p + i, n + 1)]
        cols += [e_col(t) for t in range(i, 1, -1)]
        cols += [kry[t] for t in range(n - p - 2, -1, -1)]
        cols += [e_col(1)]
    else:
        kry = krylov_columns(u, n - p - 2)
        cols = [e_col(t) for t in range(i - p, i + 1)]
        cols += [kry[t] for t in range(n - p - 3, -1, -1)]
        cols += [e_col(1)]
    return det(PolyMatrix([[c[r] for c in cols] for r in range(n)]))


def lows_minor_sum(n: int, p: int, i: int) -> Poly:
    """The same lowest term written as the Krylov-matrix minor of part two of
    the selection theorem (valid for i <= p+1)."""
    if not i <= p + 1:
        raise SizeOutOfRange(f"the Krylov-minor form requires i <= p+1, got p={p}, i={i}")
    count = n - p - 1
    if count == 0:
        return Poly.const(u_varset(n), 1)
    cols = krylov_columns(u_poly_matrix(n).entries, count)
    rows = list(range(i + 1, n - p + i))
    return det(
        PolyMatrix([[cols[c][r - 1] for c in range(count)] for r in rows])
    )


def minor_product_expansion(n: int, p: int, i: int) -> Poly:
    """Sum over nested column sets of products of minors of u; equals the
    Krylov-matrix minor by iterated Binet-Cauchy."""
    if i <= p + 1:
        I1 = list(range(i + 1, n - p + i))
    else:
        I1 = list(range(2, i - p)) + list(range(i + 1, n + 1))
    if not I1:
        return Poly.const(u_varset(n), 1)
    return _nested_minor_sum(minors(u_poly_matrix(n)), n, I1)


def _nested_minor_sum(u, n: int, rows) -> Poly:
    """Sum over the column sets C in 2..n with one column fewer than
    ``rows`` of the minor of u on rows and columns {1} + C, times the same
    sum on the rows C; the minor on rows and column 1 for a single row.
    ``u`` is the ``minors`` table of the generic n x n matrix."""
    rows0 = [r - 1 for r in rows]
    if len(rows) == 1:
        return u(rows0, [0])
    return sum(u(rows0, [0] + [c - 1 for c in nxt]) * _nested_minor_sum(u, n, nxt)
               for nxt in combinations(range(2, n + 1), len(rows) - 1))


# -- the Krylov map -------------------------------------------------------------------


def F_map(u):
    """Columns u e_1, ..., u^n e_1 of a rational square matrix."""
    cols = krylov_columns([[QQ(x) for x in row] for row in u], len(u))
    return [list(row) for row in zip(*cols)]


def F_inverse(f):
    """u = f * [e_1 | f^{(columns 1..n-1)}]^{-1}; defined when the minor of f
    on rows 2..n and columns 1..n-1 does not vanish.  The inverse and the
    product are taken of constant Polys over ``u_varset(n)``, whose values
    are read back."""
    n = len(f)
    uv = u_varset(n)
    f = PolyMatrix([[Poly.const(uv, x) for x in row] for row in f])
    ftilde = PolyMatrix([[Poly.const(uv, 1 if i == 0 else 0)] + f.entries[i][:n - 1]
                         for i in range(n)])
    try:
        inv = inverse(ftilde)
    except SingularLocus:
        raise SingularLocus("the leading Krylov minor vanishes") from None
    return (f * inv).map(Poly.constant_value).entries


# -- checks and selection ----------------------------------------------------------------


def casimir_binomial_check(n: int) -> bool:
    """cbar_i = sum_{j>=i} (-1)^(j-i) binom(j, i) C_{n-j}, symbolically,
    where det(lam Y + X) = det(Y) sum over j of C_{n-j} lam^j.  Both sides
    are over det(Y), so the check compares numerators."""
    s = build_staircase(n)
    vars = s.bb_vars
    pencil = pencil_coefficients(y_matrix(n, vars), x_matrix(n, vars))
    for i in range(0, n + 1):
        rhs = Poly.zero(vars)
        for j in range(i, n + 1):
            rhs = rhs + pencil[j] * (QQ(math.comb(j, i)) * (-1) ** (j - i))
        if s.cbar_nums[i] != rhs:
            return False
    return True


def choose_integrable_system_dualgl(
    n: int,
    s: StaircaseSystem = None,
    jets: JetLows = None,
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
) -> IntegrableSystemReport:
    """The lowest terms of the staircase minors with row index at most p+1,
    together with all deformed Casimir lowest terms; certified involutive
    under the coalgebra structure and of the expected cardinality."""
    if s is None:
        s = build_staircase(n)
    if jets is None:
        jets = lows_via_jets(s)
    selected = []
    labels = []
    for p in range(0, n - 1):
        for i in range(1, n):
            if i <= p + 1:
                k = p * (n - 1) + i
                selected.append(jets.phi_lows[k - 1][0])
                labels.append(f"phi{k}")
    for i in range(0, n):
        selected.append(jets.cbar_lows[i][0])
        labels.append(f"cbar{i}")
    return certify(selected, kks_gl(n), jets.u_vars, (n * n + n) // 2,
                   seed, samples, f"dualgl n={n}", labels)


def log_volume_identity_check(n: int, s: StaircaseSystem = None) -> bool:
    """The log-volume form mu of the restricted system (``log_volume``)
    against the closed form 2 (x_11 ... x_nn)^n / (cbar_0 ... cbar_{n-1}),
    up to sign, plus the degree count (n^2 - n)/2 of its lowest term at the
    identity."""
    if s is None:
        s = build_staircase(n)
    chart = build_dual_chart(n)
    funcs = s.restricted_system(chart)
    mu = log_volume(funcs, chart.vars).coefficient
    cbars = [RatFun.from_poly(c) if isinstance(c, Poly) else c for c in funcs[-n:]]
    lhs, rhs = mu, Poly.const(chart.vars, 2)
    for i, c in enumerate(cbars, 1):
        lhs = lhs * c
        rhs = rhs * chart.x_entry(i, i) ** n
    if not (lhs == rhs or lhs == -rhs):
        return False
    # lowest degrees at the identity (x_ii = 1) add over products, so mu, now
    # known to be the closed form, has minus the sum of those of the cbar's
    entries = entry_index(n)
    point = [
        QQ1 if kind == "x" and i == j else QQ0
        for kind, i, j in (entries[nm] for nm in chart.vars.names)
    ]
    deg = sum(c.den.shift(point).min_degree() - c.num.shift(point).min_degree()
              for c in cbars)
    return deg + len(chart.vars) == (n * n - n) // 2


def trailing_minor_closed_form_check(n: int, s: StaircaseSystem = None) -> bool:
    """Every trailing staircase minor factors, up to sign, as a power of
    det(Y) times a principal block of Y times a determinant of columns drawn
    from powers of U = X Y^{-1}.  On Polys: a column of U^t is that of V^t,
    V = X adj(Y), over det(Y)^t, and each side is cleared by a power of det(Y)."""
    if s is None:
        s = build_staircase(n)
    vars = s.bb_vars
    X = x_matrix(n, vars)
    Y = y_matrix(n, vars)
    adj, detY = adjugate(Y)
    blocks = trailing_minors(Y)
    V = X * adj
    vpow = [PolyMatrix.identity(vars, n)]
    for _ in range(n):
        vpow.append(vpow[-1] * V)
    lams = s.lambdas()

    for p in range(0, n - 1):
        for i in range(1, n):
            # (power t, column c) of each column of V^t in the factor, the
            # first index a of the principal block of Y and the power of det(Y)
            if i <= p:
                cols = [(n - p, c) for c in range(n - p + i, n + 1)]
                cols += [(n - p - 1, c) for c in range(1, i + 1)]
                a, scale = n - p + i - 1, n - p - 1
            else:
                cols = [(n - p - 1, c) for c in range(i - p, i + 1)]
                a, scale = i - p - 1, n - p - 2
            cols += [(t, 1) for t in range(n - p - 2, -1, -1)]
            cleared = sum(t for t, _ in cols)
            m = PolyMatrix([[vpow[t].entries[r][c - 1] for t, c in cols] for r in range(n)])
            lhs = lams[p * (n - 1) + i - 1] * detY ** max(cleared - scale, 0)
            rhs = blocks[a] * det(m) * detY ** max(scale - cleared, 0)
            if not (lhs == rhs or lhs == -rhs):
                return False
    return True
