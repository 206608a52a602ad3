"""Cluster functions on SL(n+1) built from a double reduced word of the
longest element: the frozen-variable modification, lowest degree terms at
the identity via truncated exponentials, the selection of a polynomial
integrable system on the linearization, and the index of the dual Lie
algebra via Kostant's cascade of strongly orthogonal roots."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import CountShortfall, SizeOutOfRange, WrongWord
from .poisson_core import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    IntegrableSystemReport,
    LinearPoissonStructure,
    PoissonStructure,
    certify,
)
from .polyring import (
    Poly,
    PolyMatrix,
    RatFun,
    VarSet,
    _pivot_columns,
    _sign_canonical,
    det,
    dot,
    inverse,
    jacobian,
    lowest_term,
    minors,
    truncated_exp,
)
from .rationals import QQ, QQ0, QQ1, _sign
from .schubert import build_cell
from .typea import (
    ReducedWord,
    WeylElt,
    bott_samelson,
    fundamental_weight,
    kplus_kminus,
    longest_word,
    pairing,
    simple_root,
    weyl_matrix,
)


@dataclass
class DoubleWord:
    neg: ReducedWord
    pos: ReducedWord

    def __post_init__(self):
        m = self.neg.m
        w0 = WeylElt.longest(m)
        if self.neg.element() != w0 or self.pos.element() != w0:
            raise WrongWord("both halves must be reduced words of the longest element")


def standard_double_word(n: int) -> DoubleWord:
    w = longest_word(n + 1)
    return DoubleWord(w, w)


# -- the ambient chart -------------------------------------------------------


def sl_varset(n: int) -> VarSet:
    """Free coordinates of a traceless (n+1)x(n+1) matrix: all entries except
    the last diagonal one.  The names run the indices together, so they
    collide from n = 10 on (u1_11 and u11_1 are both u111)."""
    if n < 1:
        raise SizeOutOfRange(f"the SL(n+1) chart needs n >= 1, got {n}")
    if n >= 10:
        raise SizeOutOfRange(f"SL({n + 1}) entry names collide; the largest supported n is 9")
    m = n + 1
    names = [
        f"u{i}{j}" for i in range(1, m + 1) for j in range(1, m + 1)
        if (i, j) != (m, m)
    ]
    return VarSet(names)


def sl_u_matrix(n: int, vars: VarSet = None) -> PolyMatrix:
    """The traceless (n+1)x(n+1) matrix of the coordinates ``sl_varset(n)``:
    its last diagonal entry is minus the sum of the others."""
    m = n + 1
    if vars is None:
        vars = sl_varset(n)
    u = [[Poly.var(vars, f"u{i}{j}") if (i, j) != (m, m) else None
          for j in range(1, m + 1)] for i in range(1, m + 1)]
    u[n][n] = -sum((u[t][t] for t in range(n)), Poly.zero(vars))
    return PolyMatrix(u)


def sl_dual_linear_structure(n: int) -> LinearPoissonStructure:
    """Linearization at the identity of the multiplicative structure on
    SL(n+1): the degree-1 part of (sign(p-i)+sign(q-j))/2 * x_iq * x_pj in
    exponential coordinates, restricted to traceless matrices."""
    m = n + 1
    vars = sl_varset(n)
    u = sl_u_matrix(n, vars).entries
    zero = Poly.zero(vars)
    pairs = [(i, j) for i in range(m) for j in range(m) if (i, j) != (n, n)]
    mat = [[((u[p][j] if i == q else zero) + (u[i][q] if p == j else zero))
            * QQ(_sign(p - i) + _sign(q - j), 2)
            for p, q in pairs] for i, j in pairs]
    return LinearPoissonStructure(vars, mat)


def minor(table, rows, cols):
    """The minor on 1-based ``rows`` and ``cols`` from a ``minors`` table."""
    return table([r - 1 for r in rows], [c - 1 for c in cols])


def interval(a: int, b: int):
    return list(range(a, b + 1))


# -- the cluster -------------------------------------------------------------


@dataclass
class BFZCluster:
    n: int
    dword: DoubleWord
    vars: VarSet
    order: int  # every function below is a Poly cut at this total degree
    fs: list  # index i in [1, r]
    phis: list  # index k in [1, l0]
    psis: list  # index k in [1, l0]
    g_index: dict  # i -> k with psi_k the last occurrence of letter i
    gprimes: dict  # i in I2 -> f_i g_i - f_{i*} g_{i*}
    I0: list
    I1: list
    I2: list

    @property
    def l0(self) -> int:
        return len(self.phis)

    def istar(self, i: int) -> int:
        return self.n + 1 - i

    def g(self, i: int) -> Poly:
        return self.psis[self.g_index[i] - 1]

    def modified_functions(self):
        """The extended cluster after the frozen modification: f's, phi's and
        psi's, with the last-occurrence psi of each letter in I2 replaced by
        the corresponding difference function."""
        funcs = list(self.fs) + list(self.phis)
        replaced = {self.g_index[i]: i for i in self.I2}
        for k in range(1, self.l0 + 1):
            if k in replaced:
                funcs.append(self.gprimes[replaced[k]])
            else:
                funcs.append(self.psis[k - 1])
        return funcs


def _istar_sets(n: int):
    I0, I1, I2 = [], [], []
    for i in range(1, n + 1):
        istar = n + 1 - i
        if i == istar:
            I0.append(i)
        elif i < istar:
            I1.append(i)
        else:
            I2.append(i)
    return I0, I1, I2


def gexp_order(n: int) -> int:
    """The largest degree among the closed-form lowest terms of
    ``gexp_formulas(n)``, from their minor sizes: every form is one minor of
    size at most (n+1)/2, except the difference lows of i in I2, products
    of minors of sizes n-i+1 and n-i+2.

    The order holds for every double word, not only the standard one:

    - A minor Delta_{I,J}(exp u) has lowest term +-Delta_{I\\J, J\\I}(u), a
      minor of u on disjoint rows and columns.  It avoids the diagonal, so
      it is nonzero, and its degree |I\\J| is at most (n+1)/2.
    - The last-occurrence g_i does not depend on the word: the suffix after
      the last s_i fixes [1, i].  So the f's, g's and difference functions
      are the standard ones for every double word."""
    return max([(n + 1) // 2] + [2 * (n - i) + 3 for i in _istar_sets(n)[2]])


def build_bfz(n: int, dword: DoubleWord = None) -> BFZCluster:
    """Evaluate the extended cluster at a truncated exponential of a traceless
    matrix, cut at the jet order ``gexp_order(n)``, where every lowest term
    shows."""
    if dword is None:
        dword = standard_double_word(n)
    m = n + 1
    if dword.neg.m != m:
        raise WrongWord(f"double word is for SL({dword.neg.m}), expected SL({m})")
    return _build_at_order(n, dword, gexp_order(n))


def cluster_minors(table, n: int, dword: DoubleWord):
    """The extended cluster as minors from ``table``, a ``minors`` table of
    an (n+1)x(n+1) matrix or any map (0-based rows, cols) -> value: the
    frozen f's, the phi's of the negative word, the psi's of the positive
    word, and the map letter i -> k with psi_k the letter's last occurrence."""
    m = n + 1
    w0 = WeylElt.longest(m)
    fs = [minor(table, interval(1, i), w0.act_set(interval(1, i))) for i in range(1, n + 1)]

    neg = dword.neg
    phis = []
    for k in range(1, len(neg) + 1):
        ik = neg.letters[k - 1]
        phis.append(minor(table, neg.prefix(k).act_set(interval(1, ik)), w0.act_set(interval(1, ik))))

    pos = dword.pos
    l0 = len(pos)
    psis = []
    for k in range(1, l0 + 1):
        jk = pos.letters[k - 1]
        suffix = WeylElt.identity(m)
        for t in range(l0, k, -1):
            suffix = suffix * WeylElt.simple(pos.letters[t - 1], m)
        psis.append(minor(table, w0.act_set(interval(1, jk)), suffix.act_set(interval(1, jk))))

    g_index = {letter: k for k, letter in enumerate(pos.letters, 1)}
    return fs, phis, psis, g_index


def _build_at_order(n, dword, D):
    """The cluster cut at jet order D; raises TruncationInsufficient when a
    modified lowest term lies above D."""
    vars = sl_varset(n)
    X = truncated_exp(sl_u_matrix(n, vars), D)
    fs, phis, psis, g_index = cluster_minors(minors(X, D), n, dword)
    I0, I1, I2 = _istar_sets(n)
    # f_i g_i - f_{i*} g_{i*} with i* = n + 1 - i, by one capped product
    gprimes = {i: dot(vars, [(fs[i - 1], psis[g_index[i] - 1]),
                             (-fs[n - i], psis[g_index[n + 1 - i] - 1])], D) for i in I2}

    cluster = BFZCluster(
        n, dword, vars, D, fs, phis, psis, g_index, gprimes, I0, I1, I2
    )
    for f in cluster.modified_functions():
        lowest_term(f, D)
    return cluster


# -- closed forms at the standard word ----------------------------------------


def gexp_formulas(n: int) -> dict:
    """The closed-form lowest terms at the standard double word, as
    polynomials in the plain traceless matrix (sign conventions are left
    open: every comparison is up to sign)."""
    m = n + 1
    vars = sl_varset(n)
    u = minors(sl_u_matrix(n, vars))

    cluster_lows = set()
    for k in range(2, m + 1):
        for l in range(k, m + 1):
            if 2 * l <= n + k:
                cluster_lows.add(_sign_canonical(minor(u, interval(k, l), interval(n + k - l + 1, m))))
                cluster_lows.add(_sign_canonical(minor(u, interval(n + k - l + 1, m), interval(k, l))))

    f_lows = {}
    # the i x i minor formula requires i <= n+1-i
    for i in range(1, m // 2 + 1):
        f_lows[i] = minor(u, interval(1, i), interval(n - i + 2, m))

    g_lows = {}
    I0, I1, _ = _istar_sets(n)
    for i in I0 + I1:
        g_lows[i] = minor(u, interval(n - i + 2, m), interval(1, i))

    gprime_lows = {}
    for i in _istar_sets(n)[2]:
        total = Poly.zero(vars)
        left = interval(1, n - i + 1)
        right = interval(i + 1, m)
        for k in range(n - i + 2, i + 1):
            total = total + minor(u, right, left) * minor(u, left + [k], right + [k])
            total = total + minor(u, left, right) * minor(u, right + [k], left + [k])
        gprime_lows[i] = total

    return {
        "cluster": cluster_lows,
        "f": f_lows,
        "g": g_lows,
        "gprime": gprime_lows,
    }


def _up_to_sign(a: Poly, b: Poly) -> bool:
    return a == b or a == -b


def gexp_check(n: int, cluster: BFZCluster = None) -> bool:
    """Verify the closed-form lowest terms at the standard double word."""
    if cluster is None:
        cluster = build_bfz(n)
    std = standard_double_word(n)
    if (
        tuple(cluster.dword.neg.letters) != tuple(std.neg.letters)
        or tuple(cluster.dword.pos.letters) != tuple(std.pos.letters)
    ):
        raise WrongWord("closed forms hold for the standard double word only")
    forms = gexp_formulas(n)
    m = n + 1

    # frozen rows/columns formulas
    for i in range(1, n + 1):
        low_i, _ = lowest_term(cluster.fs[i - 1], cluster.order)
        low_star, _ = lowest_term(cluster.fs[m - i - 1], cluster.order)
        if not _up_to_sign(low_i, low_star):
            return False
        if i in forms["f"] and not _up_to_sign(low_i, forms["f"][i]):
            return False
    for i, expect in forms["g"].items():
        low_g, _ = lowest_term(cluster.g(i), cluster.order)
        if not _up_to_sign(low_g, expect):
            return False
    for i, expect in forms["gprime"].items():
        low_gp, _ = lowest_term(cluster.gprimes[i], cluster.order)
        if not _up_to_sign(low_gp, expect):
            return False

    # cluster-variable lows: the nonconstant ones match the two minor
    # families as sets; the constant ones are exactly the letters whose
    # suffix is empty
    got = set()
    _, kplus_neg = kplus_kminus(cluster.dword.neg)
    for k in range(1, cluster.l0 + 1):
        low_phi, d = lowest_term(cluster.phis[k - 1], cluster.order)
        if d == 0:
            if kplus_neg[k] is not None:
                return False
            continue
        got.add(_sign_canonical(low_phi))
    for k in range(1, cluster.l0 + 1):
        if k in {cluster.g_index[i] for i in range(1, n + 1)}:
            continue
        low_psi, d = lowest_term(cluster.psis[k - 1], cluster.order)
        if d == 0:
            return False
        got.add(_sign_canonical(low_psi))
    return got == forms["cluster"]


# -- selection ----------------------------------------------------------------


def choose_integrable_system_bfz(
    cluster: BFZCluster,
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
) -> IntegrableSystemReport:
    """Degree-jump selection over the combined word on the row side, the
    admissible last-occurrence rule on the column side, plus the modified
    difference functions; certified involutive and independent of the
    expected cardinality l0 + r."""
    n = cluster.n
    l0 = cluster.l0
    letters_combined = list(range(n, 0, -1)) + list(cluster.dword.neg.letters)
    index_of = list(range(-n, 0)) + list(range(1, l0 + 1))

    def fn_at(k):
        return cluster.fs[-k - 1] if k < 0 else cluster.phis[k - 1]

    degs = {}
    for k in index_of:
        _, d = lowest_term(fn_at(k), cluster.order)
        degs[k] = d

    # successors by position in the combined word; its first n letters are
    # distinct, so every successor is a phi
    _, kplus = kplus_kminus(letters_combined)
    selected = []
    labels = []
    for p, k in enumerate(index_of, start=1):
        succ_deg = degs[index_of[kplus[p] - 1]] if kplus[p] else 0
        if degs[k] == succ_deg + 1:
            selected.append(fn_at(k))
            labels.append(f"row{k}")

    kminus_pos, _ = kplus_kminus(cluster.dword.pos)
    g_of = {cluster.g_index[i]: i for i in range(1, n + 1)}
    psi_degs = {}
    for k in range(1, l0 + 1):
        _, d = lowest_term(cluster.psis[k - 1], cluster.order)
        psi_degs[k] = d

    def jump(k):
        pred = kminus_pos[k]
        pred_deg = psi_degs[pred] if pred else 0
        return psi_degs[k] == pred_deg + 1

    for k in range(1, l0 + 1):
        i = g_of.get(k)
        admissible = False
        if i not in cluster.I2 and jump(k):
            admissible = True
        if i in cluster.I1:
            k1 = cluster.g_index[cluster.istar(i)]
            if jump(k1):
                admissible = True
        if admissible:
            selected.append(cluster.psis[k - 1])
            labels.append(f"col{k}")
    for i in cluster.I2:
        selected.append(cluster.gprimes[i])
        labels.append(f"diff{i}")

    lows = [lowest_term(f, cluster.order)[0] for f in selected]
    word = ",".join(map(str, cluster.dword.neg.letters))
    return certify(lows, sl_dual_linear_structure(n), cluster.vars,
                   l0 + n, seed, samples,
                   f"bfz n={n} word={word} labels={';'.join(labels)}", labels)


# -- modified log-volume degree via jets ---------------------------------------


def modified_mu_low_degree(n: int) -> int:
    """deg of the lowest term of the log-volume form of the modified extended
    cluster, computed from the jet Jacobian in the exponential chart.

    The form is det(J) / prod(f) du, so its degree is deg det(J) + N - S,
    with N = |vars| and S the sum of the modified low degrees.  The paper's
    deg mu^low = l0 puts the lowest term of det(J) at degree l0 - N + S.  J
    is exact one order below the cluster, so its determinant is capped at
    D - 1, and one build at
    D = max(gexp_order(n), l0 - N + S + 1) shows that term: a larger true
    degree raises TruncationInsufficient, and a smaller one is returned.
    S comes from the minors' index sets, |I\\J| per minor (``gexp_order``)."""
    N = len(sl_varset(n))
    dword = standard_double_word(n)
    fs, phis, psis, _ = cluster_minors(lambda rows, cols: len(set(rows) - set(cols)), n, dword)
    # f_i g_i - f_i* g_i* replaces g_i for i in I2, at degree deg f_i + deg g_i + 1
    S = sum(fs) + sum(phis) + sum(psis) + sum(fs[i - 1] + 1 for i in _istar_sets(n)[2])
    D = max(gexp_order(n), len(phis) - N + S + 1)
    cluster = _build_at_order(n, dword, D)
    funcs = cluster.modified_functions()
    if len(funcs) != N:
        raise CountShortfall("modified cluster does not match the chart size")
    _, d = lowest_term(det(jacobian(funcs, cluster.vars), D - 1), D - 1)
    return d + N - sum(lowest_term(f, D)[1] for f in funcs)


# -- Kostant cascade and the index ----------------------------------------------


@dataclass
class CascadeData:
    n: int
    roots: list  # pairs (a, b) meaning eps_a - eps_b
    e_plus: list  # rational matrix
    e_minus: list

    def strongly_orthogonal(self) -> bool:
        roots = set(self.roots)
        for (a, b) in roots:
            for (c, d) in roots:
                if (a, b) >= (c, d):
                    continue
                for s in (1, -1):
                    coords = [0] * (self.n + 1)
                    coords[a - 1] += 1
                    coords[b - 1] -= 1
                    coords[c - 1] += s
                    coords[d - 1] -= s
                    nonzero = sorted(x for x in coords if x)
                    if nonzero == [-1, 1]:
                        return False
        return True


def kostant_cascade(n: int) -> CascadeData:
    """Greedy construction on type-A intervals: take the highest root of each
    orthogonal subsystem recursively."""
    if n < 1:
        raise SizeOutOfRange(f"the Kostant cascade needs n >= 1, got {n}")
    m = n + 1
    roots = []
    a, b = 1, m
    while a < b:
        roots.append((a, b))
        a, b = a + 1, b - 1
    e_plus = [[QQ0] * m for _ in range(m)]
    e_minus = [[QQ0] * m for _ in range(m)]
    for (i, j) in roots:
        e_plus[i - 1][j - 1] = QQ1
        e_minus[j - 1][i - 1] = QQ1
    data = CascadeData(n, roots, e_plus, e_minus)
    assert data.strongly_orthogonal(), "cascade failed strong orthogonality"
    return data


def _commutator(a, b):
    """ab - ba of two square matrices of rationals."""
    m = range(len(a))
    return [[sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in m) for j in m] for i in m]


def stabilizer_dimension(n: int) -> int:
    """Dimension of the stabilizer of e_+ + e_- in the dual Lie algebra: the
    solution space of the three membership conditions, expected to equal n."""
    m = n + 1
    cascade = kostant_cascade(n)
    ep, em = cascade.e_plus, cascade.e_minus

    # unknowns: h (m diagonal entries, trace pinned to 0 by an extra row),
    # n_+ entries (i<j), n_- entries (i>j)
    unknowns = []
    for t in range(m):
        unknowns.append(("h", t, t))
    for i in range(m):
        for j in range(m):
            if i < j:
                unknowns.append(("p", i, j))
    for i in range(m):
        for j in range(m):
            if i > j:
                unknowns.append(("m", i, j))

    def basis_matrix(i, j):
        e = [[QQ0] * m for _ in range(m)]
        e[i][j] = QQ1
        return e

    columns = []
    for kind, i, j in unknowns:
        e = basis_matrix(i, j)
        zero = [[QQ0] * m for _ in range(m)]
        h = e if kind == "h" else zero
        np_ = e if kind == "p" else zero
        nm_ = e if kind == "m" else zero
        c1 = _commutator([[h[a][b] + np_[a][b] for b in range(m)] for a in range(m)], em)
        c2 = [
            [
                x + y
                for x, y in zip(ra, rb)
            ]
            for ra, rb in zip(_commutator(np_, em), _commutator(nm_, ep))
        ]
        c3 = _commutator([[h[a][b] - nm_[a][b] for b in range(m)] for a in range(m)], ep)
        col = []
        # c1 strictly lower entries must vanish
        for a in range(m):
            for b in range(m):
                if a > b:
                    col.append(c1[a][b])
        # c2 diagonal entries must vanish
        for a in range(m):
            col.append(c2[a][a])
        # c3 strictly upper entries must vanish
        for a in range(m):
            for b in range(m):
                if a < b:
                    col.append(c3[a][b])
        # trace of h must vanish
        col.append(sum((h[a][a] for a in range(m)), QQ0))
        columns.append(col)

    # the rank of the system is the rank of its transpose, one row per unknown
    return len(unknowns) - len(_pivot_columns(columns))


# -- explicit chart on the open part of the group -------------------------------


@dataclass
class BFZChart:
    """The extended cluster as honest rational functions on the chart
    (b, a, eta) with eta_j = 1 + e_j, together with the full Poisson
    structure there: two Bott-Samelson blocks and torus mixing terms."""

    n: int
    vars: VarSet
    pi: PoissonStructure
    fs: list
    phis: list
    psis: list
    g_index: dict

    def g(self, i: int) -> RatFun:
        return self.psis[self.g_index[i] - 1]

    def casimir(self, i: int) -> RatFun:
        """f_i / g_{i*}, a Casimir of the chart structure."""
        return self.fs[i - 1] / self.g(self.n + 1 - i)

    def all_functions(self):
        return list(self.fs) + list(self.phis) + list(self.psis)


def bfz_chart(n: int) -> BFZChart:
    """Realize the extended cluster on the chart given by the two unipotent
    parts and the torus, with all structure entries polynomial: a cluster
    function is a minor of the Poly unipotent product times the torus
    factors of its columns."""
    dword = standard_double_word(n)
    m = n + 1
    l0 = len(dword.neg)
    bnames = [f"b{k}" for k in range(1, l0 + 1)]
    anames = [f"a{k}" for k in range(1, l0 + 1)]
    enames = [f"e{j}" for j in range(1, n + 1)]
    vars = VarSet(bnames + anames + enames)

    def chart_poly(p: Poly, prefix: str) -> Poly:
        mapping = {
            f"z{k}": Poly.var(vars, f"{prefix}{k}") for k in range(1, l0 + 1)
        }
        return p.substitute(mapping, Poly.const(vars, 1))

    # both halves of the standard double word are this one word, so its
    # Bott-Samelson product, cell and roots serve the b and the a block
    word = dword.pos
    bs = bott_samelson(word, m)

    # the group element: lower part from b, upper part from a, torus from eta
    bs_b = bs.map(lambda p: chart_poly(p, "b"))
    bs_a = bs.map(lambda p: chart_poly(p, "a"))
    w0mat = weyl_matrix(longest_word(m), m, vars)
    # both inverses are polynomial (unit determinants)
    table = minors(inverse(bs_b) * w0mat * bs_a * inverse(w0mat))

    # the torus scales column j (0-based) by eta_{j+1} / eta_j, with
    # eta_0 = eta_m = 1
    one = Poly.const(vars, 1)
    etas = [one] + [one + Poly.var(vars, f"e{j}") for j in range(1, n + 1)] + [one]

    def chart_minor(rows, cols):
        ups, downs = {j + 1 for j in cols}, set(cols)
        return RatFun(prod((etas[k] for k in ups - downs), start=table(rows, cols)),
                      prod((etas[k] for k in downs - ups), start=one))

    fs, phis, psis, g_index = cluster_minors(chart_minor, n, dword)

    # Poisson structure: one Bott-Samelson block for b and one for a
    bracket = build_cell(m, word).pi_z.bracket_matrix

    size = len(vars)
    zero = Poly.zero(vars)
    P = [[zero for _ in range(size)] for _ in range(size)]

    def set_entry(x, y, val):
        P[x][y] = val
        P[y][x] = -val

    for j in range(l0):
        for k in range(l0):
            if j < k:
                set_entry(j, k, chart_poly(bracket[j][k], "b"))
                set_entry(l0 + j, l0 + k, chart_poly(bracket[j][k], "a"))

    betas = [word.prefix(k - 1).act(simple_root(word.letters[k - 1], m))
             for k in range(1, l0 + 1)]
    omegas = [fundamental_weight(j, m) for j in range(1, n + 1)]

    w0 = WeylElt.longest(m)
    for k in range(l0):
        wbeta = w0.act(betas[k])
        bk = Poly.var(vars, f"b{k + 1}")
        for j in range(l0):
            c = pairing(wbeta, betas[j])
            if c:
                set_entry(k, l0 + j, bk * Poly.var(vars, f"a{j + 1}") * c)
        for j in range(n):
            c = pairing(wbeta, omegas[j])
            if c:
                etaj = Poly.const(vars, 1) + Poly.var(vars, f"e{j + 1}")
                set_entry(k, 2 * l0 + j, bk * etaj * c)
    for k in range(l0):
        ak = Poly.var(vars, f"a{k + 1}")
        for j in range(n):
            c = -pairing(betas[k], omegas[j])
            if c:
                etaj = Poly.const(vars, 1) + Poly.var(vars, f"e{j + 1}")
                set_entry(l0 + k, 2 * l0 + j, ak * etaj * c)

    return BFZChart(n, vars, PoissonStructure(vars, P), fs, phis, psis, g_index)
