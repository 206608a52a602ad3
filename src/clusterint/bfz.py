"""Cluster functions on SL(n+1) built from a double reduced word of the
longest element: the frozen-variable modification, lowest degree terms at
the identity via truncated exponentials, the selection of a polynomial
integrable system on the linearization, and the index of the dual Lie
algebra via Kostant's cascade of strongly orthogonal roots.  The build
stores each lowest term, read once at its function's cap; the selection
reads them and keeps the positions of ``degree_jumps``."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import prod

from .errors import CountShortfall, SizeOutOfRange, WrongWord
from .poisson_core import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    IntegrableSystemReport,
    LinearPoissonStructure,
    PoissonStructure,
    SeedLows,
    certify,
    linear_structure,
)
from .polyring import (
    Poly,
    PolyMatrix,
    RatFun,
    VarSet,
    _int_pivots,
    _sign_canonical,
    det,
    dot,
    inverse,
    jacobian,
    lowest_term,
    minors,
    truncated_exp,
)
from .rationals import _sign
from .schubert import build_cell
from .typea import (
    ReducedWord,
    WeylElt,
    bott_samelson,
    degree_jumps,
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


@cache
def sl_dual_linear_structure(n: int) -> LinearPoissonStructure:
    """Linearization at the identity of the multiplicative structure on
    SL(n+1): the degree-1 part of (sign(p-i)+sign(q-j))/2 * x_iq * x_pj in
    exponential coordinates, restricted to traceless matrices, from its int
    constants over 2 (``linear_structure``); u_mm = -(u_11 + ... + u_nn).
    Built once per n and shared by every caller, who must not mutate it."""
    m = n + 1
    pairs = [(i, j) for i in range(m) for j in range(m) if (i, j) != (n, n)]
    u = {ij: [(d, 1)] for d, ij in enumerate(pairs)}
    u[n, n] = [(d, -c) for t in range(n) for d, c in u[t, t]]
    col, constants = {pq: b for b, pq in enumerate(pairs)}, [[[]] * len(pairs) for _ in pairs]
    for (i, j), row in zip(pairs, constants):
        for p, q in [(p, i) for p in range(m)] + [(j, q) for q in range(m) if q != i]:
            s = _sign(p - i) + _sign(q - j)
            if s and (p, q) != (n, n):
                row[col[p, q]] = [(d, s * c) for d, c in (u[p, j] if i == q else [])
                                  + (u[i, q] if p == j else [])]
    return linear_structure(sl_varset(n), constants, 2)


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
    order: int  # the table cap: fs, phis and psis are Polys cut at this total degree
    fs: list  # index i in [1, r]
    phis: list  # index k in [1, l0]
    psis: list  # index k in [1, l0]
    g_index: dict  # i -> k with psi_k the last occurrence of letter i
    gprimes: dict  # i in I2 -> f_i g_i - f_{i*} g_{i*}, cut at caps[i]
    caps: dict  # i in I2 -> order + n + 1 - i, the degree gprimes[i] is exact through
    f_lows: list  # (lowest term, degree) of each f, read once at build
    phi_lows: list  # the same, by position beside phis
    psi_lows: list  # the same, by position beside psis
    gprime_lows: dict  # i in I2 -> the same of gprimes[i], read at caps[i]
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
        return self._modified(self.fs, self.phis, self.psis, self.gprimes)

    def modified_lows(self):
        """The stored (lowest term, degree) pairs of ``modified_functions``."""
        return self._modified(self.f_lows, self.phi_lows, self.psi_lows, self.gprime_lows)

    def _modified(self, fs, phis, psis, gprimes):
        replaced = {self.g_index[i]: i for i in self.I2}
        return fs + phis + [gprimes[replaced[k]] if k in replaced else psi
                            for k, psi in enumerate(psis, 1)]


def _istar_sets(n: int):
    """I0, I1, I2: the i in [1, n] with i = i*, i < i* and i > i*, i* = n + 1 - i."""
    r = range(1, n + 1)
    return ([i for i in r if 2 * i == n + 1], [i for i in r if 2 * i < n + 1],
            [i for i in r if 2 * i > n + 1])


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


def table_order(n: int) -> int:
    """C = n//2 + 1, the least cap of the exponential and the minors table
    at which every lowest term of the modified cluster shows:

    - A plain minor's low has degree at most (n+1)//2 <= C (``gexp_order``).
    - The four factors of the difference function of i in I2 are minors
      with lows of degree n+1-i, so f_i g_i - f_{i*} g_{i*} is exact through
      C + n+1-i when they are exact through C.  That shows its low, of degree
      2(n-i)+3, when n-i+2 <= C; i > (n+1)/2 gives n-i+2 <= n//2 + 1, with
      equality at the least i in I2 (n >= 2)."""
    return n // 2 + 1


def build_bfz(n: int, dword: DoubleWord = None) -> BFZCluster:
    """Evaluate the extended cluster at a truncated exponential of a traceless
    matrix, cut at ``table_order(n)``, where every lowest term shows."""
    if dword is None:
        dword = standard_double_word(n)
    m = n + 1
    if dword.neg.m != m:
        raise WrongWord(f"double word is for SL({dword.neg.m}), expected SL({m})")
    return _build_at_order(n, dword, table_order(n))


def cluster_minors(table, n: int, dword: DoubleWord):
    """The extended cluster as minors from ``table``, a ``minors`` table of
    an (n+1)x(n+1) matrix or any map (0-based rows, cols) -> value: the
    frozen f's, the phi's of the negative word, the psi's of the positive
    word, and the map letter i -> k with psi_k the letter's last occurrence."""
    m = n + 1
    w0 = WeylElt.longest(m)
    fs = [minor(table, interval(1, i), w0.act_set(interval(1, i))) for i in range(1, n + 1)]

    neg = dword.neg
    phis = [minor(table, u.act_set(interval(1, ik)), w0.act_set(interval(1, ik)))
            for ik, u in zip(neg.letters, neg.prefixes()[1:])]

    # the suffix s_{j_l0} ... s_{j_(k+1)} is w^-1 u_k, u_k the prefix to k and w all of it
    pos = dword.pos
    us = pos.prefixes()
    winv = us[-1].inverse()
    psis = [minor(table, w0.act_set(interval(1, jk)), (winv * u).act_set(interval(1, jk)))
            for jk, u in zip(pos.letters, us[1:])]

    g_index = {letter: k for k, letter in enumerate(pos.letters, 1)}
    return fs, phis, psis, g_index


def _build_at_order(n, dword, D):
    """The cluster at table cap D, each difference function of i exact
    through D + n+1-i (``table_order``), with every lowest term read at its
    function's cap; raises TruncationInsufficient when one lies above it."""
    vars = sl_varset(n)
    X = truncated_exp(sl_u_matrix(n, vars), D)
    fs, phis, psis, g_index = cluster_minors(minors(X, D), n, dword)
    _, I1, I2 = _istar_sets(n)
    caps = {i: D + n + 1 - i for i in I2}
    # f_i g_i - f_{i*} g_{i*} with i* = n + 1 - i, by one capped product
    gprimes = {i: dot(vars, [(fs[i - 1], psis[g_index[i] - 1]),
                             (-fs[n - i], psis[g_index[n + 1 - i] - 1])], caps[i]) for i in I2}
    f_lows, phi_lows, psi_lows = ([lowest_term(f, D) for f in fam] for fam in (fs, phis, psis))
    gprime_lows = {i: lowest_term(gprimes[i], caps[i]) for i in I2}
    return BFZCluster(n, dword, vars, D, fs, phis, psis, g_index, gprimes, caps,
                      f_lows, phi_lows, psi_lows, gprime_lows, I1, I2)


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


def gexp_check(cluster: BFZCluster) -> bool:
    """Verify the closed-form lowest terms at the standard double word."""
    n = cluster.n
    std = standard_double_word(n)
    if (cluster.dword.neg.letters, cluster.dword.pos.letters) != (std.neg.letters, std.pos.letters):
        raise WrongWord("closed forms hold for the standard double word only")
    forms = gexp_formulas(n)

    # frozen rows/columns formulas: f_i against f_{i*} and the closed forms
    f_lows = [low for low, _ in cluster.f_lows]
    pairs = ([(f_lows[i - 1], f_lows[n - i]) for i in range(1, n + 1)]
             + [(f_lows[i - 1], f) for i, f in forms["f"].items()]
             + [(cluster.psi_lows[cluster.g_index[i] - 1][0], g) for i, g in forms["g"].items()]
             + [(cluster.gprime_lows[i][0], g) for i, g in forms["gprime"].items()])
    if not all(_up_to_sign(a, b) for a, b in pairs):
        return False

    # cluster-variable lows: the nonconstant phi's and the psi's but the last
    # occurrences match the two minor families (no constant) as sets; the
    # constant phi's are exactly those whose letter does not recur
    _, kplus_neg = kplus_kminus(cluster.dword.neg)
    if any(d == 0 and kplus_neg[k] for k, (_, d) in enumerate(cluster.phi_lows, 1)):
        return False
    got = [low for low, d in cluster.phi_lows if d] + [
        low for k, (low, _) in enumerate(cluster.psi_lows, 1) if k not in cluster.g_index.values()]
    return {_sign_canonical(low) for low in got} == forms["cluster"]


# -- selection ----------------------------------------------------------------


def choose_integrable_system_bfz(
    cluster: BFZCluster,
    seed: int = DEFAULT_SEED,
    samples: int = DEFAULT_SAMPLES,
) -> IntegrableSystemReport:
    """The cluster's ``SeedLows``, certified: degree-jump selection over the
    combined word on the row side, the admissible last-occurrence rule on
    the column side, plus the modified difference functions; no others,
    pi0 = ``sl_dual_linear_structure(n)`` and the magic number l0 + n."""
    n = cluster.n
    # position p of the combined word (n, ..., 1) + neg holds f_(n+1-p) for
    # p <= n, phi_(p-n) after; its first n letters are distinct, so every
    # successor is a phi
    rows = cluster.f_lows[::-1] + cluster.phi_lows
    _, kplus = kplus_kminus(list(range(n, 0, -1)) + list(cluster.dword.neg.letters))
    picked = degree_jumps([d for _, d in rows], kplus)
    lows = [rows[p - 1][0] for p in picked]
    labels = [f"row{p - n - 1 if p <= n else p - n}" for p in picked]

    # a column is admissible when it jumps over its predecessor in the
    # positive word, unless it is the last occurrence of a letter in I2, or
    # when it is the last occurrence of i in I1 and that of i* jumps
    kminus, _ = kplus_kminus(cluster.dword.pos)
    jumps = degree_jumps([d for _, d in cluster.psi_lows], kminus)
    last = {k: i for i, k in cluster.g_index.items()}
    cols = [k for k in range(1, cluster.l0 + 1)
            if (last.get(k) not in cluster.I2 and k in jumps)
            or (last.get(k) in cluster.I1 and cluster.g_index[cluster.istar(last[k])] in jumps)]
    lows += [cluster.psi_lows[k - 1][0] for k in cols] + [cluster.gprime_lows[i][0] for i in cluster.I2]
    labels += [f"col{k}" for k in cols] + [f"diff{i}" for i in cluster.I2]
    word = ",".join(map(str, cluster.dword.neg.letters))
    return certify(SeedLows(sl_dual_linear_structure(n), lows, labels, [], cluster.l0 + n,
                            f"bfz n={n} word={word} labels={';'.join(labels)}"), seed, samples)


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
    return d + N - sum(deg for _, deg in cluster.modified_lows())


# -- Kostant cascade and the index ----------------------------------------------


def kostant_cascade(n: int) -> list:
    """Kostant's cascade in type A_n as index pairs (a, b), each the root
    eps_a - eps_b: the highest root of each nested interval, (a, n + 2 - a)
    for a = 1..(n+1)//2.  Two type-A roots are strongly orthogonal exactly
    when their index pairs are disjoint (sharing one index makes their sum
    or difference a root), and these pairs are disjoint."""
    if n < 1:
        raise SizeOutOfRange(f"the Kostant cascade needs n >= 1, got {n}")
    return [(a, n + 2 - a) for a in range(1, (n + 1) // 2 + 1)]


def stabilizer_dimension(n: int) -> int:
    """Dimension of the stabilizer of e_+ + e_- in the dual Lie algebra,
    which is the kernel of pi0 = ``sl_dual_linear_structure(n)`` there: the
    corank of pi0's int table at the cascade point, 1 at (a, b) and (b, a)
    for each pair of ``kostant_cascade(n)`` and 0 elsewhere, by
    ``_int_pivots``.  It equals the index, n, so the point witnesses the
    generic rank n(n+1) of pi0 exactly.  Sizes outside 1..9 raise
    SizeOutOfRange (``sl_varset``)."""
    roots = kostant_cascade(n)
    pi0 = sl_dual_linear_structure(n)
    vars = pi0.vars
    ones = {vars.pk.unit[vars.index[f"u{a}{b}"]] for r in roots for a, b in (r, r[::-1])}
    rows = [[sum(c for k, c in t.items() if k in ones) for t in row] for row in pi0.table]
    return len(rows) - len(_int_pivots(rows))


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

    betas = [u.act(simple_root(i, m)) for i, u in zip(word.letters, word.prefixes())]
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
                set_entry(k, 2 * l0 + j, bk * etas[j + 1] * c)
    for k in range(l0):
        ak = Poly.var(vars, f"a{k + 1}")
        for j in range(n):
            c = -pairing(betas[k], omegas[j])
            if c:
                set_entry(l0 + k, 2 * l0 + j, ak * etas[j + 1] * c)

    return BFZChart(n, vars, PoissonStructure(vars, P), fs, phis, psis, g_index)
