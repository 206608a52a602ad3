"""Generic seeds of Polys and RatFuns: ordinary mutation, the log-volume
form's mutation invariance, and frozen-variable modification by
Casimir-times-monomial replacements.  Mutation builds a RatFun only when
the exchange division leaves a denominator."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadSeed, DependentSystem, NotCasimir
from .poisson_core import DEFAULT_SEED, PoissonStructure, log_volume
from .polyring import Poly, RatFun, VarSet, jacobian_pivots

SYMMETRIZER_BOUND = 12


@dataclass
class Seed:
    """(cluster, exchange set, integer matrix) with the cluster a free
    transcendence basis of Polys and RatFuns, kept as given; indices are
    1-based, M has a row per cluster entry and a column per exchange
    index."""

    vars: VarSet
    cluster: list
    ex: list
    M: list

    def __post_init__(self):
        n = len(self.cluster)
        if sorted(set(self.ex)) != sorted(self.ex) or any(
            not 1 <= k <= n for k in self.ex
        ):
            raise BadSeed("bad exchange set")
        if len(self.M) != n or any(len(row) != len(self.ex) for row in self.M):
            raise BadSeed("matrix shape must be |cluster| x |ex|")

    def col_of(self, k: int) -> int:
        return self.ex.index(k)

    def principal_part(self):
        return [[self.M[i - 1][self.col_of(j)] for j in self.ex] for i in self.ex]

    def check(self) -> None:
        """Algebraic independence (numeric Jacobian rank at seeded points)
        and skew-symmetrizability of the principal part."""
        r = len(jacobian_pivots(self.cluster, self.vars, random.Random(DEFAULT_SEED)))
        if r != len(self.cluster):
            raise DependentSystem("cluster is not algebraically independent")
        if self.ex and skew_symmetrizer(self.principal_part()) is None:
            raise BadSeed("principal part is not skew-symmetrizable")


def skew_symmetrizer(B):
    """A positive integer diagonal d with d_i B_ij = -d_j B_ji, entries at
    most SYMMETRIZER_BOUND; None when no such diagonal exists."""
    n = len(B)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if d[j] is None and B[i][j] and B[j][i]:
                    d[j] = d[i] * B[i][j] / -B[j][i]
                    queue.append(j)
    # scale each value to a positive integer
    denom = math.lcm(*(x.denominator for x in d))
    out = [int(x * denom) for x in d]
    g = math.gcd(*out)
    out = [x // g for x in out]
    if any(x <= 0 or x > SYMMETRIZER_BOUND for x in out):
        return None
    # every pair: this refuses a nonzero diagonal, a pair with one zero
    # entry and ratios that disagree around a cycle
    for i in range(n):
        for j in range(n):
            if out[i] * B[i][j] != -out[j] * B[j][i]:
                return None
    return out


def mutate(s: Seed, k: int) -> Seed:
    """Exchange the k-th cluster variable and mutate the matrix; the new
    variable is a Poly when the exchange division leaves no denominator."""
    if k not in s.ex:
        raise BadSeed(f"direction {k} is not exchangeable")
    c = s.col_of(k)
    n = len(s.cluster)
    pos = Poly.const(s.vars, 1)
    neg = Poly.const(s.vars, 1)
    for j in range(1, n + 1):
        mjk = s.M[j - 1][c]
        if mjk > 0:
            pos = pos * s.cluster[j - 1] ** mjk
        elif mjk < 0:
            neg = neg * s.cluster[j - 1] ** (-mjk)
    new_phi = (pos + neg) / s.cluster[k - 1]
    if new_phi.is_polynomial():
        new_phi = new_phi.as_poly()

    newM = [list(row) for row in s.M]
    for i in range(1, n + 1):
        for jcol, j in enumerate(s.ex):
            if i == k or j == k:
                newM[i - 1][jcol] = -s.M[i - 1][jcol]
            else:
                mik = s.M[i - 1][c]
                mkj = s.M[k - 1][jcol]
                newM[i - 1][jcol] = s.M[i - 1][jcol] + (
                    abs(mik) * mkj + mik * abs(mkj)
                ) // 2
    cluster = list(s.cluster)
    cluster[k - 1] = new_phi
    return Seed(s.vars, cluster, list(s.ex), newM)


def seed_log_volume(s: Seed):
    if len(s.cluster) != len(s.vars):
        raise DependentSystem("log-volume requires |cluster| = |vars|")
    return log_volume(s.cluster, s.vars)


def log_volume_invariance(s: Seed, path) -> bool:
    """The log-volume form changes at most by sign along a mutation path."""
    mu0 = seed_log_volume(s).coefficient
    cur = s
    for k in path:
        cur = mutate(cur, k)
    mu1 = seed_log_volume(cur).coefficient
    return mu1 == mu0 or mu1 == -mu0


@dataclass
class FrozenModification:
    """phi_bar_j = c_j * (monomial in the frozen variables); ``casimirs``
    maps a frozen index to c_j and ``monomials`` to {frozen index: exponent}."""

    casimirs: dict
    monomials: dict

    @staticmethod
    def identity(frozen_indices, vars: VarSet) -> "FrozenModification":
        one = Poly.const(vars, 1)
        return FrozenModification(
            {j: one for j in frozen_indices},
            {j: {j: 1} for j in frozen_indices},
        )

    def replacement(self, j: int, seed: Seed) -> Poly | RatFun:
        out = self.casimirs[j]
        for t, e in self.monomials[j].items():
            out = out * seed.cluster[t - 1] ** e
        return out


def modified_cluster(s: Seed, mod: FrozenModification):
    frozen = [j for j in range(1, len(s.cluster) + 1) if j not in s.ex]
    if sorted(mod.casimirs) != frozen or sorted(mod.monomials) != frozen:
        raise BadSeed("modification must cover exactly the frozen indices")
    out = []
    for j in range(1, len(s.cluster) + 1):
        if j in s.ex:
            out.append(s.cluster[j - 1])
        else:
            out.append(mod.replacement(j, s))
    return out


def modified_log_volume(s: Seed, mod: FrozenModification, pi: PoissonStructure):
    """Log-volume of the modified cluster; certifies the Casimir property of
    every designated factor and, when the seed has an exchangeable index,
    spot-checks invariance under one mutation."""
    for j, c in mod.casimirs.items():
        if c.is_constant():
            continue
        for nm, x in zip(pi.vars.names, pi.hamiltonian_field(c)):
            if not x.is_zero():
                raise NotCasimir(f"factor at index {j} moves coordinate {nm}")
    mu = log_volume(modified_cluster(s, mod), s.vars)
    if s.ex:
        s2 = mutate(s, s.ex[0])
        mu2 = log_volume(modified_cluster(s2, mod), s.vars)
        if not (mu2.coefficient == mu.coefficient or mu2.coefficient == -mu.coefficient):
            raise DependentSystem("modified log-volume is not mutation invariant")
    return mu
