"""Type-A Lie data: weights in the epsilon basis of gl_m, the symmetric
group as Weyl group, reduced words, matrix representatives of simple
reflections, Bott-Samelson products and generalized minors realized as
ordinary matrix minors (sorted index sets, so defined up to sign)."""

from __future__ import annotations

from .errors import DimensionMismatch, NotPermutation, NotReduced, SizeOutOfRange
from .polyring import Poly, PolyMatrix, VarSet, det
from .rationals import QQ, QQ0


class Weight:
    """A rational vector in the epsilon basis of the gl_m Cartan; SL-weights
    enter only through pairings with roots, where the center drops out."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = tuple(QQ(c) for c in coords)

    def __len__(self):
        return len(self.coords)

    def __add__(self, other):
        self._check(other)
        return Weight([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        return Weight([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return Weight([-a for a in self.coords])

    def __eq__(self, other):
        return isinstance(other, Weight) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"Weight{self.coords}"

    def _check(self, other):
        if len(self) != len(other):
            raise DimensionMismatch("weights of different sizes")


def fundamental_weight(i: int, m: int) -> Weight:
    """omega_i = eps_1 + ... + eps_i."""
    if not 1 <= i <= m - 1:
        raise SizeOutOfRange(f"fundamental index {i} out of range for m={m}")
    return Weight([1] * i + [0] * (m - i))


def simple_root(i: int, m: int) -> Weight:
    """alpha_i = eps_i - eps_{i+1}."""
    if not 1 <= i <= m - 1:
        raise SizeOutOfRange(f"simple index {i} out of range for m={m}")
    c = [0] * m
    c[i - 1], c[i] = 1, -1
    return Weight(c)


def pairing(a: Weight, b: Weight):
    """Dot product in the epsilon basis, so <alpha_i, alpha_i> = 2."""
    if len(a) != len(b):
        raise DimensionMismatch("weights of different sizes")
    total = QQ0
    for x, y in zip(a.coords, b.coords):
        total = total + x * y
    return total


class WeylElt:
    """A permutation of [1, m]; perm[i-1] is the image of i."""

    __slots__ = ("perm",)

    def __init__(self, perm):
        perm = tuple(perm)
        if sorted(perm) != list(range(1, len(perm) + 1)):
            raise NotPermutation(f"{perm} is not a permutation of [1, m]")
        self.perm = perm

    @staticmethod
    def identity(m: int) -> "WeylElt":
        return WeylElt(range(1, m + 1))

    @staticmethod
    def simple(i: int, m: int) -> "WeylElt":
        p = list(range(1, m + 1))
        p[i - 1], p[i] = p[i], p[i - 1]
        return WeylElt(p)

    @staticmethod
    def longest(m: int) -> "WeylElt":
        return WeylElt(range(m, 0, -1))

    def __len__(self):
        return len(self.perm)

    def __call__(self, i: int) -> int:
        return self.perm[i - 1]

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        # (u*v)(i) = u(v(i)), matching matrix-product order of representatives
        return WeylElt([self(other(i)) for i in range(1, len(self.perm) + 1)])

    def inverse(self) -> "WeylElt":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm, start=1):
            inv[j - 1] = i
        return WeylElt(inv)

    def act(self, w: Weight) -> Weight:
        """(u.lam)_k = lam_{u^{-1}(k)} so that u.eps_j = eps_{u(j)}."""
        inv = self.inverse()
        return Weight([w.coords[inv(k) - 1] for k in range(1, len(self.perm) + 1)])

    def act_set(self, ks) -> list:
        return sorted(self(k) for k in ks)

    def length(self) -> int:
        n = len(self.perm)
        return sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if self.perm[i] > self.perm[j]
        )

    def __eq__(self, other):
        return isinstance(other, WeylElt) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"WeylElt{self.perm}"


class ReducedWord:
    """A list of simple-reflection indices whose product has length equal to
    the list length."""

    __slots__ = ("letters", "m")

    def __init__(self, letters, m: int):
        self.letters = tuple(int(i) for i in letters)
        self.m = m
        for i in self.letters:
            if not 1 <= i <= m - 1:
                raise NotReduced(f"letter {i} out of range for m={m}")
        if self.element().length() != len(self.letters):
            raise NotReduced(f"word {self.letters} is not reduced")

    def __len__(self):
        return len(self.letters)

    def element(self) -> WeylElt:
        return self.prefix(len(self.letters))

    def prefix(self, k: int) -> WeylElt:
        """s_{i_1} ... s_{i_k} as a permutation."""
        w = WeylElt.identity(self.m)
        for i in self.letters[:k]:
            w = w * WeylElt.simple(i, self.m)
        return w

    def __repr__(self):
        return f"ReducedWord{self.letters}"


def longest_word(m: int) -> ReducedWord:
    """(1, 2, ..., m-1, 1, 2, ..., m-2, ..., 1, 2, 1) for the longest element."""
    letters = []
    for block in range(m - 1, 0, -1):
        letters.extend(range(1, block + 1))
    return ReducedWord(letters, m)


def kplus_kminus(word) -> tuple:
    """Maps k -> k^- (largest earlier index with the same letter, else None)
    and k -> k^+ (smallest later index, else None), 1-based."""
    letters = list(word.letters) if isinstance(word, ReducedWord) else list(word)
    l = len(letters)
    kminus = {}
    kplus = {}
    for k in range(1, l + 1):
        prev = [j for j in range(1, k) if letters[j - 1] == letters[k - 1]]
        nxt = [j for j in range(k + 1, l + 1) if letters[j - 1] == letters[k - 1]]
        kminus[k] = prev[-1] if prev else None
        kplus[k] = nxt[0] if nxt else None
    return kminus, kplus


# -- matrix realizations -----------------------------------------------------


def weyl_rep(i: int, m: int, vars: VarSet) -> PolyMatrix:
    """Representative of s_i: identity with the block [[0,-1],[1,0]] at
    rows/columns (i, i+1)."""
    ent = PolyMatrix.identity(vars, m).entries
    ent[i - 1][i - 1] = Poly.zero(vars)
    ent[i][i] = Poly.zero(vars)
    ent[i - 1][i] = Poly.const(vars, -1)
    ent[i][i - 1] = Poly.const(vars, 1)
    return PolyMatrix(ent)


def elementary(i: int, m: int, z: Poly) -> PolyMatrix:
    """Unipotent e_i(z): identity plus z in entry (i, i+1)."""
    ent = PolyMatrix.identity(z.vars, m).entries
    ent[i - 1][i] = z
    return PolyMatrix(ent)


def weyl_matrix(w, m: int, vars: VarSet) -> PolyMatrix:
    """Representative of a Weyl element from any reduced word of it."""
    out = PolyMatrix.identity(vars, m)
    for i in getattr(w, "letters", w):
        out = out * weyl_rep(i, m, vars)
    return out


def bott_samelson(word: ReducedWord, m: int, vars: VarSet = None) -> PolyMatrix:
    """e_{i_1}(z_1) sbar_{i_1} ... e_{i_l}(z_l) sbar_{i_l} over z_1..z_l."""
    l = len(word)
    if vars is None:
        vars = VarSet([f"z{k}" for k in range(1, l + 1)]) if l else VarSet(["z1"])
    out = PolyMatrix.identity(vars, m)
    for k, i in enumerate(word.letters, start=1):
        out = out * elementary(i, m, Poly.var(vars, f"z{k}"))
        out = out * weyl_rep(i, m, vars)
    return out


def generalized_minor(u: WeylElt, v: WeylElt, i: int, g: PolyMatrix):
    """det of the submatrix with rows u([1,i]) and columns v([1,i]), both
    sorted ascending (so equal to the weight-theoretic minor up to sign)."""
    rows = [r - 1 for r in u.act_set(range(1, i + 1))]
    cols = [c - 1 for c in v.act_set(range(1, i + 1))]
    return det(g.submatrix(rows, cols))


def principal_minor(i: int, g: PolyMatrix):
    idx = list(range(i))
    return det(g.submatrix(idx, idx))
