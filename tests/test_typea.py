import random

import pytest

from clusterint.errors import DimensionMismatch, NotReduced, SizeOutOfRange
from clusterint.polyring import Poly, PolyMatrix, VarSet, parse_poly
from clusterint.rationals import QQ
from clusterint.typea import (
    ReducedWord,
    WeylElt,
    bott_samelson,
    bott_samelson_prefixes,
    degree_jumps,
    elementary,
    fundamental_weight,
    generalized_minor,
    kplus_kminus,
    longest_word,
    pairing,
    simple_root,
    weyl_matrix,
    weyl_rep,
)

from conftest import Z6, p6


class TestPairing:
    def test_root_normalization(self):
        a1 = simple_root(1, 4)
        assert pairing(a1, a1) == QQ(2)

    def test_adjacent(self):
        assert pairing(simple_root(1, 4), simple_root(2, 4)) == QQ(-1)

    def test_sizes_must_match(self):
        with pytest.raises(DimensionMismatch):
            pairing(simple_root(1, 3), simple_root(1, 4))
        with pytest.raises(DimensionMismatch):
            fundamental_weight(1, 3) + fundamental_weight(1, 4)

    def test_duality_with_fundamentals(self):
        for m in (3, 4, 5):
            for i in range(1, m):
                for j in range(1, m):
                    expect = QQ(1) if i == j else QQ(0)
                    assert pairing(fundamental_weight(i, m), simple_root(j, m)) == expect

    def test_sl4_lambda12(self):
        # lambda_12 for the word (1,2,...) pins {z1,z2} = -z1*z2
        m = 4
        w1 = fundamental_weight(1, m)
        w2 = fundamental_weight(2, m)
        s1 = WeylElt.simple(1, m)
        s1s2 = s1 * WeylElt.simple(2, m)
        lam = pairing(w1 - s1.act(w1), w2 + s1s2.act(w2))
        assert lam == QQ(-1)


class TestWeylElt:
    def test_length_longest(self):
        assert WeylElt.longest(4).length() == 6

    def test_reduced_word_element(self):
        w = ReducedWord([1, 2, 3, 1, 2, 1], 4)
        assert w.element() == WeylElt.longest(4)

    def test_not_reduced(self):
        with pytest.raises(NotReduced):
            ReducedWord([1, 1], 4)
        # a letter outside 1..m-1 breaks the one simple-index rule
        with pytest.raises(SizeOutOfRange, match="simple index 0 out of range for m=3"):
            ReducedWord([0], 3)

    @pytest.mark.parametrize("i", [0, 3])
    def test_simple_reflection_index_out_of_range(self, i):
        # s_0 would be the transposition (1 3), s_3 an IndexError
        with pytest.raises(SizeOutOfRange, match=f"simple index {i} out of range for m=3"):
            WeylElt.simple(i, 3)

    def test_longest_word_pattern(self):
        w = longest_word(4)
        assert w.letters == (1, 2, 3, 1, 2, 1)
        assert w.element() == WeylElt.longest(4)

    def test_prefixes_are_products_of_simple_reflections(self):
        words = {m: all_reduced_words(m) for m in (2, 3, 4)}
        # S_4 has 24 elements, and its longest element 16 reduced words
        assert len({product_prefixes(w, 4)[-1] for w in words[4]}) == 24
        assert sum(len(w) == 6 for w in words[4]) == 16
        for m, ws in words.items():
            for letters in ws:
                assert ReducedWord(letters, m).prefixes() == product_prefixes(letters, m)
        for m in range(5, 8):
            word = longest_word(m)
            assert word.prefixes() == product_prefixes(word.letters, m)


def product_prefixes(letters, m):
    """[s_{i_1} ... s_{i_k} for k = 0..l], each one product more."""
    out = [WeylElt.identity(m)]
    for i in letters:
        out.append(out[-1] * WeylElt.simple(i, m))
    return out


def all_reduced_words(m):
    """Every reduced word of every element of S_m, the empty one too, grown a
    letter at a time: w s_i is longer than w exactly when w(i) < w(i + 1)."""
    words, frontier = [], [((), WeylElt.identity(m))]
    while frontier:
        letters, w = frontier.pop()
        words.append(letters)
        frontier += [(letters + (i,), w * WeylElt.simple(i, m))
                     for i in range(1, m) if w(i) < w(i + 1)]
    return words


class TestWeylRep:
    def test_sl2(self):
        vs = VarSet(["z1"])
        m = weyl_rep(1, 2, vs)
        assert m.entries[0][0].is_zero()
        assert m.entries[0][1] == Poly.const(vs, -1)
        assert m.entries[1][0] == Poly.const(vs, 1)
        assert m.entries[1][1].is_zero()

    @pytest.mark.parametrize("build", [
        lambda i, vs: weyl_rep(i, 3, vs), lambda i, vs: weyl_matrix([i], 3, vs),
        lambda i, vs: elementary(i, 3, Poly.var(vs, "z1")),
        lambda i, vs: fundamental_weight(i, 3), lambda i, vs: simple_root(i, 3)],
        ids=["weyl_rep", "weyl_matrix", "elementary", "fundamental_weight", "simple_root"])
    @pytest.mark.parametrize("i", [0, 3])
    def test_index_out_of_range(self, build, i):
        # index 0 would be read as m (the block at rows 3 and 1), index m as
        # an IndexError
        with pytest.raises(SizeOutOfRange, match=f"simple index {i} out of range for m=3"):
            build(i, VarSet(["z1"]))

    def test_braid_relation(self):
        vs = VarSet(["z1"])
        lhs = weyl_matrix([1, 2, 1], 3, vs)
        rhs = weyl_matrix([2, 1, 2], 3, vs)
        for a in range(3):
            for b in range(3):
                assert lhs.entries[a][b] == rhs.entries[a][b]

    def test_signed_permutation(self, rng):
        vs = VarSet(["z1"])
        for _ in range(10):
            m = 5
            w = _random_reduced_word(rng, m)
            mat = weyl_matrix(w, m, vs)
            perm = w.element()
            for a in range(1, m + 1):
                for b in range(1, m + 1):
                    x = mat.entries[a - 1][b - 1]
                    if perm(b) == a:
                        assert not x.is_zero()
                        assert abs(x.constant_value()) == 1
                    else:
                        assert x.is_zero()


def _random_reduced_word(rng, m, w=None):
    """Random reduced word of a random element (or of a given element) by
    greedily peeling descents, after generating a random permutation."""
    if w is None:
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        w = WeylElt(perm)
    letters = []
    cur = w
    while cur.length() > 0:
        descents = [i for i in range(1, m) if cur(i) > cur(i + 1)]
        i = rng.choice(descents)
        # multiply on the right by s_i decreases length when i is a descent
        cur = cur * WeylElt.simple(i, m)
        letters.append(i)
    letters.reverse()
    return ReducedWord(letters, m)


def assert_prefixes_are_dense_products(word, m):
    vs = VarSet([f"z{k}" for k in range(1, len(word) + 1)])
    prefixes = bott_samelson_prefixes(word, m, vs)
    assert len(prefixes) == len(word)
    dense = PolyMatrix.identity(vs, m)
    for k, (i, prefix) in enumerate(zip(word.letters, prefixes), start=1):
        dense = dense * elementary(i, m, Poly.var(vs, f"z{k}")) * weyl_rep(i, m, vs)
        assert prefix.entries == dense.entries
    assert bott_samelson(word, m, vs).entries == dense.entries


class TestBottSamelson:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_prefixes_are_the_dense_products_on_the_longest_word(self, m):
        assert_prefixes_are_dense_products(longest_word(m), m)

    @pytest.mark.parametrize("seed", range(6))
    def test_prefixes_are_the_dense_products_on_random_words(self, seed):
        rng = random.Random(seed)
        m = rng.randint(3, 5)
        assert_prefixes_are_dense_products(_random_reduced_word(rng, m), m)

    def test_sl2(self):
        w = ReducedWord([1], 2)
        mat = bott_samelson(w, 2)
        vs = mat.entries[0][0].vars
        assert mat.entries[0][0] == Poly.var(vs, "z1")
        assert mat.entries[0][1] == Poly.const(vs, -1)
        assert mat.entries[1][0] == Poly.const(vs, 1)
        assert mat.entries[1][1].is_zero()

    def test_empty_word(self):
        w = ReducedWord([], 3)
        assert bott_samelson_prefixes(w, 3, Z6) == []
        mat = bott_samelson(w, 3)
        for a in range(3):
            for b in range(3):
                expect = QQ(1) if a == b else QQ(0)
                assert mat.entries[a][b] == Poly.const(mat.entries[0][0].vars, expect)

    def test_sl4_display(self):
        # product equals the displayed unipotent matrix times the longest
        # representative
        word = ReducedWord([1, 2, 3, 1, 2, 1], 4)
        mat = bott_samelson(word, 4, Z6)
        w0 = weyl_matrix(longest_word(4), 4, Z6)
        display = [
            ["1", "z1", "z1*z4 - z2", "z1*z4*z6 - z1*z5 - z2*z6 + z3"],
            ["0", "1", "z4", "z4*z6 - z5"],
            ["0", "0", "1", "z6"],
            ["0", "0", "0", "1"],
        ]
        n_part = PolyMatrix([[p6(s) for s in row] for row in display])
        prod = n_part * w0
        for a in range(4):
            for b in range(4):
                assert mat.entries[a][b] == prod.entries[a][b]


class TestGeneralizedMinor:
    def test_principal(self, rng):
        m = 3
        names = [f"g{a}{b}" for a in range(1, 4) for b in range(1, 4)]
        vs = VarSet(names)
        g = PolyMatrix(
            [[Poly.var(vs, f"g{a}{b}") for b in range(1, 4)] for a in range(1, 4)]
        )
        e = WeylElt.identity(3)
        assert generalized_minor(e, e, 1, g) == Poly.var(vs, "g11")
        two = generalized_minor(e, e, 2, g)
        assert two == parse_poly("g11*g22 - g12*g21", vs)

    def test_row_one_col_two(self):
        names = [f"g{a}{b}" for a in range(1, 3) for b in range(1, 3)]
        vs = VarSet(names)
        g = PolyMatrix(
            [[Poly.var(vs, f"g{a}{b}") for b in range(1, 3)] for a in range(1, 3)]
        )
        e = WeylElt.identity(2)
        s1 = WeylElt.simple(1, 2)
        assert generalized_minor(e, s1, 1, g) == Poly.var(vs, "g12")

    def test_column_expansion_identity(self):
        # minor of g*e_i(z)*sbar_i against columns: equals z*(minor at omega_i)
        # + (minor at s_i omega_i), up to the sorted-minor sign convention
        m = 3
        names = [f"g{a}{b}" for a in range(1, 4) for b in range(1, 4)] + ["t"]
        vs = VarSet(names)
        g = PolyMatrix(
            [[Poly.var(vs, f"g{a}{b}") for b in range(1, 4)] for a in range(1, 4)]
        )
        z = Poly.var(vs, "t")
        i = 1
        gz = g * elementary(i, m, z) * weyl_rep(i, m, vs)
        e = WeylElt.identity(m)
        s_i = WeylElt.simple(i, m)
        for delta_w in (e, s_i, WeylElt.simple(2, m) * s_i):
            lhs = generalized_minor(delta_w, e, i, gz)
            a = generalized_minor(delta_w, e, i, g)
            b = generalized_minor(delta_w, s_i, i, g)
            assert lhs == z * a + b or lhs == -(z * a + b) or lhs == z * a - b or lhs == -(z * a) + b


class TestKPlusMinus:
    def test_sl4_word(self):
        word = ReducedWord([1, 2, 3, 1, 2, 1], 4)
        kminus, kplus = kplus_kminus(word)
        assert kminus == {1: None, 2: None, 3: None, 4: 1, 5: 2, 6: 4}
        assert kplus == {1: 4, 2: 5, 3: None, 4: 6, 5: None, 6: None}

    def test_single(self):
        kminus, kplus = kplus_kminus(ReducedWord([1], 2))
        assert kminus == {1: None}
        assert kplus == {1: None}

    def test_121(self):
        kminus, _ = kplus_kminus(ReducedWord([1, 2, 1], 3))
        assert kminus == {1: None, 2: None, 3: 1}


class TestDegreeJumps:
    def test_sl4_word(self):
        # the Schubert m=4 low degrees: phi_5 = z2 z5 - z3 z4 jumps over phi_2
        kminus, kplus = kplus_kminus(ReducedWord([1, 2, 3, 1, 2, 1], 4))
        degs = [1, 1, 1, 1, 2, 1]
        assert degree_jumps(degs, kminus) == [1, 2, 3, 5]
        assert degree_jumps(degs, kplus) == [3, 6]

    def test_missing_neighbour_counts_as_degree_zero(self):
        assert degree_jumps([0, 2, 1], {1: None, 2: None, 3: 1}) == [3]
        assert degree_jumps([], {}) == []
