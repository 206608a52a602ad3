import json
import random
from dataclasses import fields

import pytest

from clusterint.errors import (
    CountShortfall,
    DependentSystem,
    DimensionMismatch,
    InequalityViolated,
    NotDivisible,
    NotInvolutive,
    NotLogCanonical,
    NotPermutation,
    NotPoisson,
    NotRegular,
    NotVanishing,
    ZeroInput,
)
from clusterint.poisson_core import (
    IntegrableSystemReport,
    LinearPoissonStructure,
    LogCanonicalSystem,
    PoissonStructure,
    certify,
    extract_integrable_system,
    generic_rank,
    involutivity_certificate,
    is_log_canonical,
    linear_structure,
    linearize,
    log_volume,
    pfaffian_coefficient,
    property_I_check,
)
from clusterint import dualgl
from clusterint.bfz import sl_dual_linear_structure
from clusterint.polyring import Poly, RationalPoint, RatFun, VarSet, lowest_term, parse_poly
from clusterint.rationals import QQ
from clusterint.schubert import build_cell
from clusterint.typea import WeylElt, longest_word

from conftest import Z6, p6, random_poly, structure_from_table


def sign(x):
    return (x > 0) - (x < 0)


def gl_standard(n):
    """Standard multiplicative bracket on matrix entries, built here as an
    independent oracle: {x_ij, x_pq} = (sign(p-i)+sign(q-j))/2 * x_iq * x_pj."""
    names = [f"x{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    vs = VarSet(names)
    idx = {(i, j): names.index(f"x{i}{j}") for i in range(1, n + 1) for j in range(1, n + 1)}
    size = n * n
    mat = [[Poly.zero(vs) for _ in range(size)] for _ in range(size)]
    for (i, j), a in idx.items():
        for (p, q), b in idx.items():
            c = QQ(sign(p - i) + sign(q - j), 2)
            if c:
                term = Poly.var(vs, f"x{i}{q}") * Poly.var(vs, f"x{p}{j}") * c
                mat[a][b] = term
    return PoissonStructure(vs, mat)


def kks_gl(n):
    """Kirillov-Kostant-Souriau bracket of gl_n on matrix-entry coordinates:
    {u_pq, u_rs} = delta_ps u_rq - delta_rq u_ps."""
    names = [f"u{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    vs = VarSet(names)
    order = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    size = n * n
    mat = [[Poly.zero(vs) for _ in range(size)] for _ in range(size)]
    for a, (p, q) in enumerate(order):
        for b, (r, s) in enumerate(order):
            term = Poly.zero(vs)
            if p == s:
                term = term + Poly.var(vs, f"u{r}{q}")
            if r == q:
                term = term - Poly.var(vs, f"u{p}{s}")
            mat[a][b] = term
    return PoissonStructure(vs, mat)


class TestBracket:
    def test_sl4_z1_z4(self, sl4_pi):
        assert sl4_pi.bracket(p6("z1"), p6("z4")) == RatFun.from_poly(
            p6("z1*z4 - 2*z2")
        )

    def test_skew_self(self, sl4_pi):
        f = p6("z1*z4 - z2")
        assert sl4_pi.bracket(f, f).is_zero()

    def test_gl2_corner(self):
        pi = gl_standard(2)
        f = Poly.var(pi.vars, "x11")
        g = Poly.var(pi.vars, "x22")
        assert pi.bracket(f, g) == RatFun.from_poly(
            Poly.var(pi.vars, "x12") * Poly.var(pi.vars, "x21")
        )

    def test_skew_random(self, sl4_pi, rng):
        for _ in range(5):
            f = random_poly(rng, Z6, 2, 3)
            g = random_poly(rng, Z6, 2, 3)
            assert sl4_pi.bracket(f, g) == -sl4_pi.bracket(g, f)

    def test_leibniz_random(self, sl4_pi, rng):
        for _ in range(5):
            f = random_poly(rng, Z6, 2, 2)
            g = random_poly(rng, Z6, 2, 2)
            h = random_poly(rng, Z6, 2, 2)
            lhs = sl4_pi.bracket(f * g, h)
            rhs = f * sl4_pi.bracket(g, h) + g * sl4_pi.bracket(f, h)
            assert lhs == rhs

    def test_bracket_poly_refuses_a_rational_bracket(self):
        # {z1, z2} = z1/(1 + z2): the denominator's constant term is 1, so
        # dividing the numerator by it alone would give z1
        vs = VarSet(["z1", "z2"])
        z1, z2 = Poly.var(vs, "z1"), Poly.var(vs, "z2")
        entry = RatFun(z1, z2 + 1)
        pi = PoissonStructure(vs, [[0, entry], [-entry, 0]])
        assert pi.bracket(z1, z2) == entry
        with pytest.raises(NotDivisible):
            pi.bracket_poly(z1, z2)


class TestLogCanonical:
    def test_sl4_z1_z2(self, sl4_pi):
        assert is_log_canonical(sl4_pi, p6("z1"), p6("z2")) == QQ(-1)

    def test_self(self, sl4_pi):
        f = p6("z1*z4 - z2")
        assert is_log_canonical(sl4_pi, f, f) == QQ(0)

    def test_not_log_canonical(self, sl4_pi):
        assert is_log_canonical(sl4_pi, p6("z1"), p6("z4")) is None

    def test_system_rejects_a_pair(self, sl4_pi):
        coords = [p6(f"z{i}") for i in range(1, 7)]
        with pytest.raises(NotLogCanonical, match=r"pair \(1, 4\)"):
            LogCanonicalSystem.build(sl4_pi, coords)

    def test_system_rejects_a_function_count(self, sl4_pi, sl4_phis):
        with pytest.raises(DimensionMismatch, match="5 functions for 6 variables"):
            LogCanonicalSystem.build(sl4_pi, sl4_phis[:5])


class TestLinearize:
    def test_sl4(self, sl4_pi, sl4_pi0):
        lin = linearize(sl4_pi)
        for a in range(6):
            for b in range(6):
                assert lin.bracket_matrix[a][b] == sl4_pi0.bracket_matrix[a][b]

    def test_zero(self):
        pi = PoissonStructure.zero(Z6)
        lin = linearize(pi)
        assert lin.is_zero()

    def test_gl2_at_identity(self):
        pi = gl_standard(2)
        lin = linearize(pi, at=[1, 0, 0, 1])
        # {u11, u12} = u12/2 in the translated coordinates
        a = pi.vars.index["x11"]
        b = pi.vars.index["x12"]
        assert lin.bracket_matrix[a][b] == RatFun.from_poly(
            Poly.var(pi.vars, "x12") * QQ(1, 2)
        )

    def test_not_vanishing(self):
        pi = gl_standard(2)
        with pytest.raises(NotVanishing):
            linearize(pi, at=[1, 1, 1, 1])

    def test_pole_at_the_base_point(self):
        vs = VarSet(["x", "y"])
        entry = RatFun(parse_poly("x^2", vs), parse_poly("y", vs))
        pi = PoissonStructure(vs, [[RatFun.const(vs, 0), entry], [-entry, RatFun.const(vs, 0)]])
        with pytest.raises(NotRegular):
            linearize(pi)

    def test_jacobi_checked(self, sl4_pi):
        linearize(sl4_pi).check_jacobi()

    def test_non_jacobi_linear_part_rejected(self):
        # the linear part {x, y} = y, {y, z} = x is not a Lie algebra
        with pytest.raises(NotPoisson, match=r"Jacobi identity fails on \(0, 1, 2\)"):
            linearize(structure_from_table({(1, 2): "y", (2, 3): "x"}, XYZ))


XY = VarSet(["x", "y"])
XYZ = VarSet(["x", "y", "z"])


@pytest.mark.parametrize("n", [2, 4], ids=["short", "long"])
@pytest.mark.parametrize("use", [
    lambda point: parse_poly("x*y*z + z^2", XYZ).evaluate(point),
    lambda point: parse_poly("x*y*z + z^2", XYZ).shift(point),
    lambda point: RatFun(parse_poly("x*y*z", XYZ), parse_poly("1 + x", XYZ)).evaluate(point),
    # the base point where every bracket of the 3-variable cell vanishes
    lambda point: linearize(build_cell(3, longest_word(3)).pi_z, at=[0] * len(point)),
    # a point built over another VarSet
    lambda point: parse_poly("x*y*z", XYZ).evaluate(
        RationalPoint(point, VarSet([f"v{i}" for i in range(len(point))]))),
], ids=["Poly.evaluate", "Poly.shift", "RatFun.evaluate", "linearize", "RationalPoint"])
def test_a_point_of_the_wrong_length_raises(use, n):
    # a short point is not zero-filled and a long one is not cut
    with pytest.raises(DimensionMismatch, match=f"a point of {n} coordinates for 3 variables"):
        use(list(range(1, n + 1)))


@pytest.mark.parametrize("build, error, match", [
    (lambda: PoissonStructure(XY, [[0, parse_poly("x", XY)]]), NotPoisson, "square"),
    (lambda: PoissonStructure(XY, [[0, parse_poly("x", XY)], [parse_poly("x", XY), 0]]),
     NotPoisson, "skew-symmetric"),
    (lambda: LinearPoissonStructure(
        XY, structure_from_table({(1, 2): "x*y"}, XY).bracket_matrix),
     NotPoisson, "linear"),
    (lambda: LinearPoissonStructure(XY, [[0, 1], [-1, 0]]), NotPoisson, "linear"),
    (lambda: LinearPoissonStructure(
        XY, structure_from_table({(1, 2): "x + 1"}, XY).bracket_matrix),
     NotPoisson, "linear"),
    (lambda: PoissonStructure(
        XY, [[0, parse_poly("1/2*x", XY)], [parse_poly("-1/3*x", XY), 0]]),
     NotPoisson, "skew-symmetric"),
    (lambda: PoissonStructure(
        XY, [[0, RatFun(parse_poly("x", XY), parse_poly("1 + y", XY))],
             [RatFun(parse_poly("x", XY), parse_poly("1 + y", XY)), 0]]),
     NotPoisson, "skew-symmetric"),
    # {x, y} = y, {y, z} = x, {x, z} = 0: {z, {x, y}} = -x
    (lambda: structure_from_table({(1, 2): "y", (2, 3): "x"}, XYZ).check_jacobi(),
     NotPoisson, r"Jacobi identity fails on \(0, 1, 2\)"),
    (lambda: LinearPoissonStructure(
        XY, [[0, RatFun(parse_poly("x", XY), parse_poly("1 + y", XY))],
             [-RatFun(parse_poly("x", XY), parse_poly("1 + y", XY)), 0]]),
     NotPoisson, "polynomial"),
    (lambda: WeylElt((1, 1)), NotPermutation, "not a permutation"),
], ids=["non-square", "non-skew", "degree-2-entry", "constant-entry", "affine-entry",
        "skew-but-for-the-denominator", "non-skew-ratfun", "rational-linear-entry",
        "jacobi", "weyl-non-permutation"])
def test_malformed_input_raises_a_package_error(build, error, match):
    with pytest.raises(error, match=match):
        build()


# {x, y} = x over 1 (den 1); a constant at (0, 1) and its mirror at (1, 0)
def xy_constants(d01=0, c01=1, c10=-1):
    return [[[], [(d01, c01)]], [[(d01, c10)], []]]


@pytest.mark.parametrize("constants, den, error, match", [
    (xy_constants(), 0, NotPoisson, "denominator must be an int >= 1, got 0"),
    (xy_constants(), -2, NotPoisson, "denominator must be an int >= 1, got -2"),
    (xy_constants(), QQ(1, 2), NotPoisson, "denominator must be an int >= 1"),
    (xy_constants(d01=-1), 1, DimensionMismatch, "variable index -1 of 2 variables"),
    (xy_constants(d01=2), 1, DimensionMismatch, "variable index 2 of 2 variables"),
    (xy_constants(c10=1), 1, NotPoisson, "skew-symmetric"),
    ([[[], [(0, 1)]], [[], []]], 1, NotPoisson, "skew-symmetric"),
    ([[[(1, 2)], []], [[], []]], 1, NotPoisson, "skew-symmetric"),
    ([[[], [(0, 1)]]], 1, NotPoisson, "square"),
], ids=["den-0", "den-negative", "den-fraction", "index-negative", "index-n", "non-skew",
        "empty-mirror", "diagonal", "non-square"])
def test_linear_structure_refuses_malformed_constants(constants, den, error, match):
    with pytest.raises(error, match=match):
        linear_structure(XY, constants, den)


def test_linear_structure_reads_cancelling_pairs_as_zero():
    # pairs that cancel make a zero entry, skew against an empty mirror
    pi = linear_structure(XY, [[[], [(0, 1), (0, -1)]], [[], []]], 1)
    assert pi.table == [[{}, {}], [{}, {}]] and pi.is_zero()


def test_linear_structure_merges_and_reduces():
    # (0, 2) and (0, 1) add to 3 x, over 6: the entry x/2 with den 2
    pi = linear_structure(XY, [[[], [(0, 2), (0, 1), (1, 0)]], [[(0, -3)], []]], 6)
    assert pi.table == [[{}, {XY.pk.unit[0]: 3}], [{XY.pk.unit[0]: -3}, {}]] and pi.den == 6
    assert pi.bracket_matrix[0][1] == parse_poly("1/2*x", XY)
    assert pi.bracket_matrix[0][1].den == 2
    assert pi.bracket_matrix[1][1].is_zero()


def jacobi_outcomes(pi0):
    """The NotPoisson message of the Schouten form and of the structure-
    constant form of the Jacobi check on pi0, None where it passes."""
    out = []
    for check in (PoissonStructure.check_jacobi, LinearPoissonStructure.check_jacobi):
        try:
            check(pi0)
            out.append(None)
        except NotPoisson as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("build", [
    *[lambda n=n: sl_dual_linear_structure(n) for n in (1, 2, 3)],
    *[lambda n=n: dualgl.kks_gl(n) for n in (2, 3)],
    *[lambda m=m: build_cell(m, longest_word(m)).pi0 for m in (3, 4, 5, 6)],
], ids=["sl-dual-1", "sl-dual-2", "sl-dual-3", "kks-gl-2", "kks-gl-3",
        "schubert-3", "schubert-4", "schubert-5", "schubert-6"])
def test_structure_constant_jacobi_agrees_on_lie_algebras(build):
    assert jacobi_outcomes(build()) == [None, None]


def test_structure_constant_jacobi_names_the_schouten_triple():
    # {x, y} = y, {y, z} = x fails on (0, 1, 2); a linear term added to one
    # entry of the m=4 Schubert pi0 (and its mirror) fails first on the
    # triple the Schouten form names, or on none; denominators 1 to 3
    broken = LinearPoissonStructure(
        XYZ, structure_from_table({(1, 2): "y", (2, 3): "x"}, XYZ).bracket_matrix)
    assert jacobi_outcomes(broken) == ["Jacobi identity fails on (0, 1, 2)"] * 2
    pi0 = build_cell(4, longest_word(4)).pi0
    rng = random.Random(7)
    triples = set()
    for _ in range(30):
        P = [list(row) for row in pi0.bracket_matrix]
        a, b = sorted(rng.sample(range(6), 2))
        term = Poly.var(pi0.vars, f"z{rng.randint(1, 6)}") * QQ(
            rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
        P[a][b], P[b][a] = P[a][b] + term, P[b][a] - term
        schouten, constants = jacobi_outcomes(LinearPoissonStructure(pi0.vars, P))
        assert schouten == constants
        triples.add(schouten)
    assert len(triples - {None}) >= 3


class TestEntryRepresentation:
    @pytest.mark.parametrize("given", [
        RatFun(parse_poly("2*x*y", XY), Poly.const(XY, 2)),
        parse_poly("x*y", XY),
        1,
    ], ids=["ratfun", "poly", "int"])
    def test_a_polynomial_entry_is_stored_as_a_poly(self, given):
        pi = PoissonStructure(XY, [[0, given], [-given, 0]])
        for row in pi.bracket_matrix:
            assert all(type(x) is Poly for x in row)
        assert pi.bracket_matrix[0][1] == given
        assert type(PoissonStructure.zero(XY).bracket_matrix[0][1]) is Poly

    def test_a_rational_entry_stays_a_ratfun(self):
        entry = RatFun(parse_poly("x", XY), parse_poly("1 + y", XY))
        pi = PoissonStructure(XY, [[0, entry], [-entry, 0]])
        assert type(pi.bracket_matrix[0][1]) is RatFun
        assert type(pi.bracket_matrix[0][0]) is Poly
        x, y = Poly.var(XY, "x"), Poly.var(XY, "y")
        assert type(pi.bracket(x, y)) is RatFun

    def test_results_are_polys_exactly_without_a_denominator(self):
        x, y = Poly.var(XY, "x"), Poly.var(XY, "y")
        pi = PoissonStructure(XY, [[0, x * y], [-x * y, 0]])
        over_one = RatFun.from_poly(x)
        assert type(pi.bracket(x, y)) is Poly
        assert type(pi.bracket(over_one, y)) is RatFun
        assert pi.bracket(over_one, y) == pi.bracket(x, y)
        assert all(type(v) is Poly for v in pi.hamiltonian_field(over_one))
        assert all(type(v) is RatFun for v in pi.hamiltonian_field(1 / y))

    def test_rational_matrix_is_cleared_to_the_lcm_of_its_denominators(self):
        XYZ = VarSet(["x", "y", "z"])
        x, y, z = (Poly.var(XYZ, nm) for nm in XYZ.names)
        entries = {(0, 1): x / (y * z), (0, 2): y / (x * z), (1, 2): z}
        P = [[0] * 3 for _ in range(3)]
        for (a, b), v in entries.items():
            P[a][b], P[b][a] = v, -v
        pi = PoissonStructure(XYZ, P)
        assert pi._den == x * y * z
        assert pi._rows[0][1] == x * x
        assert pi._rows[2][1] == -x * y * z * z
        assert type(pi.bracket(x, y)) is RatFun and pi.bracket(x, y) == entries[0, 1]
        assert pi.bracket_poly(y, z) == z

    @pytest.mark.parametrize("num, den", [
        ("x*y + 1", "1"), ("x", "1 + y"), ("x + y", "x*y - 1"), ("y^2", "1 + y"),
    ])
    def test_field_is_the_bracket_on_a_rational_structure(self, num, den):
        # both run on the one field kernel; test_oracles checks each
        # against sympy
        entry = RatFun(parse_poly("x", XY), parse_poly("1 + y", XY))
        pi = PoissonStructure(XY, [[0, entry], [-entry, 0]])
        h = RatFun(parse_poly(num, XY), parse_poly(den, XY))
        field = pi.hamiltonian_field(h)
        for nm, x in zip(XY.names, field):
            assert x == pi.bracket(RatFun.var(XY, nm), h)
        assert any(not x.is_zero() for x in field)

    def test_brackets_follow_their_inputs(self, sl4_pi):
        f, g = p6("z1*z4 - z2"), p6("z4")
        assert sl4_pi.bracket(f, g) == p6("z1*z4^2 - z2*z4")
        assert type(sl4_pi.bracket(f, g)) is Poly
        assert type(sl4_pi.bracket(RatFun.from_poly(f), g)) is RatFun
        assert all(type(x) is Poly for x in sl4_pi.hamiltonian_field(f))
        assert sl4_pi.bracket(RatFun.from_poly(f), g) == sl4_pi.bracket(f, g)


class TestGenericRank:
    def test_zero(self):
        assert generic_rank(PoissonStructure.zero(Z6)) == 0

    def test_sl4_pi0(self, sl4_pi0):
        assert generic_rank(sl4_pi0) == 4

    def test_gl3_kks(self):
        # index of gl_3 is 3, so the rank is 9 - 3 = 6
        assert generic_rank(kks_gl(3)) == 6


class TestLogVolume:
    def test_sl4(self, sl4_pi, sl4_phis):
        sys = LogCanonicalSystem.build(sl4_pi, sl4_phis)
        mu = log_volume(sys.functions, sys.vars)
        expected = RatFun(
            Poly.const(Z6, 1), sl4_phis[2] * sl4_phis[4] * sl4_phis[5]
        )
        assert mu.coefficient == expected

    def test_coordinates(self):
        vs = VarSet(["z1", "z2", "z3"])
        fs = [Poly.var(vs, nm) for nm in vs.names]
        mu = log_volume(fs, vs)
        prod = Poly.var(vs, "z1") * Poly.var(vs, "z2") * Poly.var(vs, "z3")
        assert mu.coefficient == RatFun(Poly.const(vs, 1), prod)

    def test_curved(self):
        vs = VarSet(["z1", "z2"])
        fs = [parse_poly("z1", vs), parse_poly("1 + z2^2", vs)]
        mu = log_volume(fs, vs)
        expected = RatFun(
            parse_poly("2*z2", vs),
            parse_poly("z1", vs) * parse_poly("1 + z2^2", vs),
        )
        assert mu.coefficient == expected

    def test_dependent_functions_raise(self):
        vs = VarSet(["z1", "z2"])
        z1 = Poly.var(vs, "z1")
        with pytest.raises(DependentSystem):
            log_volume([z1, z1 * z1], vs)


class TestPropertyI:
    def test_sl4(self, sl4_pi, sl4_phis):
        sys = LogCanonicalSystem.build(sl4_pi, sl4_phis)
        rep = property_I_check(sys, sl4_pi)
        assert (rep.deg_mu_low, rep.half_rank, rep.holds) == (2, 2, True)

    def test_one_dim(self):
        vs = VarSet(["z1"])
        pi = PoissonStructure.zero(vs)
        sys = LogCanonicalSystem.build(pi, [Poly.var(vs, "z1")])
        rep = property_I_check(sys, pi)
        assert (rep.deg_mu_low, rep.half_rank, rep.holds) == (0, 0, True)

    def test_curved_fails(self):
        # deg(mu^low) = k+1 = 2 for 1+z2^(k+1) with k = 1, rank 0
        vs = VarSet(["z1", "z2"])
        pi = PoissonStructure.zero(vs)
        sys = LogCanonicalSystem.build(
            pi, [parse_poly("z1", vs), parse_poly("1 + z2^2", vs)]
        )
        rep = property_I_check(sys, pi)
        assert (rep.deg_mu_low, rep.half_rank, rep.holds) == (2, 0, False)

    def test_rank_above_degree_raises(self, sl4_pi, sl4_phis):
        # three copies of {x, y} = y have rank 6, above twice deg(mu^low) = 2
        sys = LogCanonicalSystem.build(sl4_pi, sl4_phis)
        pi0 = LinearPoissonStructure(Z6, structure_from_table(
            {(1, 2): "z2", (3, 4): "z4", (5, 6): "z6"}).bracket_matrix)
        with pytest.raises(InequalityViolated, match=r"deg\(mu\^low\) = 2 < rk\(pi0\)/2 = 3"):
            property_I_check(sys, sl4_pi, pi0=pi0)


class TestExtract:
    def test_sl4(self, sl4_pi, sl4_phis):
        sys = LogCanonicalSystem.build(sl4_pi, sl4_phis)
        pi0 = linearize(sl4_pi)
        rep = extract_integrable_system(sys, pi0)
        assert rep.involutive
        assert rep.independent_count == 4
        assert rep.magic_number == 4
        got = set(rep.functions)
        assert got == {"z1", "z2", "z3", "z2*z5 - z3*z4"}
        loaded = json.loads(rep.to_json())
        assert set(loaded) == {f.name for f in fields(IntegrableSystemReport)}
        assert loaded["selected_indices"] == rep.selected_indices

    @pytest.mark.parametrize("m, word, selected", [
        (4, None, [0, 1, 2, 4]),
        (5, None, [0, 1, 2, 3, 5, 6]),
        (5, (2, 1, 3, 2, 4, 3), [0, 1, 2, 3, 4, 5]),
        (5, (1, 2, 1, 3, 2, 4), [0, 1, 3, 4, 5]),
    ])
    def test_selected_indices_on_schubert_cells(self, m, word, selected):
        # the pivot columns of the Jacobian of the lows, pinned to the
        # indices a greedy scan of the functions in order keeps
        cell = build_cell(m, longest_word(m) if word is None else word)
        sys = LogCanonicalSystem.build(cell.pi_z, cell.phis)
        assert extract_integrable_system(sys, cell.pi0).selected_indices == selected

    def test_zero_structure(self):
        vs = VarSet(["z1", "z2"])
        pi = PoissonStructure.zero(vs)
        sys = LogCanonicalSystem.build(pi, [Poly.var(vs, "z1"), Poly.var(vs, "z2")])
        rep = extract_integrable_system(sys, LinearPoissonStructure(vs, PoissonStructure.zero(vs).bracket_matrix))
        assert rep.independent_count == rep.magic_number == 2


class TestCertify:
    def test_non_commuting_lows_raise(self, sl4_pi0):
        # {z1, z4} = -2*z2 under the SL(4) cell's pi0
        with pytest.raises(NotInvolutive):
            certify([p6("z1"), p6("z4")], sl4_pi0, Z6, 2)

    def test_wrong_selected_count_raises(self, sl4_pi0):
        with pytest.raises(CountShortfall, match="selected 1 functions"):
            certify([p6("z1")], sl4_pi0, Z6, 2)

    def test_non_linear_pi0_raises(self, sl4_pi):
        # the quadratic SL(4) structure has no table of structure constants
        with pytest.raises(NotPoisson, match="linear"):
            certify([p6("z1"), p6("z2")], sl4_pi, Z6, 2)

    def test_rank_below_expected_raises(self, sl4_pi0):
        with pytest.raises(CountShortfall, match="independent count 1"):
            certify([p6("z1"), p6("z1")], sl4_pi0, Z6, 2)

    def test_selected_low_missing_from_the_pool_raises(self):
        # {u12, u21} = u22 - u11 under gl(2)*: a pool that leaves them out
        # certifies nothing about them
        vs = dualgl.u_varset(2)
        u = {nm: Poly.var(vs, nm) for nm in vs.names}
        with pytest.raises(NotInvolutive, match="selected low 0 is not in the commuting pool"):
            certify([u["u12"], u["u21"]], dualgl.kks_gl(2), vs, 2,
                    commuting=[u["u11"] + u["u22"]])
        with pytest.raises(NotInvolutive, match="selected low 1 "):
            certify([u["u11"], u["u22"]], dualgl.kks_gl(2), vs, 2,
                    commuting=[u["u11"], u["u11"] + u["u22"]])
        with pytest.raises(NotInvolutive, match="not in involution"):
            certify([u["u12"], u["u21"]], dualgl.kks_gl(2), vs, 2)

    def test_labels_of_another_length_raise(self):
        # u11 and u22 commute under gl(2)* and are independent
        vs = dualgl.u_varset(2)
        lows = [Poly.var(vs, "u11"), Poly.var(vs, "u22")]
        with pytest.raises(DimensionMismatch, match="1 labels for 2 functions"):
            certify(lows, dualgl.kks_gl(2), vs, 2, labels=["only-one"])
        report = certify(lows, dualgl.kks_gl(2), vs, 2, labels=["a", "b"], commuting=lows)
        assert report.selected_indices == ["a", "b"]


class TestPfaffian:
    def test_sl4(self, sl4_pi, sl4_phis):
        sys = LogCanonicalSystem.build(sl4_pi, sl4_phis)
        pf = pfaffian_coefficient(sys)
        expected = sl4_phis[2] * sl4_phis[4] * sl4_phis[5]
        assert pf == RatFun.from_poly(expected)
        assert lowest_term(pf)[1] == 4  # so deg(Pf^low) = 4 - 6 = -2 as a 6-vector

    def test_coordinates(self):
        vs = VarSet(["z1", "z2", "z3"])
        pi = PoissonStructure.zero(vs)
        fs = [Poly.var(vs, nm) for nm in vs.names]
        sys = LogCanonicalSystem.build(pi, fs)
        pf = pfaffian_coefficient(sys)
        assert pf == RatFun.from_poly(fs[0] * fs[1] * fs[2])

    def test_single_variable(self):
        vs = VarSet(["z1"])
        pi = PoissonStructure.zero(vs)
        sys = LogCanonicalSystem.build(pi, [Poly.var(vs, "z1")])
        assert pfaffian_coefficient(sys) == RatFun.from_poly(Poly.var(vs, "z1"))


class TestInvolutivityOfLows:
    def test_sl4_log_canonical_pairs(self, sl4_pi, sl4_phis):
        # whenever {f, g} = lambda f g and the structure vanishes at 0, the
        # lowest terms must commute under the linearization
        pi0 = linearize(sl4_pi)
        pool = sl4_phis + [p6(f"z{i}") for i in range(1, 7)]
        checked = 0
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                lam = is_log_canonical(sl4_pi, pool[i], pool[j])
                if lam is None:
                    continue
                li, _ = lowest_term(pool[i])
                lj, _ = lowest_term(pool[j])
                assert pi0.bracket(li, lj).is_zero()
                checked += 1
        assert checked >= 15
