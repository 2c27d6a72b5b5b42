import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernmather.classpoly import (
    ClassPoly,
    chern_B,
    csm_linear_space,
    div_1p2H,
    involute,
    involute_all,
    _unpack,
)

from oracles import involute_binomial, signed


def H(n, power=1, coeff=1):
    """coeff * H^power mod H^n, from its coefficient list."""
    return ClassPoly([0] * power + [coeff], n)


class TestArithmetic:
    def test_add(self):
        assert H(3) + H(3) == ClassPoly([0, 2, 0])

    def test_scale(self):
        assert 3 * ClassPoly([1, 2], 2) == ClassPoly([3, 6])
        assert ClassPoly([1, 2], 2) * -2 == ClassPoly([-2, -4])

    def test_no_product_of_classes(self):
        # classes are only scaled by integers; shifted rows build the rest
        with pytest.raises(TypeError):
            ClassPoly([1, 1], 3) * ClassPoly([1, 1], 3)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError, match="modulus"):
            ClassPoly([1], 2) + ClassPoly([1], 3)
        with pytest.raises(ValueError, match="modulus"):
            ClassPoly([1], 2) - ClassPoly([1], 3)

    def test_constructor_rejects_nonzero_overflow(self):
        assert ClassPoly([1, 0, 0], 2) == ClassPoly([1, 0])
        with pytest.raises(ValueError):
            ClassPoly([1, 0, 5], 2)

    def test_constructor_rejects_float_coefficients(self):
        with pytest.raises(TypeError):
            ClassPoly([1, 2.0])


class TestEval:
    def test_corank1_value(self):
        f = ClassPoly([0, 3, 9, 10, 6, 3], 6)
        assert f.eval(-1) == -1

    def test_corank2_value(self):
        f = ClassPoly([0, 0, 0, 4, 6, 3], 6)
        assert f.eval(-1) == -1

    def test_zero(self):
        assert ClassPoly.zero(5).eval(17) == 0

    def test_ignores_truncation(self):
        # stored coefficients define the polynomial
        f = ClassPoly([1, 1], 2)
        assert f.eval(3) == 4


class TestInvolute:
    def test_degree_one_fixes_h(self):
        assert involute(ClassPoly([0, 1], 2), 1) == ClassPoly([0, 1], 2)

    def test_degree_two_of_h(self):
        assert involute(ClassPoly([0, 1], 3), 2) == ClassPoly([0, 2, 3])

    def test_worked_expansion(self):
        f = ClassPoly([0, 3, 9, 10, 6, 3], 6)
        assert involute(f, 5) == ClassPoly([0, 0, 0, 4, 6, 3], 6)

    def test_pointwise_functional_identity(self):
        # independent check: the transform evaluated at integers agrees with
        # its defining formula
        rng = random.Random(20240)
        for _ in range(100):
            d = rng.randint(1, 10)
            f = ClassPoly([rng.randint(-9, 9) for _ in range(d + 1)], d + 1)
            g = involute(f, d)
            for t in range(-6, 7):
                want = f.eval(-1 - t) - f.eval(-1) * ((1 + t) ** (d + 1) - t ** (d + 1))
                assert g.eval(t) == want

    def test_involution_property(self):
        rng = random.Random(99)
        for _ in range(200):
            d = rng.randint(1, 12)
            f = ClassPoly([0] + [rng.randint(-50, 50) for _ in range(d)], d + 1)
            assert involute(involute(f, d), d) == f

    def test_linearity(self):
        rng = random.Random(7)
        for _ in range(100):
            d = rng.randint(1, 10)
            f = ClassPoly([rng.randint(-20, 20) for _ in range(d + 1)], d + 1)
            g = ClassPoly([rng.randint(-20, 20) for _ in range(d + 1)], d + 1)
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            assert involute(a * f + b * g, d) == a * involute(f, d) + b * involute(g, d)

    def test_sign_rule(self):
        # I_n(H * B_n) = (-1)^(n+1) * H * B_n
        for n in range(1, 13):
            hb = ClassPoly([0] + [math.comb(n + 1, k) for k in range(n + 1)])
            want = hb if (n + 1) % 2 == 0 else -hb
            assert involute(hb, n) == want

    def test_degree_guard(self):
        f = H(6, 4)  # degree 4 > d+1 for d = 2
        with pytest.raises(ValueError, match="degree"):
            involute(f, 2)

    def test_modulus_guard(self):
        with pytest.raises(ValueError, match="modulus"):
            involute(ClassPoly([0, 1], 2), 3)

    def test_top_degree_monomial(self):
        # I_2(H^2) = (1+H)^2 - B_2 = -H - 2H^2
        assert involute(H(3, 2), 2) == ClassPoly([0, -1, -2])


# Property tests of the transform on classes of degree at most d+1 inside
# the moduli d+1..d+3, with coefficients of up to 90 bits.  Fixed example
# counts and derandomized draws keep them deterministic.

PROPERTY = settings(max_examples=10, derandomize=True, database=None, deadline=None)
WIDE = st.integers(-(2**90), 2**90)


@st.composite
def transform_inputs(draw, count, constant_term=True):
    """(d, classes): `count` classes sharing a degree d and a modulus."""
    d = draw(st.integers(1, 100))
    modulus = d + draw(st.integers(1, 3))
    top = min(d + 1, modulus - 1)
    classes = []
    for _ in range(count):
        cs = draw(st.lists(WIDE, min_size=top + 1, max_size=top + 1))
        if not constant_term:
            cs[0] = 0
        classes.append(ClassPoly(cs + [0] * (modulus - 1 - top), modulus))
    return d, classes


class TestInvoluteProperties:
    @PROPERTY
    @given(transform_inputs(1, constant_term=False))
    def test_involution_without_constant_term(self, case):
        d, (f,) = case
        g = involute(f, d)
        assert g.coeffs[0] == 0
        assert involute(g, d) == f

    @PROPERTY
    @given(transform_inputs(2), WIDE, WIDE)
    def test_linearity(self, case, a, b):
        d, (f, g) = case
        assert involute(a * f + b * g, d) == a * involute(f, d) + b * involute(g, d)


def _wide_class(rng, d, modulus, codim):
    """Random class of degree at most min(d+1, modulus-1): zero below H^codim,
    coefficients of 60 to 90 bits with random signs above it."""
    top = min(d + 1, modulus - 1)
    cs = [0] * modulus
    for k in range(codim, top + 1):
        cs[k] = rng.choice((-1, 1)) * rng.getrandbits(rng.randint(60, 90))
    return ClassPoly(cs)


@pytest.mark.parametrize("d", [40, 150, 400])
@pytest.mark.parametrize("extra", [0, 2], ids=["mod_d+1", "mod_d+3"])
class TestInvoluteLargeDegree:
    def test_defining_formula_at_enough_points(self, d, extra):
        # the result stores at most d+3 coefficients and the formula has
        # degree at most d+1, so agreement at d+3 integers is equality
        rng = random.Random(d * 10 + extra)
        for codim in (0, 1, d // 3):
            f = _wide_class(rng, d, d + 1 + extra, codim)
            g = involute(f, d)
            f_at_minus_one = f.eval(-1)
            for t in range(-(d // 2) - 1, d - d // 2 + 2):
                want = f.eval(-1 - t) - f_at_minus_one * ((1 + t) ** (d + 1) - t ** (d + 1))
                assert g.eval(t) == want

    def test_involution(self, d, extra):
        rng = random.Random(d * 10 + extra + 1)
        for codim in (1, 2, d // 2):
            f = _wide_class(rng, d, d + 1 + extra, codim)
            assert involute(involute(f, d), d) == f


def _batch(rng, m, d, modulus, bits, density=1.0):
    """m random classes mod `modulus` for the degree-d transform: degrees
    spread over 0..min(d+1, modulus-1), the top one always among them,
    coefficients of up to `bits` bits with random signs, each nonzero with
    probability `density`, and the zero class second when m > 1."""
    top = min(d + 1, modulus - 1)
    classes = []
    for c in range(m):
        deg = top if c == 0 else rng.randint(0, top)
        cs = [0] * modulus
        for k in range(deg + 1):
            if k == deg or rng.random() < density:
                cs[k] = rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, bits))
        cs[deg] = cs[deg] or 1
        classes.append(ClassPoly(cs))
    if m > 1:
        classes[1] = ClassPoly.zero(modulus)
    return classes


def _worst_case(modulus, deg, bits, sign=1):
    """a_i = sign * A * (-1)^i up to H^deg with A = 2^bits - 1: every term of
    the shift has one sign, so |f(-1-H)_k| = A C(deg+1, k+1), the bound the
    packed digits are sized for."""
    big = sign * (2**bits - 1)
    return ClassPoly([big * (-1) ** i for i in range(deg + 1)], modulus)


class TestInvoluteAllOracle:
    """`involute_all` against the binomial definition in `oracles`."""

    @pytest.mark.parametrize(
        "m, d, extra, bits",
        [
            (1, 30, 1, 64),
            (64, 40, 1, 90),
            (64, 12, 0, 20),
            (9, 60, 2, 1100),
            (5, 25, 1, 1500),
        ],
        ids=["m1", "m64", "m64-mod_d+1", "1100-bit", "1500-bit"],
    )
    def test_random_batches(self, m, d, extra, bits):
        rng = random.Random(f"{m}/{d}/{extra}/{bits}")
        for _ in range(3):
            fs = _batch(rng, m, d, d + 1 + extra, bits)
            got = involute_all(fs, d)
            assert got == [involute_binomial(f, d) for f in fs]
            # each class alone packs into narrower digits
            assert got == [involute_all([f], d)[0] for f in fs]

    @pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
    @pytest.mark.parametrize("bits", [1, 7, 8, 1000])
    def test_worst_case_digits(self, sign, bits):
        d = 30
        fs = [_worst_case(d + 2, deg, bits, sign) for deg in (d + 1, d, 3)]
        fs.append(-fs[0])
        got = involute_all(fs, d)
        assert got == [involute_binomial(f, d) for f in fs]
        # the shift, before the f(-1) B_d correction, reaches the bound
        b_d = chern_B(d, d + 2).coeffs
        f = fs[0]
        shift = [g + f.eval(-1) * b for g, b in zip(got[0].coeffs, b_d)]
        big = sign * (2**bits - 1)
        assert shift == [big * math.comb(d + 2, k + 1) for k in range(d + 2)]

    @pytest.mark.parametrize("m", [1, 2, 3, 16])
    def test_digit_at_the_edge_of_the_width(self, m):
        # A - A H with A = 2^(8m-2): |f|(2) = 3A has 8m bits, and the shift
        # g_0 = f(-1) = 2A = 2^(8m-1) needs the digit of 8m + 8 bits
        a = 2 ** (8 * m - 2)
        f = ClassPoly([a, -a], 5)
        assert f.eval(-1) == 2 ** (8 * m - 1) and (3 * a).bit_length() == 8 * m
        assert involute_all([f], 3) == [involute_binomial(f, 3)]
        assert involute_all([f, -f], 3) == [involute_binomial(f, 3), involute_binomial(-f, 3)]

    def test_one_batch_at_n_1024(self):
        # d = 1022 is the largest `involute --d`; sparse classes keep the
        # oracle cheap, and the dense worst case has its closed form
        d, modulus = 1022, 1024
        rng = random.Random(1024)
        fs = _batch(rng, 5, d, modulus, 1100, density=0.01)
        worst = _worst_case(modulus, d + 1, 1000, -1)
        got = involute_all(fs + [worst], d)
        assert got[:-1] == [involute_binomial(f, d) for f in fs]
        b_d = chern_B(d, modulus).coeffs
        at_minus_one = worst.eval(-1)
        big = -(2**1000 - 1)
        assert list(got[-1].coeffs) == [
            big * math.comb(d + 2, k + 1) - at_minus_one * b for k, b in enumerate(b_d)
        ]

    def test_empty_batch(self):
        assert involute_all([], 3) == []

    def test_checks_in_order(self):
        # d first, then modulus and degree class by class, before any work
        good, low_modulus = ClassPoly([0, 1], 4), ClassPoly([0, 1], 2)
        high_degree = H(6, 4)
        with pytest.raises(ValueError, match="d >= 1"):
            involute_all([low_modulus, high_degree], 0)
        with pytest.raises(ValueError, match="modulus 2 cannot carry"):
            involute_all([good, low_modulus, high_degree], 2)
        with pytest.raises(ValueError, match="degree 4 exceeds"):
            involute_all([good, high_degree, low_modulus], 2)


class TestUnpack:
    """`_unpack`, the reader of packed signed digits that `involute_all` and
    the localization in `detvar` share, on integers built by plain
    arithmetic, p = sum_j d_j 2^(W j), so that the digits carry into each
    other."""

    @pytest.mark.parametrize("span", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_digits_come_back(self, size, span):
        width = 8 * size
        half = 2 ** (width - 1)
        edges = [-half, half - 1, 0, 1, -1]
        rng = random.Random(f"{size}/{span}")
        rows = [[d] * span for d in edges]
        rows += [[rng.choice(edges) for _ in range(span)] for _ in range(40)]
        rows += [[rng.randrange(-half, half) for _ in range(span)] for _ in range(40)]
        packed = [sum(d * 2 ** (width * j) for j, d in enumerate(row)) for row in rows]
        assert _unpack(packed, size, span) == [d for row in rows for d in row]


class TestSigned:
    """The sign rule of the transform, `oracles.signed`, that the tests use."""

    def test_point(self):
        f = H(4, 3)
        assert signed(f) == f

    def test_even_dimension(self):
        f = ClassPoly([0, 2, 4, 4], 4)
        assert signed(f) == f

    def test_odd_dimension(self):
        assert signed(ClassPoly([1, 2], 2)) == ClassPoly([-1, -2])

    def test_zero_errors(self):
        with pytest.raises(ValueError, match="dimension"):
            signed(ClassPoly.zero(3))


class TestChernB:
    def test_p1(self):
        assert chern_B(1, 2) == ClassPoly([1, 2])

    def test_p3(self):
        assert chern_B(3, 4) == ClassPoly([1, 4, 6, 4])

    def test_truncation_headroom(self):
        assert chern_B(2, 6) == ClassPoly([1, 3, 3, 0, 0, 0])

    def test_normalization_and_euler_characteristic(self):
        for n in range(1, 9):
            b = chern_B(n, n + 3)
            assert b.eval(0) == 1
            assert b.coeffs[n] == n + 1

    def test_modulus_guard(self):
        with pytest.raises(ValueError):
            chern_B(4, 3)
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            chern_B(-1, 3)

    @pytest.mark.parametrize("modulus", [1, 2, 7, 1024])
    def test_matches_comb(self, modulus):
        # n from 0 to N - 1, at N = n + 1 and with room above: the row
        # C(n+1, 0..n), cut below its H^(n+1) term, then zeros
        for n in {0, 1, modulus // 2, max(modulus - 2, 0), modulus - 1} - {modulus}:
            row = tuple(math.comb(n + 1, k) for k in range(n + 1))
            for size in (n + 1, modulus, 3 * modulus):
                assert chern_B(n, size).coeffs == row + (0,) * (size - 1 - n), (n, size)


class TestDiv1p2H:
    def test_smooth_quadric_surface(self):
        assert div_1p2H(ClassPoly([0, 2, 8, 12], 4)) == ClassPoly([0, 2, 4, 4])

    def test_unit(self):
        assert div_1p2H(ClassPoly([1, 2, 0, 0], 4)) == ClassPoly([1, 0, 0, 0])

    def test_top_degree_unaffected(self):
        f = H(6, 5)
        assert div_1p2H(f) == f

    def test_roundtrip(self):
        rng = random.Random(5)

        def times_1p2H(f):  # f + 2H*f, the top term of 2H*f cut off
            return f + 2 * ClassPoly((0,) + f.coeffs[:-1])

        for _ in range(50):
            f = ClassPoly([rng.randint(-30, 30) for _ in range(7)], 7)
            assert div_1p2H(times_1p2H(f)) == f
            assert times_1p2H(div_1p2H(f)) == f


class TestDerivedQuantities:
    def test_dim_codim_degree(self):
        f = ClassPoly([0, 0, 3, 1], 4)  # degree-3 curve class in P^3
        assert f.codim == 2
        assert f.dim == 1
        assert f.coeffs[f.codim] == 3  # the degree of the curve
        assert f.coeffs[-1] == 1  # its Euler characteristic

    def test_linear_space_class(self):
        assert csm_linear_space(0, 4) == H(4, 3)
        assert csm_linear_space(2, 6) == ClassPoly([0, 0, 0, 1, 3, 3])
        assert csm_linear_space(1, 2) == ClassPoly([1, 2])
        with pytest.raises(ValueError):
            csm_linear_space(4, 4)

    @pytest.mark.parametrize("modulus", [1, 2, 7, 1024])
    def test_linear_space_and_chern_B_match_comb(self, modulus):
        # P^k from k = 0 to k = N-1, the whole space; chern_B at N = n+1 and
        # with room above
        for k in {0, 1, modulus // 2, modulus - 1} - {modulus}:
            row = [math.comb(k + 1, j) for j in range(k + 1)]
            assert csm_linear_space(k, modulus).coeffs == (0,) * (modulus - 1 - k) + tuple(row), k
            assert chern_B(k, modulus).coeffs == tuple(row) + (0,) * (modulus - 1 - k), k
        with pytest.raises(ValueError, match="modulus too small"):
            chern_B(modulus, modulus)
        for k in (-1, modulus):
            with pytest.raises(ValueError, match=re.escape(f"no P^{k} inside P^{modulus - 1}")):
                csm_linear_space(k, modulus)


class TestRendering:
    def test_text(self):
        assert ClassPoly([0, 0, 0, 4, 6, 3]).text() == "4*H^3 + 6*H^4 + 3*H^5"
        assert ClassPoly([1, -2, 1]).text() == "1 - 2*H + H^2"
        assert ClassPoly.zero(4).text() == "0"
        assert ClassPoly([-1, -2]).text() == "-1 - 2*H"

    def test_to_list(self):
        assert ClassPoly([0, 2, 4, 4]).to_list() == [0, 2, 4, 4]
