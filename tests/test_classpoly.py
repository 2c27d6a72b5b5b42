import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernmather.classpoly import (
    ClassPoly,
    chern_B,
    csm_linear_space,
    div_1p2H,
    involute,
    one_plus_h_power,
)


def H(n, power=1, coeff=1):
    return ClassPoly.monomial(power, n, coeff)


class TestArithmetic:
    def test_add(self):
        assert H(3) + H(3) == ClassPoly([0, 2, 0])

    def test_mul_truncates(self):
        assert H(4, 2) * H(4, 2) == ClassPoly.zero(4)

    def test_mul(self):
        f = ClassPoly([1, 1], 3)
        assert f * f == ClassPoly([1, 2, 1])

    def test_scale(self):
        assert 3 * ClassPoly([1, 2], 2) == ClassPoly([3, 6])

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError, match="modulus"):
            ClassPoly([1], 2) + ClassPoly([1], 3)
        with pytest.raises(ValueError, match="modulus"):
            ClassPoly([1], 2) * ClassPoly([1], 3)

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
            hb = ClassPoly.monomial(1, n + 2) * chern_B(n, n + 2)
            want = hb if (n + 1) % 2 == 0 else -hb
            assert involute(hb, n) == want

    def test_degree_guard(self):
        f = ClassPoly.monomial(4, 6)  # degree 4 > d+1 for d = 2
        with pytest.raises(ValueError, match="degree"):
            involute(f, 2)

    def test_modulus_guard(self):
        with pytest.raises(ValueError, match="modulus"):
            involute(ClassPoly([0, 1], 2), 3)

    def test_top_degree_monomial(self):
        # I_2(H^2) = (1+H)^2 - B_2 = -H - 2H^2
        assert involute(ClassPoly.monomial(2, 3), 2) == ClassPoly([0, -1, -2])


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


class TestSigned:
    def test_point(self):
        f = ClassPoly.monomial(3, 4)
        assert ClassPoly.signed(f) == f

    def test_even_dimension(self):
        f = ClassPoly([0, 2, 4, 4], 4)
        assert ClassPoly.signed(f) == f

    def test_odd_dimension(self):
        assert ClassPoly.signed(ClassPoly([1, 2], 2)) == ClassPoly([-1, -2])

    def test_zero_errors(self):
        with pytest.raises(ValueError, match="dimension"):
            ClassPoly.signed(ClassPoly.zero(3))


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


class TestDiv1p2H:
    def test_smooth_quadric_surface(self):
        assert div_1p2H(ClassPoly([0, 2, 8, 12], 4)) == ClassPoly([0, 2, 4, 4])

    def test_unit(self):
        assert div_1p2H(ClassPoly([1, 2, 0, 0], 4)) == ClassPoly([1, 0, 0, 0])

    def test_top_degree_unaffected(self):
        f = ClassPoly.monomial(5, 6)
        assert div_1p2H(f) == f

    def test_roundtrip(self):
        rng = random.Random(5)
        unit = ClassPoly([1, 2], 7) + ClassPoly.zero(7)
        for _ in range(50):
            f = ClassPoly([rng.randint(-30, 30) for _ in range(7)], 7)
            assert div_1p2H(f * unit) == f
            assert div_1p2H(f) * unit == f


class TestDerivedQuantities:
    def test_dim_codim_degree(self):
        f = ClassPoly([0, 0, 3, 1], 4)  # degree-3 curve class in P^3
        assert f.codim == 2
        assert f.dim == 1
        assert f.coeffs[f.codim] == 3  # the degree of the curve
        assert f.coeffs[-1] == 1  # its Euler characteristic

    def test_linear_space_class(self):
        assert csm_linear_space(0, 4) == ClassPoly.monomial(3, 4)
        assert csm_linear_space(2, 6) == ClassPoly([0, 0, 0, 1, 3, 3])
        assert csm_linear_space(1, 2) == ClassPoly([1, 2])
        with pytest.raises(ValueError):
            csm_linear_space(4, 4)

    def test_one_plus_h_power(self):
        assert one_plus_h_power(4, 3) == ClassPoly([1, 4, 6])

    @pytest.mark.parametrize("modulus", [1, 2, 7, 1024])
    def test_one_plus_h_power_matches_comb(self, modulus):
        # m below, at and above modulus - 1: the row is cut by m or by the modulus
        for m in {0, 1, modulus // 2, max(modulus - 2, 0), modulus - 1, modulus, 3 * modulus}:
            expected = [math.comb(m, k) for k in range(modulus)]
            assert one_plus_h_power(m, modulus).coeffs == tuple(expected), m


class TestRendering:
    def test_text(self):
        assert ClassPoly([0, 0, 0, 4, 6, 3]).text() == "4*H^3 + 6*H^4 + 3*H^5"
        assert ClassPoly([1, -2, 1]).text() == "1 - 2*H + H^2"
        assert ClassPoly.zero(4).text() == "0"
        assert ClassPoly([-1, -2]).text() == "-1 - 2*H"

    def test_to_list(self):
        assert ClassPoly([0, 2, 4, 4]).to_list() == [0, 2, 4, 4]
