import pytest

from chernmather.classpoly import ClassPoly, chern_B, div_1p2H, involute
from chernmather.quadric import (
    QuadricSpec,
    build_pair,
    complex_link_chi,
    cross_validate,
    csm_quadric,
    csm_singular_locus,
    dual_cm_classes,
    eu_values,
    milnor_class,
    milnor_number,
)
from chernmather.strata import euler_table

from oracles import chern_mather_quadric, milnor_class_binomial, signed


def smooth_quadric_class(n: int) -> ClassPoly:
    mod = n + 1
    return div_1p2H(2 * ClassPoly.monomial(1, mod) * chern_B(n, mod))


def quadric_chi(n: int, r: int) -> int:
    """Independent Euler characteristic: a rank-r quadric in P^n is the cone
    with vertex P^(n-r) over a smooth quadric of dimension r-2, and a smooth
    quadric of dimension d has chi = d+2 for even d, d+1 for odd d."""
    chi_smooth = lambda d: d + 2 if d % 2 == 0 else d + 1
    if r == n + 1:
        return chi_smooth(n - 1)
    return (n - r + 1) + chi_smooth(r - 2)


class TestSpecGuards:
    def test_rank_one(self):
        with pytest.raises(ValueError, match="doubled hyperplane"):
            QuadricSpec(4, 1)

    def test_rank_two(self):
        with pytest.raises(ValueError, match="two hyperplanes"):
            QuadricSpec(4, 2)

    def test_rank_range(self):
        with pytest.raises(ValueError):
            QuadricSpec(3, 5)
        with pytest.raises(ValueError):
            QuadricSpec(1, 3)

    def test_smooth_flag(self):
        assert QuadricSpec(3, 4).is_smooth
        assert not QuadricSpec(3, 3).is_smooth


class TestSingularLocus:
    def test_point(self):
        assert csm_singular_locus(QuadricSpec(3, 3)) == ClassPoly.monomial(3, 4)

    def test_plane(self):
        got = csm_singular_locus(QuadricSpec(5, 3))
        assert got == ClassPoly([0, 0, 0, 1, 3, 3], 6)

    def test_leading_coefficient_always_one(self):
        for n in range(2, 9):
            for r in range(3, n + 1):
                f = csm_singular_locus(QuadricSpec(n, r))
                assert f.coeffs[f.codim] == 1

    def test_smooth_errors(self):
        with pytest.raises(ValueError, match="singular locus"):
            csm_singular_locus(QuadricSpec(3, 4))


class TestCsmQuadric:
    def test_smooth_surface(self):
        assert csm_quadric(QuadricSpec(3, 4)) == ClassPoly([0, 2, 4, 4], 4)

    def test_cone_in_p3(self):
        assert csm_quadric(QuadricSpec(3, 3)) == ClassPoly([0, 2, 4, 3], 4)

    def test_euler_characteristics(self):
        for n in range(2, 11):
            for r in range(3, n + 2):
                assert csm_quadric(QuadricSpec(n, r)).coeffs[-1] == quadric_chi(n, r)

    def test_degree_two(self):
        for n in range(2, 9):
            for r in range(3, n + 2):
                f = csm_quadric(QuadricSpec(n, r))
                assert f.coeffs[f.codim] == 2

    def test_eval_at_minus_one(self):
        # singular quadrics evaluate to (-1)^n; smooth ones to (-1)^n + (-1)
        for n in range(2, 11):
            for r in range(3, n + 1):
                assert csm_quadric(QuadricSpec(n, r)).eval(-1) == (-1) ** n
            smooth = csm_quadric(QuadricSpec(n, n + 1)).eval(-1)
            assert smooth == (-2 if n % 2 else 0)


class TestMilnorClass:
    def test_cone_in_p3(self):
        assert milnor_class(QuadricSpec(3, 3)) == ClassPoly.monomial(3, 4)

    def test_p4_rank3(self):
        assert milnor_class(QuadricSpec(4, 3)) == ClassPoly.monomial(3, 5, -1)

    def test_smooth_is_zero(self):
        assert milnor_class(QuadricSpec(4, 5)).is_zero()

    def test_division_route_agrees(self):
        # the division route mu*csm(S)/(1+2H) against the double-binomial
        # oracle; also close the defining identity against the smooth class
        for n in range(2, 11):
            for r in range(3, n + 1):
                spec = QuadricSpec(n, r)
                mc = milnor_class(spec)
                assert mc == milnor_class_binomial(n, r), (n, r)
                lhs = smooth_quadric_class(n) - csm_quadric(spec)
                if (n - 1) % 2 == 1:
                    lhs = -lhs
                assert lhs == mc

    @pytest.mark.parametrize("n,r", [(300, 3), (300, 150), (301, 4)])
    def test_large_ambient(self, n, r):
        spec = QuadricSpec(n, r)
        mc = milnor_class(spec)
        assert mc == milnor_class_binomial(n, r)
        lhs = smooth_quadric_class(n) - csm_quadric(spec)
        assert (lhs if n % 2 == 1 else -lhs) == mc
        assert mc.coeffs[r] == milnor_number(spec)

    def test_milnor_number_extraction(self):
        for n in range(2, 11):
            for r in range(3, n + 1):
                spec = QuadricSpec(n, r)
                assert milnor_class(spec).coeffs[r] == milnor_number(spec)


class TestScalars:
    def test_eu_values(self):
        assert eu_values(QuadricSpec(4, 3)) == (1, 0)
        assert eu_values(QuadricSpec(4, 4)) == (1, 2)
        assert eu_values(QuadricSpec(4, 5)) == (1, None)

    def test_milnor_number(self):
        assert milnor_number(QuadricSpec(3, 3)) == 1
        assert milnor_number(QuadricSpec(4, 3)) == -1
        with pytest.raises(ValueError):
            milnor_number(QuadricSpec(3, 4))

    def test_complex_link(self):
        assert complex_link_chi() == -2


class TestDualClasses:
    def test_cone_in_p3(self):
        x_dual, s_dual = dual_cm_classes(QuadricSpec(3, 3))
        assert x_dual == ClassPoly([0, 0, 2, 2], 4)
        assert s_dual == ClassPoly([0, 1, 3, 3], 4)

    def test_smooth_self_dual_class(self):
        x_dual, s_dual = dual_cm_classes(QuadricSpec(4, 5))
        assert s_dual is None
        assert x_dual == smooth_quadric_class(4)

    def test_involution_exchange(self):
        for n in range(2, 11):
            for r in range(3, n + 2):
                spec = QuadricSpec(n, r)
                x_dual, s_dual = dual_cm_classes(spec)
                # the Chern-Mather class as reported: read off the solved table
                cm = euler_table(build_pair(spec)).chern_mather_primal[0]
                assert cm == chern_mather_quadric(spec), (n, r)
                assert involute(signed(cm), n) == signed(x_dual), (n, r)
                if s_dual is not None:
                    assert (
                        involute(signed(csm_singular_locus(spec)), n)
                        == signed(s_dual)
                    ), (n, r)


def solved(spec: QuadricSpec):
    return cross_validate(spec, build_pair(spec))


class TestCrossValidate:
    def test_cone_in_p3(self):
        table = solved(QuadricSpec(3, 3))
        assert table.primal == ((1, 0), (0, 1))

    def test_even_rank_cases(self):
        assert solved(QuadricSpec(5, 4)).primal[0] == (1, 2)
        assert solved(QuadricSpec(6, 6)).primal[0] == (1, 2)

    def test_sweep_matches_closed_form(self):
        for n in range(2, 11):
            for r in range(3, n + 1):
                spec = QuadricSpec(n, r)
                table = solved(spec)
                assert table.primal[0][1] == eu_values(spec)[1]
                # cone-point value agrees with the value along the vertex locus
                assert table.origin[0] == eu_values(spec)[1]

    def test_smooth_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            solved(QuadricSpec(3, 4))

    def test_pair_of_another_rank_fails_the_check(self):
        # the rank-3 pair solves to Eu = 0 along the singular locus, where
        # the rank-4 closed form says 2
        message = r"^solved primal\[0\] differs from its closed form$"
        with pytest.raises(ArithmeticError, match=message):
            cross_validate(QuadricSpec(5, 4), build_pair(QuadricSpec(5, 3)))

    def test_smooth_pair_still_solvable(self):
        # the degenerate single-stratum pair passes the consistency check
        for n in (3, 4, 5):
            table = euler_table(build_pair(QuadricSpec(n, n + 1)))
            assert table.primal == ((1,),)
            assert table.origin[0] == (2 if n % 2 else 0)

