import json

import pytest

from chernmather import quadric
from chernmather.classpoly import ClassPoly, csm_linear_space, involute
from chernmather.cli import main as cli_main
from chernmather.quadric import QuadricSpec, build_pair, cross_validate, milnor_class
from chernmather.strata import euler_table

from oracles import (
    chern_mather_quadric,
    milnor_class_binomial,
    quadric_pair_binomial,
    signed,
)


def smooth_quadric_class(n: int) -> ClassPoly:
    """The smooth quadric in P^n, from the binomial oracle."""
    return ClassPoly(quadric_pair_binomial(n, n + 1)[1][0][1])


def quadric_class(spec: QuadricSpec) -> ClassPoly:
    """Class of the whole quadric X: the sum of its strata in `build_pair`."""
    pair = build_pair(spec)
    return sum((s.csm for s in pair.primal[1:]), pair.primal[0].csm)


def singular_locus(spec: QuadricSpec) -> ClassPoly:
    return build_pair(spec).primal[1].csm


def report(capsys, n: int, r: int) -> dict:
    """The outputs of the `quadric` report."""
    assert cli_main(["quadric", "--n", str(n), "--rank", str(r)]) == 0
    return json.loads(capsys.readouterr().out)["outputs"]


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


# Every pair of `strata-solve`'s quadric range, 2 <= n <= 60, and three at
# the largest n, N = 1024, where the classes pass 1,000 bits.
PAIR_CASES = [(n, range(3, n + 2)) for n in range(2, 61)] + [(1023, (3, 4, 1024))]


@pytest.mark.parametrize("n, ranks", PAIR_CASES, ids=[f"n{n}" for n, _ in PAIR_CASES])
def test_build_pair_matches_binomial_oracle(n, ranks):
    def side(strata):
        return tuple((s.name, s.csm.coeffs, s.dim) for s in strata)

    for r in ranks:
        pair = build_pair(QuadricSpec(n, r))
        got = (pair.ambient, side(pair.primal), side(pair.dual), pair.pairing)
        assert got == quadric_pair_binomial(n, r), (n, r)


class TestSingularLocus:
    def test_point(self):
        assert singular_locus(QuadricSpec(3, 3)) == ClassPoly([0, 0, 0, 1])

    def test_plane(self):
        got = singular_locus(QuadricSpec(5, 3))
        assert got == ClassPoly([0, 0, 0, 1, 3, 3], 6)

    def test_leading_coefficient_always_one(self):
        for n in range(2, 9):
            for r in range(3, n + 1):
                f = singular_locus(QuadricSpec(n, r))
                assert f.coeffs[f.codim] == 1


class TestCsmQuadric:
    def test_smooth_surface(self):
        assert quadric_class(QuadricSpec(3, 4)) == ClassPoly([0, 2, 4, 4], 4)

    def test_cone_in_p3(self):
        assert quadric_class(QuadricSpec(3, 3)) == ClassPoly([0, 2, 4, 3], 4)

    def test_euler_characteristics(self):
        for n in range(2, 11):
            for r in range(3, n + 2):
                assert quadric_class(QuadricSpec(n, r)).coeffs[-1] == quadric_chi(n, r)

    def test_degree_two(self):
        for n in range(2, 9):
            for r in range(3, n + 2):
                f = quadric_class(QuadricSpec(n, r))
                assert f.coeffs[f.codim] == 2

    def test_eval_at_minus_one(self):
        # singular quadrics evaluate to (-1)^n; smooth ones to (-1)^n + (-1)
        for n in range(2, 11):
            for r in range(3, n + 1):
                assert quadric_class(QuadricSpec(n, r)).eval(-1) == (-1) ** n
            smooth = quadric_class(QuadricSpec(n, n + 1)).eval(-1)
            assert smooth == (-2 if n % 2 else 0)


class TestMilnorClass:
    def test_cone_in_p3(self):
        assert milnor_class(QuadricSpec(3, 3)) == ClassPoly([0, 0, 0, 1])

    def test_p4_rank3(self):
        assert milnor_class(QuadricSpec(4, 3)) == ClassPoly([0, 0, 0, -1, 0])

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
                lhs = smooth_quadric_class(n) - quadric_class(spec)
                if (n - 1) % 2 == 1:
                    lhs = -lhs
                assert lhs == mc

    @pytest.mark.parametrize("n,r", [(300, 3), (300, 150), (301, 4)])
    def test_large_ambient(self, n, r):
        spec = QuadricSpec(n, r)
        mc = milnor_class(spec)
        assert mc == milnor_class_binomial(n, r)
        lhs = smooth_quadric_class(n) - quadric_class(spec)
        assert (lhs if n % 2 == 1 else -lhs) == mc
        assert mc.coeffs[r] == (-1) ** (n + r)

    def test_milnor_number_extraction(self):
        for n in range(2, 11):
            for r in range(3, n + 1):
                assert milnor_class(QuadricSpec(n, r)).coeffs[r] == (-1) ** (n + r)

    def test_reported_class_is_the_solved_class(self, monkeypatch, capsys):
        # the pair is built from `milnor_class` itself, so a wrong Milnor
        # class reaches the solve and fails its check instead of being
        # printed; a smooth quadric's class is zero and nothing is solved
        monkeypatch.setattr(quadric, "milnor_class", lambda spec: -milnor_class(spec))
        assert cli_main(["quadric", "--n", "5", "--rank", "4"]) == 3
        err = capsys.readouterr().err
        assert "equations are mutually inconsistent" in err
        assert "[primal[0] 'quadric_open' <-> dual[0] 'dual_quadric']" in err
        assert report(capsys, 5, 6)["milnor_class"] == [0] * 6


class TestScalars:
    """The scalars of the `quadric` report."""

    def test_eu_values(self, capsys):
        for r, eu_singular in [(3, 0), (4, 2), (5, None)]:
            outs = report(capsys, 4, r)
            assert (outs["eu_generic"], outs["eu_singular"]) == (1, eu_singular), r

    def test_milnor_number(self, capsys):
        assert report(capsys, 3, 3)["milnor_number"] == 1
        assert report(capsys, 4, 3)["milnor_number"] == -1
        assert report(capsys, 3, 4)["milnor_number"] is None

    def test_complex_link(self, capsys):
        for n, r in [(3, 3), (4, 4), (4, 5)]:
            assert report(capsys, n, r)["complex_link_chi"] == -2


class TestDualClasses:
    def test_cone_in_p3(self, capsys):
        outs = report(capsys, 3, 3)
        assert outs["dual_quadric_cm"] == [0, 0, 2, 2]
        assert outs["dual_singular_cm"] == [0, 1, 3, 3]

    def test_smooth_self_dual_class(self, capsys):
        outs = report(capsys, 4, 5)
        assert outs["dual_singular_cm"] is None
        assert outs["dual_quadric_cm"] == list(smooth_quadric_class(4).coeffs)

    def test_involution_exchange(self):
        for n in range(2, 11):
            for r in range(3, n + 2):
                spec = QuadricSpec(n, r)
                pair = build_pair(spec)
                # the Chern-Mather class as reported: read off the solved table
                cm = euler_table(pair).chern_mather_primal[0]
                assert cm == chern_mather_quadric(spec), (n, r)
                assert involute(signed(cm), n) == signed(pair.dual[0].csm), (n, r)
                if not spec.is_smooth:
                    # S = P^(n-r) and its dual, a linear P^(r-1)
                    s_dual = csm_linear_space(r - 1, n + 1)
                    assert involute(signed(pair.primal[1].csm), n) == signed(s_dual), (n, r)


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
                assert table.primal[0][1] == (-1) ** r + 1
                # cone-point value agrees with the value along the vertex locus
                assert table.origin[0] == (-1) ** r + 1

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

