import dataclasses
import json
from math import comb, factorial, prod

import pytest

from chernmather import detvar
from chernmather.classpoly import ClassPoly, chern_B, involute
from chernmather.cli import main as cli_main
from chernmather.detvar import (
    build_pair,
    chern_mather_det,
    csm_stratum,
    duality_check,
    eu_table_det,
    q_poly,
    stratum_dim,
)
from chernmather.strata import euler_table

from oracles import q_poly_schubert

# Pushforward class of the rank-one locus for n = 3: the Segre embedding of
# P^2 x P^2 in P^8, computed independently from c(T(P^2 x P^2)) and the
# degrees of the sub-product classes: coefficient of H^(4+a+b) is
# sum C(3,a) C(3,b) C(4-a-b, 2-a).
SEGRE_3 = ClassPoly([0, 0, 0, 0, 6, 18, 24, 18, 9], 9)


class TestQPoly:
    def test_smooth_quadric_surface(self):
        assert q_poly(2, 1) == ClassPoly([0, 2, 4, 4, 0, 0, 0, 0], 4)

    def test_degenerate_rank_zero(self):
        for n in (2, 3):
            assert q_poly(n, 0) == chern_B(n * n - 1, n * n)

    def test_degenerate_full_kernel(self):
        assert q_poly(2, 2).is_zero()
        assert q_poly(3, 3).is_zero()

    def test_segre_class(self):
        assert q_poly(3, 2) == SEGRE_3

    def test_determinant_hypersurface_degree(self):
        # codimension r^2, leading coefficient = degree of the locus
        for n in (2, 3, 4):
            for r in range(1, n):
                q = q_poly(n, r)
                assert q.codim == r * r
                assert q.dim == stratum_dim(n, r)
        assert q_poly(3, 1).variety_degree == 3  # the cubic determinant

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            q_poly(3, 4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_schubert_oracle(self, n):
        for r in range(n + 1):
            assert q_poly(n, r) == q_poly_schubert(n, r)

    @pytest.mark.parametrize(
        "euler_factor, message",
        [(2, "is not an integer"), (-1, "failed to cancel")],
    )
    def test_wrong_localization_is_caught(self, monkeypatch, euler_factor, message):
        # a wrong tangent Euler class makes M[0][0] = C(3,1)/2 or -C(3,1)
        monkeypatch.setattr(detvar, "prod", lambda xs: euler_factor * prod(xs))
        q_poly.cache_clear()
        with pytest.raises(ArithmeticError, match=message):
            q_poly(3, 1)


def porteous_degree(n: int, r: int) -> int:
    """Degree of the corank-r locus of n x n matrices (Giambelli-Thom-Porteous)."""
    num = prod(factorial(i) * factorial(n + i) for i in range(r))
    den = prod(factorial(r + i) * factorial(n - r + i) for i in range(r))
    return num // den


class TestLargeN:
    """Closed-form checks at sizes the Schubert oracle is too slow for."""

    @pytest.mark.parametrize("n", [8, 9])
    def test_codimension_and_degree(self, n):
        for r in range(1, n):
            q = q_poly(n, r)
            assert q.codim == r * r
            assert q.variety_degree == porteous_degree(n, r)
        assert q_poly(n, n).is_zero()

    def test_porteous_small_cases(self):
        assert porteous_degree(3, 1) == 3  # the determinant cubic
        assert porteous_degree(3, 2) == 6  # Segre P^2 x P^2 in P^8
        assert porteous_degree(4, 2) == 20

    @pytest.mark.parametrize("n", [8, 9])
    def test_open_strata_euler_characteristics(self, n):
        for k in range(n - 1):
            assert csm_stratum(n, k).euler_char == 0
        assert csm_stratum(n, n - 1).euler_char == n * n

    @pytest.mark.parametrize("n", [8, 9])
    def test_duality(self, n):
        for r in range(1, n):
            assert duality_check(n, r)

    def test_cli_n8_binomial_table(self, capsys):
        assert cli_main(["detvar", "--n", "8"]) == 0
        outs = json.loads(capsys.readouterr().out)["outputs"]
        assert outs["euler_table_primal"] == [
            [comb(r, k) for r in range(8)] for k in range(8)
        ]
        assert outs["origin_column"] == [comb(8, k) for k in range(8)]


class TestCsmStratum:
    def test_n2_closed_smooth_stratum(self):
        assert csm_stratum(2, 1) == q_poly(2, 1)

    def test_n2_open_stratum(self):
        assert csm_stratum(2, 0) == q_poly(2, 0) - q_poly(2, 1)
        assert csm_stratum(2, 0) == ClassPoly([1, 2, 2, 0], 4)

    def test_sum_telescopes_to_ambient_class(self):
        for n in (2, 3, 4):
            total = ClassPoly.zero(n * n)
            for k in range(n):
                total = total + csm_stratum(n, k)
            assert total == q_poly(n, 0)

    def test_euler_characteristics(self):
        # only the rank-one stratum has torus-fixed points, so all other
        # open strata have Euler characteristic zero
        for n in (2, 3, 4):
            for k in range(n - 1):
                assert csm_stratum(n, k).euler_char == 0
            assert csm_stratum(n, n - 1).euler_char == n * n

    def test_binomial_inversion_recovers_q(self):
        for n in (2, 3, 4):
            for r in range(n):
                acc = ClassPoly.zero(n * n)
                for k in range(r, n):
                    acc = acc + comb(k, r) * csm_stratum(n, k)
                assert acc == q_poly(n, r)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            csm_stratum(3, 3)


class TestDuality:
    def test_holds_for_all_small_sizes(self):
        for n in (2, 3, 4):
            for r in range(1, n):
                assert duality_check(n, r)

    def test_pairs_are_mutual(self):
        lhs = involute(q_poly(3, 1).signed(), 8)
        assert lhs == q_poly(3, 2).signed()
        back = involute(q_poly(3, 2).signed(), 8)
        assert back == q_poly(3, 1).signed()

    def test_corrupted_coefficient_fails(self):
        q = q_poly(3, 1)
        bad = q + ClassPoly.monomial(5, 9)
        lhs = involute(bad.signed(), 8)
        assert lhs != q_poly(3, 2).signed()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            duality_check(3, 0)


class TestEulerTables:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_binomial_table(self, n):
        table = eu_table_det(n)
        for k in range(n):
            for r in range(n):
                want = comb(r, k) if r >= k else 0
                assert table.primal[k][r] == want

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_origin_column(self, n):
        table = eu_table_det(n)
        assert table.origin == tuple(comb(n, k) for k in range(n))

    def test_diagonal(self):
        table = eu_table_det(3)
        for k in range(3):
            assert table.primal[k][k] == 1

    def test_dual_side_matches(self):
        table = eu_table_det(3)
        assert table.dual == table.primal

    def test_pair_shape(self):
        pair = build_pair(3)
        assert pair.ambient == 9
        assert [s.effective_dim for s in pair.primal] == [8, 7, 4]
        assert pair.pairing == ((1, 2), (2, 1))
        # solving through the generic front end agrees
        assert euler_table(pair).primal == eu_table_det(3).primal

    def test_build_pair_guard(self):
        with pytest.raises(ValueError):
            build_pair(1)


class TestChernMatherDet:
    def test_smooth_quadric(self):
        assert chern_mather_det(2, 1) == ClassPoly([0, 2, 4, 4], 4)

    def test_ambient_space(self):
        for n in (2, 3):
            assert chern_mather_det(n, 0) == chern_B(n * n - 1, n * n)

    def test_solver_path_agrees(self):
        # the function itself checks the solver route internally
        assert chern_mather_det(3, 1) == q_poly(3, 1)
        assert chern_mather_det(3, 2) == SEGRE_3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            chern_mather_det(3, 3)


def _corrupt_euler_table(monkeypatch, row, col):
    """Make detvar's solver return a table with one entry off by one."""

    def corrupted(pair):
        table = euler_table(pair)
        primal = [list(r) for r in table.primal]
        primal[row][col] += 1
        return dataclasses.replace(table, primal=tuple(map(tuple, primal)))

    monkeypatch.setattr(detvar, "euler_table", corrupted)


class TestRuntimeChecks:
    """The table and class checks raise ArithmeticError, which python -O keeps."""

    def test_eu_table_det_rejects_wrong_table(self, monkeypatch):
        _corrupt_euler_table(monkeypatch, 0, 1)
        with pytest.raises(ArithmeticError, match="entry"):
            eu_table_det(3)

    def test_chern_mather_det_rejects_wrong_class(self, monkeypatch):
        _corrupt_euler_table(monkeypatch, 1, 2)
        with pytest.raises(ArithmeticError, match="disagrees"):
            chern_mather_det(3, 1)
