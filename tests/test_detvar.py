import json
import os
import re
import subprocess
import sys
from functools import lru_cache
from itertools import combinations
from math import comb, factorial, prod
from pathlib import Path

import pytest

from chernmather import detvar, strata
from chernmather.classpoly import ClassPoly, chern_B, involute
from chernmather.cli import main as cli_main
from chernmather.detvar import (
    duality_check,
    eu_table_det,
    q_poly,
    stratum_dim,
)
from chernmather.strata import StratifiedPair, euler_table

from oracles import chern_numbers_all_points, q_poly_schubert

# Pushforward class of the rank-one locus for n = 3: the Segre embedding of
# P^2 x P^2 in P^8, computed independently from c(T(P^2 x P^2)) and the
# degrees of the sub-product classes: coefficient of H^(4+a+b) is
# sum C(3,a) C(3,b) C(4-a-b, 2-a).
SEGRE_3 = ClassPoly([0, 0, 0, 0, 6, 18, 24, 18, 9], 9)


# The package keeps no caches, so tests that reuse a family build it once here;
# tests that patch the package call it directly instead.
@lru_cache(maxsize=None)
def family(n: int):
    """eu_table_det(n): the q polynomials, the stratified pair and the table."""
    return eu_table_det(n)


def q_list(n: int) -> list[ClassPoly]:
    """q_{n,0..n-1}, from the memoized family."""
    return family(n)[0]


def open_class(n: int, k: int) -> ClassPoly:
    """Class polynomial of the open stratum tau_{n,k}, from the memoized family."""
    return family(n)[1].primal[k].csm


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
        assert q_poly(3, 1).coeffs[1] == 3  # the cubic determinant

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            q_poly(3, 4)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_schubert_oracle(self, n):
        for r in range(n + 1):
            numbers, q = q_poly_schubert(n, r)
            assert detvar._chern_numbers(n, r) == numbers
            assert q_poly(n, r) == q

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_all_points_oracle(self, n):
        # the half orbit under t_k = 2k - (n-1) against every fixed point under t_k = k
        for r in range(n + 1):
            assert detvar._chern_numbers(n, r) == chern_numbers_all_points(n, r)

    def test_one_euler_class_per_mirror_pair(self, monkeypatch):
        # G(2,4): pairs {01,23} and {02,13}, and the self-mirror 03 and 12
        calls = []
        monkeypatch.setattr(detvar, "prod", lambda xs: calls.append(xs) or prod(xs))
        detvar._chern_numbers(4, 2)
        assert len(calls) == 4

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_power_matches_repeated_product(self, n):
        # prod (1 - u t)^n at every fixed point, as the product of n copies
        # of each linear factor
        for r in range(n + 1):
            top = r * (n - r)
            for sub in combinations(range(n), r):
                for weights in (sub, [j for j in range(n) if j not in sub]):
                    roots = [-t for t in weights]
                    base = detvar._linear_product(roots, len(roots))
                    repeated = detvar._linear_product(roots * n, top)
                    assert detvar._power(base, n, top) == repeated

    @pytest.mark.parametrize(
        "euler_factor, message",
        [(2, "is not an integer"), (-1, "failed to cancel")],
    )
    def test_wrong_localization_is_caught(self, monkeypatch, euler_factor, message):
        # a wrong tangent Euler class makes M[0][0] = C(3,1)/2 or -C(3,1)
        monkeypatch.setattr(detvar, "prod", lambda xs: euler_factor * prod(xs))
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
        for r, q in enumerate(q_list(n)[1:], 1):
            assert q.codim == r * r
            assert q.coeffs[q.codim] == porteous_degree(n, r)
        assert q_poly(n, n).is_zero()

    def test_porteous_small_cases(self):
        assert porteous_degree(3, 1) == 3  # the determinant cubic
        assert porteous_degree(3, 2) == 6  # Segre P^2 x P^2 in P^8
        assert porteous_degree(4, 2) == 20

    @pytest.mark.parametrize("n", [8, 9])
    def test_open_strata_euler_characteristics(self, n):
        for k in range(n - 1):
            assert open_class(n, k).coeffs[-1] == 0
        assert open_class(n, n - 1).coeffs[-1] == n * n

    @pytest.mark.parametrize("n", [8, 9])
    def test_duality(self, n):
        for r in range(1, n):
            assert duality_check(q_list(n), r)

    def test_cli_n8_binomial_table(self, capsys):
        assert cli_main(["detvar", "--n", "8"]) == 0
        outs = json.loads(capsys.readouterr().out)["outputs"]
        assert outs["euler_table_primal"] == [
            [comb(r, k) for r in range(8)] for k in range(8)
        ]
        assert outs["origin_column"] == [comb(8, k) for k in range(8)]


class TestCsmStratum:
    """The open-stratum classes that eu_table_det puts into its pair."""

    def test_n2_closed_smooth_stratum(self):
        assert open_class(2, 1) == q_poly(2, 1)

    def test_n2_open_stratum(self):
        assert open_class(2, 0) == q_poly(2, 0) - q_poly(2, 1)
        assert open_class(2, 0) == ClassPoly([1, 2, 2, 0], 4)

    def test_sum_telescopes_to_ambient_class(self):
        for n in (2, 3, 4):
            total = ClassPoly.zero(n * n)
            for k in range(n):
                total = total + open_class(n, k)
            assert total == q_list(n)[0]

    def test_euler_characteristics(self):
        # only the rank-one stratum has torus-fixed points, so all other
        # open strata have Euler characteristic zero
        for n in (2, 3, 4):
            for k in range(n - 1):
                assert open_class(n, k).coeffs[-1] == 0
            assert open_class(n, n - 1).coeffs[-1] == n * n

    def test_binomial_inversion_recovers_q(self):
        for n in (2, 3, 4):
            for r in range(n):
                acc = ClassPoly.zero(n * n)
                for k in range(r, n):
                    acc = acc + comb(k, r) * open_class(n, k)
                assert acc == q_poly(n, r)

    def test_out_of_range(self):
        # one open stratum tau_{3,k} for each k < 3 on each side
        _, pair, _ = family(3)
        assert [s.name for s in pair.primal] == ["tau_3_0", "tau_3_1", "tau_3_2"]
        assert [s.name for s in pair.dual] == ["tau_3_0_dual", "tau_3_1_dual", "tau_3_2_dual"]


class TestDuality:
    def test_holds_for_all_small_sizes(self):
        for n in (2, 3, 4):
            for r in range(1, n):
                assert duality_check(q_list(n), r)

    def test_pairs_are_mutual(self):
        lhs = involute(q_poly(3, 1).signed(), 8)
        assert lhs == q_poly(3, 2).signed()
        back = involute(q_poly(3, 2).signed(), 8)
        assert back == q_poly(3, 1).signed()

    @pytest.mark.parametrize("n", range(2, 11))
    def test_derived_half_matches_localization(self, n):
        # eu_table_det localizes r <= n/2 and transforms the rest
        assert q_list(n) == [q_poly(n, r) for r in range(n)]

    def test_corrupted_coefficient_fails(self):
        q = q_poly(3, 1)
        bad = q + ClassPoly.monomial(5, 9)
        lhs = involute(bad.signed(), 8)
        assert lhs != q_poly(3, 2).signed()
        assert not duality_check([q_poly(3, 0), bad, q_poly(3, 2)], 1)

    def test_out_of_range(self):
        for r in (0, 3):
            with pytest.raises(ValueError, match=f"rank parameter {r} out of range for n=3"):
                duality_check(q_list(3), r)


class TestEulerTables:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_binomial_table(self, n):
        _, _, table = family(n)
        for k in range(n):
            for r in range(n):
                want = comb(r, k) if r >= k else 0
                assert table.primal[k][r] == want

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_origin_column(self, n):
        _, _, table = family(n)
        assert table.origin == tuple(comb(n, k) for k in range(n))

    def test_diagonal(self):
        _, _, table = family(3)
        for k in range(3):
            assert table.primal[k][k] == 1

    def test_dual_side_matches(self):
        _, _, table = family(3)
        assert table.dual == table.primal

    def test_pair_shape(self):
        q, pair, table = family(3)
        assert len(q) == 3
        assert pair.ambient == 9
        assert [s.dim for s in pair.primal] == [8, 7, 4]
        assert pair.pairing == ((1, 2), (2, 1))
        # solving through the generic front end agrees
        assert euler_table(pair) == table

    def test_n1_guard(self):
        with pytest.raises(ValueError, match="need n >= 2"):
            eu_table_det(1)

    def test_involute_once_per_primal_stratum(self, monkeypatch, capsys):
        # every paired system shares the transforms of the primal classes
        calls = []
        monkeypatch.setattr(strata, "involute", lambda f, d: calls.append(d) or involute(f, d))
        assert cli_main(["detvar", "--n", "5"]) == 0
        capsys.readouterr()
        assert len(calls) == 5

    def test_one_pair_and_one_integral_per_q(self, monkeypatch, capsys):
        # detvar builds its family once: one stratified pair, and one
        # Grassmannian integral for each of q_{4,0..2}; q_{4,3} is the
        # duality transform of q_{4,1}
        pairs, integrals = [], []
        monkeypatch.setattr(
            detvar, "StratifiedPair", lambda *a: pairs.append(a) or StratifiedPair(*a)
        )
        chern_numbers = detvar._chern_numbers
        monkeypatch.setattr(
            detvar, "_chern_numbers", lambda n, r: integrals.append(r) or chern_numbers(n, r)
        )
        assert cli_main(["detvar", "--n", "4"]) == 0
        capsys.readouterr()
        assert len(pairs) == 1
        assert integrals == [0, 1, 2]


class TestChernMatherDet:
    """The solver's Chern-Mather classes of the rank strata closures."""

    def test_smooth_quadric(self):
        assert family(2)[2].chern_mather_primal[1] == ClassPoly([0, 2, 4, 4], 4)

    def test_ambient_space(self):
        for n in (2, 3):
            assert family(n)[2].chern_mather_primal[0] == chern_B(n * n - 1, n * n)

    def test_solver_path_agrees(self):
        # eu_table_det itself checks each class against q_poly
        _, _, table = family(3)
        assert table.chern_mather_primal[1] == q_poly(3, 1)
        assert table.chern_mather_primal[2] == SEGRE_3

    def test_out_of_range(self):
        # one class per stratum tau_{3,0..2} on each side; tau_{3,3} is empty
        _, _, table = family(3)
        assert len(table.chern_mather_primal) == len(table.chern_mather_dual) == 3


def _corrupt_euler_table(monkeypatch, field, k, change):
    """Make detvar's solver return a table whose entry k of `field` is changed."""

    def corrupted(pair):
        table = euler_table(pair)
        entries = list(getattr(table, field))
        entries[k] = change(entries[k])
        return table._replace(**{field: tuple(entries)})

    monkeypatch.setattr(detvar, "euler_table", corrupted)


def _bump(row):
    """A table row with its last entry off by one."""
    return (*row[:-1], row[-1] + 1)


class TestRuntimeChecks:
    """The table and class checks raise ArithmeticError, which python -O keeps."""

    def test_eu_table_det_rejects_wrong_table(self, monkeypatch):
        _corrupt_euler_table(monkeypatch, "primal", 0, _bump)
        with pytest.raises(ArithmeticError, match="entry"):
            eu_table_det(3)

    def test_chern_mather_det_rejects_wrong_class(self, monkeypatch):
        _corrupt_euler_table(
            monkeypatch, "chern_mather_primal", 1, lambda cm: cm + ClassPoly.monomial(8, 9)
        )
        with pytest.raises(ArithmeticError, match="disagrees with q_\\(3,1\\)"):
            eu_table_det(3)

    @pytest.mark.parametrize(
        "field, change",
        [("dual", _bump), ("chern_mather_dual", lambda cm: cm + ClassPoly.monomial(8, 9))],
        ids=["table", "class"],
    )
    def test_corrupted_dual_half_exits_3(self, monkeypatch, capsys, field, change):
        _corrupt_euler_table(monkeypatch, field, 1, change)
        with pytest.raises(ArithmeticError, match="dual half"):
            eu_table_det(3)
        assert cli_main(["detvar", "--n", "3"]) == 3
        err = capsys.readouterr().err
        assert err == "error: the dual half of the table differs from the primal half\n"

    @pytest.mark.parametrize(
        "power, message",
        [
            (9, r"derived q_\(5,3\) does not have degree 175 in codimension 9"),
            (24, r"derived q_\(5,3\) has top coefficient 99, expected 100"),
        ],
        ids=["degree", "euler"],
    )
    def test_wrong_derived_class_exits_3(self, monkeypatch, capsys, power, message):
        # q_{5,3} is the first class eu_table_det derives by the transform
        monkeypatch.setattr(
            detvar, "involute", lambda f, d: involute(f, d) + ClassPoly.monomial(power, d + 1)
        )
        with pytest.raises(ArithmeticError, match=message):
            eu_table_det(5)
        assert cli_main(["detvar", "--n", "5"]) == 3
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)

    def test_checks_survive_python_O(self):
        # a corrupted origin column still exits 3 when asserts are stripped
        script = (
            "import sys\n"
            "from chernmather import cli, detvar\n"
            "solve = detvar.euler_table\n"
            "detvar.euler_table = lambda pair: solve(pair)._replace(origin=(0, 3, 3))\n"
            "sys.exit(cli.main(['detvar', '--n', '3']) if sys.flags.optimize else 99)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(detvar.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 3, proc.stderr
        assert "origin entry 0 is 0, expected 1" in proc.stderr
