import ast
import json
import os
import random
import re
import subprocess
import sys
from functools import lru_cache
from itertools import combinations, product
from math import comb, prod
from pathlib import Path

import pytest

from chernmather import detvar, strata
from chernmather.classpoly import ClassPoly, chern_B, involute, involute_all
from chernmather.cli import main as cli_main
from chernmather.detvar import (
    eu_table_det,
    q_poly,
)
from chernmather.linsolve import LinearSystemError
from chernmather.strata import StratifiedPair, euler_table

from oracles import (
    chern_numbers_all_points,
    expand_binomial,
    linear_product,
    q_poly_schubert,
    signed,
)

# Pushforward class of the rank-one locus for n = 3: the Segre embedding of
# P^2 x P^2 in P^8, computed independently from c(T(P^2 x P^2)) and the
# degrees of the sub-product classes: coefficient of H^(4+a+b) is
# sum C(3,a) C(3,b) C(4-a-b, 2-a).
SEGRE_3 = ClassPoly([0, 0, 0, 0, 6, 18, 24, 18, 9], 9)


def segre_q(n: int) -> ClassPoly:
    """q_(n,n-1), the class of the smooth Segre P^(n-1) x P^(n-1) in
    P^(n^2-1), in closed form: the coefficient of H^(n^2-1-j) is the integral
    of c_(2n-2-j)(T) (h1+h2)^j with c(T) = (1+h1)^n (1+h2)^n, and only
    h1^(n-1) h2^(n-1) integrates to 1."""
    coeffs = [0] * (n * n)
    for j in range(2 * n - 1):
        # h1^a h2^(2n-2-j-a) from c(T), times h1^(n-1-a) h2^(j-n+1+a)
        coeffs[n * n - 1 - j] = sum(
            comb(n, a) * comb(n, 2 * n - 2 - j - a) * comb(j, n - 1 - a)
            for a in range(min(n - 1, 2 * n - 2 - j) + 1)
        )
    return ClassPoly(coeffs, n * n)


# The package keeps no caches, so tests that reuse a family build it once here;
# tests that patch the package call it directly instead.
@lru_cache(maxsize=None)
def family(n: int):
    """eu_table_det(n): the q polynomials, the stratified pair and the table."""
    return eu_table_det(n)


def q_list(n: int) -> list[ClassPoly]:
    """q_{n,0..n-1}, from the memoized family."""
    return family(n)[0]


def is_dual(q: list[ClassPoly], r: int) -> bool:
    """Whether the transform carries the signed q_{n,r} to the signed
    q_{n,n-r}, given q = [q_{n,0..n-1}]."""
    n = len(q)
    return involute(signed(q[r]), n * n - 1) == signed(q[n - r])


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
        assert q_poly(3, 2) == SEGRE_3 == segre_q(3)

    @pytest.mark.parametrize("n", range(3, 15))
    def test_transposed_rank_one_route_matches_segre(self, n):
        # q_(n,n-1) from the signed transpose of the Chern numbers of G(1, n),
        # at sizes the all-points oracle does not reach
        assert q_poly(n, n - 1) == segre_q(n)

    def test_localizes_only_up_to_half(self, monkeypatch):
        # q_(5,3) comes from the Chern numbers of G(2, 5), and so do
        # q_(5,2) and q_(5,3) in the family
        integrals = []
        chern_numbers = detvar._chern_numbers
        monkeypatch.setattr(
            detvar, "_chern_numbers", lambda n, r: integrals.append(r) or chern_numbers(n, r)
        )
        q_poly(5, 3)
        eu_table_det(5)
        assert integrals == [2, 0, 1, 2]

    def test_determinant_hypersurface_degree(self):
        # codimension r^2, leading coefficient = degree of the locus
        for n in (2, 3, 4):
            for r in range(1, n):
                q = q_poly(n, r)
                assert q.codim == r * r
        assert q_poly(3, 1).coeffs[1] == 3  # the cubic determinant

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            q_poly(3, 4)
        with pytest.raises(ValueError, match="n=0"):
            q_poly(0, 0)

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

    @pytest.mark.parametrize(
        "n, r, orbits", [(4, 2, 3), (6, 3, 7), (8, 4, 23), (6, 2, 9)]
    )
    def test_one_euler_class_per_orbit(self, monkeypatch, n, r, orbits):
        # G(2,4): the orbits {01,23}, {02,13} and {03,12} of the mirror and
        # the complement; G(2,6) has no complement, so 9 mirror orbits of 15
        calls = []
        monkeypatch.setattr(detvar, "prod", lambda xs: calls.append(xs) or prod(xs))
        detvar._chern_numbers(n, r)
        assert len(calls) == orbits

    @pytest.mark.parametrize("n", range(1, 9))
    def test_packed_tangent_class_matches_linear_product(self, n):
        # c(T) = prod (1 + u(t_j - t_i)) and the bases prod (1 - u t) of
        # c(S^v)^n and c(Q^v)^n at every fixed point of every G(r, n), each
        # product of all the points in one call at the common width of (n, r)
        t = [2 * k - (n - 1) for k in range(n)]
        for r in range(n + 1):
            subs = list(combinations(range(n), r))
            quots = [[j for j in range(n) if j not in sub] for sub in subs]
            products = (
                [[t[j] - t[i] for i in sub for j in quot] for sub, quot in zip(subs, quots)],
                [[-t[i] for i in sub] for sub in subs],
                [[-t[j] for j in quot] for quot in quots],
            )
            for rows in products:
                columns = detvar._product_columns(rows, n, r * (n - r))
                assert [list(point) for point in zip(*columns)] == list(map(linear_product, rows))

    def test_packed_tangent_class_at_widest_point(self):
        # I = {0..6} on G(7, 14): all 49 weights t_j - t_i = 2(j - i) are
        # positive and their sum is largest, so c(T) has the widest
        # coefficients, 183 bits, here in the common digits of G(7, 14):
        # bits(27^49) + 1 = 234 bits, rounded up to 240
        n = 14
        tangent = [2 * (j - i) for i in range(7) for j in range(7, n)]
        packed = [column[0] for column in detvar._product_columns([tangent], n, 49)]
        assert packed == linear_product(tangent)
        assert max(packed).bit_length() == 183

    @pytest.mark.parametrize("n", range(1, 11))
    def test_horner_expansion_matches_binomial_rows(self, n):
        # M and its signed transpose, as eu_table_det expands them
        for r in range(n + 1):
            num = detvar._chern_numbers(n, r)
            assert detvar._expand(num, n, r) == expand_binomial(num, n, r)
            signed = [
                [(-1) ** (a + b) * num[b][a] for b in range(len(row))]
                for a, row in enumerate(num)
            ]
            assert detvar._expand(signed, n, n - r) == expand_binomial(signed, n, n - r)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_power_matches_repeated_product(self, n):
        # prod (1 - u t)^n at every fixed point, as the product of n copies
        # of each linear factor; the points of each base in one call
        for r in range(n + 1):
            top = r * (n - r)
            subs = list(combinations(range(n), r))
            quots = [[j for j in range(n) if j not in sub] for sub in subs]
            for weights in (subs, quots):
                roots = [[-t for t in point] for point in weights]
                base = [list(column) for column in zip(*map(linear_product, roots))]
                power = detvar._power_columns(base, n, top)
                repeated = [linear_product(point * n, top) for point in roots]
                assert [list(point) for point in zip(*power)] == repeated

    @pytest.mark.parametrize("n, r", [(14, 0), (14, 7)])
    def test_packed_expansion_of_wide_numbers(self, n, r):
        # M with entries of about 4,000 bits and both signs, and its signed
        # transpose: the digits of the packed Horner pass must hold them
        # times the binomials of (1+d)^(n(n-r))
        rng = random.Random(r)
        top = r * (n - r)
        num = [
            [rng.choice((-1, 1)) * rng.getrandbits(4000) for _ in range(top + 1 - a)]
            for a in range(top + 1)
        ]
        if r == 0:
            # M is one entry, and _expand is linear in it; at rank n its
            # signed transpose expands to d^(n^2), which is 0
            [[x]] = num
            assert x.bit_length() > 3990
            assert detvar._expand(num, n, 0) == x * expand_binomial([[1]], n, 0)
            assert detvar._expand(num, n, n).is_zero()
            return
        # the oracle checks M[0][0] = C(n, r), the d^(n^2) coefficient
        num[0][0] = comb(n, r)
        assert sum(m.bit_length() > 3990 for row in num for m in row) > 1000
        assert {m > 0 for row in num for m in row} == {True, False}
        signed = detvar._signed_transpose(num)
        assert detvar._expand(num, n, r) == expand_binomial(num, n, r)
        assert detvar._expand(signed, n, n - r) == expand_binomial(signed, n, n - r)

    @pytest.mark.parametrize(
        "euler_factor, message",
        [(2, "is not an integer"), (-1, "Whitney sum identity in degree 0")],
    )
    def test_wrong_localization_is_caught(self, monkeypatch, euler_factor, message):
        # a wrong tangent Euler class makes M[0][0] = C(3,1)/2 or -C(3,1),
        # and the antidiagonal sum at 0 must be C(3,1)
        monkeypatch.setattr(detvar, "prod", lambda xs: euler_factor * prod(xs))
        with pytest.raises(ArithmeticError, match=message):
            q_poly(3, 1)


def porteous_degree(n: int, r: int) -> int:
    """Degree of the corank-r locus of n x n matrices.  By Giambelli-Thom-
    Porteous (Fulton, Intersection Theory, Thm 14.4) it is det[h_(r+j-i)] of
    h = c(O^n - O(-1)^n) = (1-H)^(-n), the Schur polynomial of the r x r
    square at n ones, which the hook-content formula evaluates."""
    cells = [(i, j) for i in range(r) for j in range(r)]
    return prod(n + j - i for i, j in cells) // prod(2 * r - 1 - i - j for i, j in cells)


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

    def test_porteous_degree_matches_hook_content(self):
        # the closed product behind every run's check, at every size the CLI takes
        for n in range(1, 15):
            for r in range(n):
                assert detvar._porteous_degree(n, r) == porteous_degree(n, r), (n, r)

    @pytest.mark.parametrize("n", [8, 9])
    def test_open_strata_euler_characteristics(self, n):
        for k in range(n - 1):
            assert open_class(n, k).coeffs[-1] == 0
        assert open_class(n, n - 1).coeffs[-1] == n * n

    @pytest.mark.parametrize("n", [8, 9])
    def test_duality(self, n):
        for r in range(1, n):
            assert is_dual(q_list(n), r)

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
                assert is_dual(q_list(n), r)

    def test_pairs_are_mutual(self):
        lhs = involute(signed(q_poly(3, 1)), 8)
        assert lhs == signed(q_poly(3, 2))
        back = involute(signed(q_poly(3, 2)), 8)
        assert back == signed(q_poly(3, 1))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_derived_half_matches_localization(self, n):
        # eu_table_det localizes r <= n/2 and transposes the rest; the oracle
        # localizes every r at all its fixed points
        assert q_list(n) == [
            expand_binomial(chern_numbers_all_points(n, r), n, r) for r in range(n)
        ]

    def test_signed_transpose_on_all_points_oracle(self):
        # V -> V^v maps G(r, n) to G(n-r, n) and swaps S with Q^v, so
        # M_(n,n-r)[a][b] = (-1)^(a+b) M_(n,r)[b][a]; checked on the oracle alone
        for n in range(9):
            for r in range(n + 1):
                m = chern_numbers_all_points(n, r)
                signed = [
                    [(-1) ** (a + b) * m[b][a] for b in range(len(row))]
                    for a, row in enumerate(m)
                ]
                assert chern_numbers_all_points(n, n - r) == signed, (n, r)

    def test_corrupted_coefficient_fails(self):
        q = q_poly(3, 1)
        bad = q + ClassPoly([0] * 5 + [1], 9)
        lhs = involute(signed(bad), 8)
        assert lhs != signed(q_poly(3, 2))
        assert not is_dual([q_poly(3, 0), bad, q_poly(3, 2)], 1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_transform_of_any_chern_numbers_is_their_transpose(self, n):
        # a formal identity: for any integers M with M[0][0] = C(n, r), r < n,
        # the transform carries the signed expansion of M to the signed
        # expansion of its signed transpose, so comparing q_{n,r} with
        # q_{n,n-r} by the transform detects no wrong Chern number
        rng = random.Random(n)
        for r in range(n):
            top = r * (n - r)
            sign, dual_sign = ((-1) ** ((n * n - k * k - 1) % 2) for k in (r, n - r))
            for _ in range(5):
                m = [[rng.randint(-99, 99) for _ in range(top + 1 - a)] for a in range(top + 1)]
                m[0][0] = comb(n, r)
                lhs = involute(sign * detvar._expand(m, n, r), n * n - 1)
                transposed = detvar._expand(detvar._signed_transpose(m), n, n - r)
                assert lhs == dual_sign * transposed, (n, r, m)


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
        # every paired system shares the transforms of the primal classes,
        # made in one batched call per euler_table
        calls = []
        def batched(fs, d):
            calls.append((len(fs), d))
            return involute_all(fs, d)

        monkeypatch.setattr(strata, "involute_all", batched)
        assert cli_main(["detvar", "--n", "5"]) == 0
        capsys.readouterr()
        assert calls == [(5, 24)]

    def test_one_pair_and_one_integral_per_q(self, monkeypatch, capsys):
        # detvar builds its family once: one stratified pair, and one
        # Grassmannian integral for each of q_{4,0..2}; q_{4,3} comes from
        # the signed transpose of the Chern numbers of q_{4,1}
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

    def test_no_transform_in_detvar(self):
        # the checked solve in strata makes every transform the family needs;
        # detvar neither imports nor calls one
        tree = ast.parse(Path(detvar.__file__).read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        assert not [name for name in names if name.startswith("involute")]


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
    """Make the solver behind `strata.checked_table` return a table whose
    entry k of `field` is changed."""

    def corrupted(pair):
        table = euler_table(pair)
        entries = list(getattr(table, field))
        entries[k] = change(entries[k])
        return table._replace(**{field: tuple(entries)})

    monkeypatch.setattr(strata, "euler_table", corrupted)


def _bump(row):
    """A table row with its last entry off by one."""
    return (*row[:-1], row[-1] + 1)


class TestRuntimeChecks:
    """The table and class checks raise ArithmeticError, which python -O keeps."""

    def test_eu_table_det_rejects_wrong_table(self, monkeypatch, capsys):
        _corrupt_euler_table(monkeypatch, "primal", 0, _bump)
        with pytest.raises(ArithmeticError, match=r"^solved primal\[0\] differs"):
            eu_table_det(3)
        assert cli_main(["detvar", "--n", "3"]) == 3
        err = capsys.readouterr().err
        assert err == "error: solved primal[0] differs from its closed form\n"

    def test_chern_mather_det_rejects_wrong_class(self, monkeypatch, capsys):
        _corrupt_euler_table(
            monkeypatch, "chern_mather_primal", 1, lambda cm: cm + ClassPoly([0] * 8 + [1])
        )
        with pytest.raises(ArithmeticError, match=r"^solved chern_mather_primal\[1\] differs"):
            eu_table_det(3)
        assert cli_main(["detvar", "--n", "3"]) == 3
        err = capsys.readouterr().err
        assert err == "error: solved chern_mather_primal[1] differs from its closed form\n"

    @pytest.mark.parametrize(
        "field, change",
        [("dual", _bump), ("chern_mather_dual", lambda cm: cm + ClassPoly([0] * 8 + [1]))],
        ids=["table", "class"],
    )
    def test_corrupted_dual_half_exits_3(self, monkeypatch, capsys, field, change):
        _corrupt_euler_table(monkeypatch, field, 1, change)
        with pytest.raises(ArithmeticError, match=rf"^solved {field}\[1\] differs"):
            eu_table_det(3)
        assert cli_main(["detvar", "--n", "3"]) == 3
        err = capsys.readouterr().err
        assert err == f"error: solved {field}[1] differs from its closed form\n"

    @pytest.mark.parametrize("check", ["degree", "euler"])
    @pytest.mark.parametrize(
        "n, r", [(5, 2), (4, 2), (5, 3)], ids=["q_5_2", "q_4_2", "q_5_3"]
    )
    def test_wrong_derived_class_exits_3(self, monkeypatch, capsys, n, r, check):
        # one class with 2r < n, 2r = n and 2r > n loses one unit in
        # codimension r^2 or in the top degree; the other classes are intact.
        # The Porteous check sees the first; the second comes after the
        # identity on M, and the checked solve of the pair (k, n-k) fails.
        if check == "degree":
            power, degree = r * r, porteous_degree(n, r)
            error = ArithmeticError
            message = rf"q_\({n},{r}\) does not have degree {degree} in codimension {power}"
        else:
            power, k = n * n - 1, min(r, n - r)
            error = LinearSystemError
            message = re.escape(
                "equations are mutually inconsistent (residual check failed) "
                f"[primal[{k}] 'tau_{n}_{k}' <-> dual[{n - k}] 'tau_{n}_{n - k}_dual']"
            )
        expand = detvar._expand

        def corrupted(num, n_, r_):
            q = expand(num, n_, r_)
            return q - ClassPoly([0] * power + [1], n * n) if r_ == r else q

        monkeypatch.setattr(detvar, "_expand", corrupted)
        with pytest.raises(error, match=message):
            eu_table_det(n)
        assert cli_main(["detvar", "--n", str(n)]) == 3
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)

    def test_wrong_chern_number_below_half_exits_3(self, monkeypatch, capsys):
        # M[2][0] of G(1, 3) one too large makes the antidiagonal sum at 2
        # equal 1.  Expanded, it would add d (1+d)^6 to q_(3,1), while the
        # transposed q_(3,2) would gain only d^6 + d^7 and pass the solve.
        chern_numbers = detvar._chern_numbers

        def corrupted(n, r):
            num = chern_numbers(n, r)
            if (n, r) == (3, 1):
                num[2][0] += 1
            return num

        monkeypatch.setattr(detvar, "_chern_numbers", corrupted)
        message = "Chern numbers of q_(3,1) fail the Whitney sum identity in degree 2"
        with pytest.raises(ArithmeticError, match=re.escape(message)):
            eu_table_det(3)
        assert cli_main(["detvar", "--n", "3"]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_every_single_wrong_chern_number_breaks_the_identity(self):
        # +1 or -2 at any one M[a][b] moves the antidiagonal sum at a + b,
        # on the direct route (r) and on the transposed one (n - r)
        for n in range(3, 8):
            for r in range(n // 2 + 1):
                num = detvar._chern_numbers(n, r)
                cells = [(a, b) for a, row in enumerate(num) for b in range(len(row))]
                for (a, b), delta, rank in product(cells, (1, -2), {r, n - r}):
                    num[a][b] += delta
                    message = (
                        f"Chern numbers of q_({n},{rank}) fail the "
                        f"Whitney sum identity in degree {a + b}"
                    )
                    with pytest.raises(ArithmeticError, match=re.escape(message)):
                        detvar._checked_q(num, n, rank)
                    num[a][b] -= delta

    def test_failed_duality_exits_3(self, monkeypatch, capsys):
        # a transform that disagrees with the classes, though every class
        # passes its own checks: the solve of the first pair fails
        monkeypatch.setattr(
            strata,
            "involute_all",
            lambda fs, d: [g + ClassPoly([0] * d + [1]) for g in involute_all(fs, d)],
        )
        message = (
            "equations are mutually inconsistent (residual check failed) "
            "[primal[1] 'tau_5_1' <-> dual[4] 'tau_5_4_dual']"
        )
        with pytest.raises(LinearSystemError, match=re.escape(message)):
            eu_table_det(5)
        assert cli_main(["detvar", "--n", "5"]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_checks_survive_python_O(self):
        # a corrupted origin column still exits 3 when asserts are stripped
        script = (
            "import sys\n"
            "from chernmather import cli, strata\n"
            "solve = strata.euler_table\n"
            "strata.euler_table = lambda pair: solve(pair)._replace(origin=(0, 3, 3))\n"
            "sys.exit(cli.main(['detvar', '--n', '3']) if sys.flags.optimize else 99)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(detvar.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == "error: solved origin[0] differs from its closed form\n"
