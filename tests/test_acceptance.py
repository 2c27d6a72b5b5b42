"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Arithmetic is exact throughout, so every comparison below is on-the-nose
integer equality; the only tolerances are the per-criterion runtime budgets.
Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import json
import random
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

import pytest

from chernmather.classpoly import ClassPoly, csm_linear_space, involute
from chernmather.cli import main as cli_main
from chernmather.detvar import eu_table_det, q_poly
from chernmather.grassmann import ChowElement, integrate, lr_multiply
from chernmather.quadric import QuadricSpec, build_pair, cross_validate, milnor_class
from chernmather.strata import StratifiedPair, euler_table

from oracles import (
    box_complement,
    chern_mather_quadric,
    chern_tensor,
    milnor_class_binomial,
    partitions_in_box,
    quadric_pair_binomial,
    schur_product_in_box,
    signed,
    taut_quot,
    taut_sub_dual,
)

FIXTURE = Path(__file__).parent / "data" / "symmetric_3x3.json"


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")


def test_criterion_1_involution_properties():
    with criterion(1, "involution and linearity, 200 random polynomials per degree", 1.0):
        rng = random.Random(561)
        for d in range(1, 13):
            for _ in range(200):
                f = ClassPoly([0] + [rng.randint(-50, 50) for _ in range(d)], d + 1)
                g = ClassPoly([0] + [rng.randint(-50, 50) for _ in range(d)], d + 1)
                assert involute(involute(f, d), d) == f
                a, b = rng.randint(-9, 9), rng.randint(-9, 9)
                assert involute(a * f + b * g, d) == a * involute(f, d) + b * involute(g, d)


def test_criterion_2_worked_example(capsys):
    with criterion(2, "worked symmetric 3x3 example: x = 0, origin obstruction 1", 1.0):
        pair = StratifiedPair.from_dict(json.loads(FIXTURE.read_text()))
        table = euler_table(pair)  # corank 1 pairs with dual stratum 2
        assert table.primal[1][1:] == (1, 0)
        assert table.dual[2][2:] == (1,)
        assert table.origin[1] == 1
        # and through the command-line path
        code = cli_main(["solve", str(FIXTURE)])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["euler_table_primal"][1] == [0, 1, 0]
        assert report["outputs"]["origin_column"][1] == 1


def test_criterion_3_sign_identity():
    with criterion(3, "transform of H*B_n has sign (-1)^(n+1), n = 1..12", 1.0):
        for n in range(1, 13):
            # H * B_n = H * ((1+H)^(n+1) - H^(n+1)) mod H^(n+2)
            hb = ClassPoly([0] + [comb(n + 1, k) for k in range(n + 1)])
            want = hb if (n + 1) % 2 == 0 else -hb
            assert involute(hb, n) == want


def test_criterion_4_quadric_suite(capsys):
    with criterion(4, "quadric suite: Milnor routes, solver path, dual exchange", 5.0):
        for n in range(2, 11):
            # the smooth quadric in P^n from binomials, not from the package
            smooth = ClassPoly(quadric_pair_binomial(n, n + 1)[1][0][1])
            for r in range(3, n + 2):
                spec = QuadricSpec(n, r)
                pair = build_pair(spec)
                x = sum((s.csm for s in pair.primal[1:]), pair.primal[0].csm)
                # (a) the division route agrees with the double-binomial
                # oracle and closes the defining identity
                mc = milnor_class(spec)
                lhs = smooth - x
                if (n - 1) % 2 == 1:
                    lhs = -lhs
                assert lhs == mc
                # (c) the transform exchanges the signed Chern-Mather classes,
                # the primal one read off the solved table
                cm = euler_table(pair).chern_mather_primal[0]
                assert cm == chern_mather_quadric(spec)
                assert involute(signed(cm), n) == signed(pair.dual[0].csm)
                # (d) the report gives the classes above and its scalars
                assert cli_main(["quadric", "--n", str(n), "--rank", str(r)]) == 0
                outs = json.loads(capsys.readouterr().out)["outputs"]
                assert outs["chern_mather"] == list(cm.coeffs)
                assert (outs["eu_generic"], outs["complex_link_chi"]) == (1, -2)
                if spec.is_smooth:
                    assert mc.is_zero()
                    assert outs["eu_singular"] is outs["milnor_number"] is None
                    continue
                assert mc == milnor_class_binomial(n, r)
                s_dual = csm_linear_space(r - 1, n + 1)  # a linear P^(r-1)
                assert involute(signed(pair.primal[1].csm), n) == signed(s_dual)
                assert outs["dual_singular_cm"] == list(s_dual.coeffs)
                # (b) solver path reproduces the closed forms
                table = cross_validate(spec, pair)
                assert table.primal[0][1] == (-1) ** r + 1 == outs["eu_singular"]
                assert mc.coeffs[r] == (-1) ** (n + r) == outs["milnor_number"]


def test_criterion_5_grassmannian_oracle_suite():
    with criterion(5, "Schubert products vs Schur oracle, pairing, chi", 30.0):
        for rows, cols in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]:
            n = rows + cols
            box = list(partitions_in_box(rows, cols))
            for lam, mu in combinations_with_replacement(box, 2):
                want = schur_product_in_box(lam, mu, rows, cols)
                got = lr_multiply(
                    ChowElement.sigma(lam, rows, n), ChowElement.sigma(mu, rows, n)
                ).terms
                assert got == want, (rows, cols, lam, mu)
        for r, n in [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6)]:
            for lam in partitions_in_box(r, n - r):
                lamc = box_complement(lam, r, n - r)
                pairing = integrate(
                    lr_multiply(
                        ChowElement.sigma(lam, r, n), ChowElement.sigma(lamc, r, n)
                    )
                )
                assert pairing == 1
        for n in range(0, 7):
            for r in range(0, n + 1):
                t = chern_tensor(taut_sub_dual(r, n), taut_quot(r, n))
                assert integrate(t.classes[t.rank]) == comb(n, r)


def test_criterion_6_determinantal_suite():
    with criterion(6, "determinantal suite for n = 2, 3, 4", 60.0):
        # (a) the explicit smooth-quadric value
        assert q_poly(2, 1) == ClassPoly([0, 2, 4, 4, 0, 0, 0, 0], 4)
        for n in (2, 3, 4):
            q, _, table = eu_table_det(n)
            # (b) the duality identity, exactly
            for r in range(1, n):
                assert involute(signed(q[r]), n * n - 1) == signed(q[n - r])
            # (c) solver-derived table and origin column are binomial
            for k in range(n):
                for r in range(n):
                    assert table.primal[k][r] == (comb(r, k) if r >= k else 0)
            assert table.origin == tuple(comb(n, k) for k in range(n))


def test_criterion_7_guards(capsys, tmp_path):
    with criterion(7, "degenerate and guard behavior", 5.0):
        # quadric ranks 1 and 2 exit with code 2
        for rank in ("1", "2"):
            assert cli_main(["quadric", "--n", "5", "--rank", rank]) == 2
            capsys.readouterr()
        # smooth rank yields the zero Milnor class
        assert cli_main(["quadric", "--n", "6", "--rank", "7"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["outputs"]["milnor_class"] == [0] * 7
        # an inconsistent stratification exits 3 and names the subsystem
        data = json.loads(FIXTURE.read_text())
        data["primal"][1]["csm"][3] += 1
        bad = tmp_path / "inconsistent.json"
        bad.write_text(json.dumps(data))
        assert cli_main(["solve", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "sym3_corank1" in err


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-v"]))
