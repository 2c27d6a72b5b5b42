import random
import sys
from functools import reduce
from itertools import combinations_with_replacement, zip_longest
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernmather import grassmann
from chernmather.cli import MAX_CHOW_N
from chernmather.grassmann import (
    MAX_LR_TABLEAUX,
    ChowElement,
    integrate,
    lr_multiply,
    normalize_partition,
)

from oracles import (
    BundleChern,
    box_complement,
    box_minus_tableaux,
    chern_dual,
    chern_power,
    chern_sum,
    chern_tensor,
    conjugate,
    count_partitions_in_box,
    partitions_in_box,
    schur_product_in_box,
    taut_quot,
    taut_sub,
    taut_sub_dual,
)


def sigma(parts, r, n):
    return ChowElement.sigma(parts, r, n)


def grassmann_calls(fn, *names):
    """fn()'s result and how often it entered each named function of
    grassmann, the helpers nested in lr_multiply included."""
    calls = dict.fromkeys(names, 0)

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename == grassmann.__file__:
            if code.co_name in calls:
                calls[code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        return fn(), calls
    finally:
        sys.setprofile(previous)


class TestPartitions:
    def test_box_enumeration(self):
        got = sorted(partitions_in_box(2, 2))
        assert got == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]

    def test_box_count_matches_binomial(self):
        for n in range(0, 8):
            for r in range(0, n + 1):
                assert (
                    len(list(partitions_in_box(r, n - r)))
                    == comb(n, r)
                    == count_partitions_in_box(r, n - r)
                )

    def test_conjugate(self):
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate(()) == ()

    def test_complement(self):
        assert box_complement((2, 1), 2, 3) == (2, 1)
        assert box_complement((), 2, 2) == (2, 2)


class TestIntegerInput:
    # a float is never truncated into a part or carried as a coefficient
    def test_float_part_rejected(self):
        with pytest.raises(TypeError):
            ChowElement.sigma((1.9,), 2, 4)

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            ChowElement(2, 4, {(1,): 0.5})


class TestLRMultiply:
    def test_pieri_square(self):
        got = lr_multiply(sigma((1,), 2, 4), sigma((1,), 2, 4))
        assert got.terms == {(2,): 1, (1, 1): 1}

    def test_pieri_overflow_dropped(self):
        got = lr_multiply(sigma((1,), 2, 4), sigma((2, 1), 2, 4))
        assert got.terms == {(2, 2): 1}

    def test_column_square(self):
        got = lr_multiply(sigma((1, 1), 2, 4), sigma((1, 1), 2, 4))
        assert got.terms == {(2, 2): 1}

    def test_box_mismatch(self):
        with pytest.raises(ValueError, match="box"):
            lr_multiply(sigma((1,), 2, 4), sigma((1,), 1, 3))

    def test_box_mismatch_in_last_factor_raises_before_any_product(self):
        s1 = sigma((1,), 2, 4)

        def chain():
            with pytest.raises(ValueError) as exc:
                lr_multiply(s1, s1, s1, sigma((1,), 1, 3))
            return str(exc.value)

        assert grassmann_calls(chain, "add") == ("box mismatch: G(2,4) vs G(1,3)", {"add": 0})

    def test_no_factors_gives_a_copy(self):
        a = ChowElement(2, 4, {(2, 1): 3, (1,): -2, (): 1})
        got = lr_multiply(a)
        assert got == a and got is not a and got.terms is not a.terms

    def test_against_schur_oracle_small_boxes(self):
        for rows, cols in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]:
            n = rows + cols
            box = list(partitions_in_box(rows, cols))
            for lam, mu in combinations_with_replacement(box, 2):
                want = schur_product_in_box(lam, mu, rows, cols)
                got = lr_multiply(sigma(lam, rows, n), sigma(mu, rows, n)).terms
                assert got == want, (rows, cols, lam, mu)

    def test_associative_and_commutative(self):
        rng = random.Random(4)
        box = list(partitions_in_box(3, 3))
        for _ in range(25):
            a, b, c = (sigma(rng.choice(box), 3, 6) for _ in range(3))
            assert lr_multiply(a, b) == lr_multiply(b, a)
            assert lr_multiply(lr_multiply(a, b), c) == lr_multiply(
                a, lr_multiply(b, c)
            )


def partitions_in(rows, cols):
    return st.lists(st.integers(0, cols), min_size=rows, max_size=rows).map(
        lambda ps: normalize_partition(sorted(ps, reverse=True))
    )


class TestLROracles:
    # the edge boxes 1 x 6 and 6 x 1 hold only rows and only columns, so
    # every product there takes Pieri's rule
    @pytest.mark.parametrize(
        "rows, cols", [(r, c) for r in (1, 2, 3) for c in (1, 2, 3)] + [(1, 6), (6, 1)]
    )
    @settings(max_examples=15, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_random_products_match_schur_oracle(self, rows, cols, data):
        lam, mu = data.draw(partitions_in(rows, cols)), data.draw(partitions_in(rows, cols))
        n = rows + cols
        got = lr_multiply(sigma(lam, rows, n), sigma(mu, rows, n)).terms
        assert got == schur_product_in_box(lam, mu, rows, cols)

    @pytest.mark.parametrize(
        "lam, mu, rows, cols",
        [
            ((2, 1), (2, 2, 1, 1), 4, 4),
            ((3, 1, 1), (2, 2, 2, 1), 4, 4),
            ((2, 1, 1), (3, 3, 2, 2), 4, 5),
            ((2, 2), (1, 1, 1, 1, 1), 5, 4),
            ((3, 2, 1), (2, 2, 1, 1, 1), 5, 4),
            # one column and one row as tall and as wide as the box: Pieri
            ((3, 2, 2, 1), (1, 1, 1, 1, 1, 1), 6, 4),
            ((4, 2, 1), (5,), 3, 6),
            ((3, 2), (1, 1, 1), 3, 3),
            ((6, 6, 6), (6,), 3, 6),
        ],
    )
    def test_tall_factor_matches_schur_oracle(self, lam, mu, rows, cols):
        # mu has a part in every row, so each label's strip is held to the
        # floor that the later labels need; a one-column mu takes Pieri's
        # rule, as does a one-row mu as wide as the box
        n = rows + cols
        got = lr_multiply(sigma(lam, rows, n), sigma(mu, rows, n)).terms
        assert got == schur_product_in_box(lam, mu, rows, cols)

    @pytest.mark.parametrize("r, n", [(3, 7), (4, 8), (4, 9), (1, 7), (6, 7)])
    def test_hook_length_integrals(self, r, n):
        # integral of sigma_lam * sigma_1^(D - |lam|), D = dim G(r, n)
        top = r * (n - r)
        powers = [ChowElement.one(r, n)]
        for _ in range(top):
            powers.append(lr_multiply(powers[-1], sigma((1,), r, n)))
        for lam in partitions_in_box(r, n - r):
            got = integrate(lr_multiply(sigma(lam, r, n), powers[top - sum(lam)]))
            assert got == box_minus_tableaux(lam, r, n - r), lam


def bilinear_oracle(a_terms, b_terms, rows, cols):
    """The product of two combinations, term by term through the Schur oracle."""
    want = {}
    for lam, ca in a_terms.items():
        for mu, cb in b_terms.items():
            for nu, c in schur_product_in_box(lam, mu, rows, cols).items():
                want[nu] = want.get(nu, 0) + ca * cb * c
    return want


class TestMultiTermProducts:
    @pytest.mark.parametrize(
        "a_terms, b_terms, rows, cols, cancelled",
        [
            # s_1 s_1 - s_2 s_() = s_11: the s_2 terms cancel
            ({(1,): 1, (2,): -1}, {(1,): 1, (): 1}, 2, 2, {(2,)}),
            # (2 s_1 - 2 s_2)(s_() + s_1 - 3 s_11) on G(3, 6): 2 s_1 s_1 and
            # -2 s_2 s_() cancel in s_2
            ({(1,): 2, (2,): -2}, {(): 1, (1,): 1, (1, 1): -3}, 3, 3, {(2,)}),
            # (s_2 - s_11)(s_2 + s_11) = s_2^2 - s_11^2 on G(2, 5), and both
            # squares hold s_22
            ({(2,): 1, (1, 1): -1}, {(2,): 1, (1, 1): 1}, 2, 3, {(2, 2)}),
            ({(2, 1): 2, (1,): -5, (): 7}, {(): -4, (2, 2): 3, (1, 1, 1): 6}, 3, 3, set()),
            # Pieri factors with coefficients other than 1.  (s_2 - s_11) 3 s_1
            # on G(2, 5): the two s_21 cancel
            ({(2,): 1, (1, 1): -1}, {(1,): 3}, 2, 3, {(2, 1)}),
            # (s_2 - s_11)(-2 s_11) on G(3, 6): the two s_211 cancel
            ({(2,): 1, (1, 1): -1}, {(1, 1): -2}, 3, 3, {(2, 1, 1)}),
            # (s_3 - s_21)(2 s_2) on G(3, 6): the two s_32 cancel
            ({(3,): 1, (2, 1): -1}, {(2,): 2}, 3, 3, {(3, 2)}),
            # (s_111 - s_21)(-3 s_11) on G(3, 6): the two s_221 cancel
            ({(1, 1, 1): 1, (2, 1): -1}, {(1, 1): -3}, 3, 3, {(2, 2, 1)}),
            # the edge boxes: P^4 as G(1, 5), and G(4, 5)
            ({(1,): 3, (2,): -2, (): 1}, {(2,): -3}, 1, 4, set()),
            ({(1, 1): 2, (1,): -1, (): 4}, {(1, 1): 5}, 4, 1, set()),
            # the full box and a class just below it, times a row and a
            # column: every product leaves the box
            ({(2, 2): 3, (2, 1): -1}, {(2,): 2}, 2, 2, set()),
            ({(2, 2): 3, (2, 1): -1}, {(1, 1): -2}, 2, 2, set()),
        ],
    )
    def test_matches_bilinear_oracle(self, a_terms, b_terms, rows, cols, cancelled):
        # several terms on each side, coefficients other than 1, the unit
        # sigma_() among the factor's terms, and terms that cancel to zero
        n = rows + cols
        want = bilinear_oracle(a_terms, b_terms, rows, cols)
        assert {nu for nu, c in want.items() if c == 0} == cancelled
        got = lr_multiply(ChowElement(rows, n, a_terms), ChowElement(rows, n, b_terms))
        assert got.terms == {nu: c for nu, c in want.items() if c}

    def test_random_combinations_match_bilinear_oracle(self):
        rng = random.Random(21)
        for rows, cols in [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]:
            n = rows + cols
            box = list(partitions_in_box(rows, cols))
            for _ in range(10):
                terms = [
                    {rng.choice(box): rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(4)}
                    for _ in range(2)
                ]
                terms[1][()] = rng.choice([-2, 2])
                want = bilinear_oracle(*terms, rows, cols)
                got = lr_multiply(*(ChowElement(rows, n, t) for t in terms))
                assert got.terms == {nu: c for nu, c in want.items() if c}, terms


class TestTableauBudget:
    # A product may generate MAX_LR_TABLEAUX tableaux and no more.  Each pair
    # of terms, the unit factor included, generates c^nu_(lam,mu) tableaux
    # for every nu in the box: the coefficients of sigma_lam sigma_mu.
    @pytest.mark.parametrize(
        "a_terms, b_terms, rows, cols, count",
        [
            ({(1,): 1}, {(1,): 1}, 2, 2, 2),
            # (2,1)(2,1) = s_33 + 2 s_321 + s_222 in the 3 x 3 box
            ({(2, 1): 1}, {(2, 1): 1}, 3, 3, 4),
            ({(2, 1): 1, (1,): 1}, {(1, 1): 1, (): 1}, 3, 3, 7),
            ({(1,): 1, (): 1}, {(): 1}, 2, 2, 2),
            # Pieri's rule: one tableau per strip, s_21 s_2 = s_32 + s_311 +
            # s_221 in the 3 x 3 box, and the same for s_21 s_11
            ({(2, 1): 1, (1,): 1, (): 1}, {(2,): 1}, 3, 3, 6),
            ({(2, 1): 1, (1,): 1, (): 1}, {(1, 1): 1}, 3, 3, 6),
        ],
    )
    def test_limit_counts_every_tableau(self, monkeypatch, a_terms, b_terms, rows, cols, count):
        n = rows + cols
        assert sum(bilinear_oracle(a_terms, b_terms, rows, cols).values()) == count
        a, b = ChowElement(rows, n, a_terms), ChowElement(rows, n, b_terms)
        want = lr_multiply(a, b)
        monkeypatch.setattr(grassmann, "MAX_LR_TABLEAUX", count)
        assert lr_multiply(a, b) == want
        monkeypatch.setattr(grassmann, "MAX_LR_TABLEAUX", count - 1)
        with pytest.raises(ValueError) as exc:
            lr_multiply(a, b)
        assert str(exc.value) == (
            f"the product needs more than {count - 1} Littlewood-Richardson tableaux"
        )

    def test_limit_holds_per_product_of_a_chain(self, monkeypatch):
        # sigma_1 * sigma_1 * sigma_21 * sigma_1 * sigma_11 * sigma_1 on
        # G(3, 6): its products generate 2, 6, 5, 2 and 1 tableaux, so a
        # limit of 6 passes the chain though the products need 16 in all,
        # and a limit of 5 stops the second product
        rows, cols, n = 3, 3, 6
        a = sigma((1,), rows, n)
        fs = [sigma(mu, rows, n) for mu in [(1,), (2, 1), (1,), (1, 1), (1,)]]
        counts, x = [], a
        for f in fs:
            counts.append(sum(
                sum(schur_product_in_box(lam, mu, rows, cols).values())
                for lam in x.terms for mu in f.terms
            ))
            x = lr_multiply(x, f)
        assert counts == [2, 6, 5, 2, 1] and x.terms == {(3, 3, 3): 8}
        monkeypatch.setattr(grassmann, "MAX_LR_TABLEAUX", 6)
        assert lr_multiply(a, *fs) == x
        monkeypatch.setattr(grassmann, "MAX_LR_TABLEAUX", 5)
        with pytest.raises(ValueError) as exc:
            lr_multiply(a, *fs)
        assert str(exc.value) == "the product needs more than 5 Littlewood-Richardson tableaux"

    @pytest.mark.parametrize(
        "a_terms, mu, rows, cols, strips",
        [
            # 35 terms, each with all four rows at 3 or more: a row of 4
            # fits none
            ({tuple(x + 3 for x in lam + (0,) * (4 - len(lam))): 1
              for lam in partitions_in_box(4, 3)}, (4,), 4, 6, 0),
            # 35 terms, each filling rows 0..2: a column of 4 fits none
            ({(4, 4, 4) + lam: 1 for lam in partitions_in_box(3, 4)}, (1, 1, 1, 1), 6, 4, 0),
            # all 20 classes of the 3 x 3 box: strips on some, none on others
            ({lam: 1 for lam in partitions_in_box(3, 3)}, (2,), 3, 3, 24),
            ({lam: 1 for lam in partitions_in_box(3, 3)}, (1, 1), 3, 3, 24),
            # sigma_1: the last box is the only one, so every strip is added
            # by a root call and the bound below makes the row calls exactly
            # one per term of a
            ({lam: 1 for lam in partitions_in_box(3, 3)}, (1,), 3, 3, 30),
        ],
    )
    def test_strip_search_is_bounded_by_its_strips(self, a_terms, mu, rows, cols, strips):
        # the cut-offs let a Pieri call go on only where a strip can still
        # be finished: with no strip to find, only the call per term of a.
        # A strip's last box is added in place, so each strip of k boxes
        # takes at most k - 1 calls below the root.
        a = ChowElement(rows, rows + cols, a_terms)
        b = ChowElement.sigma(mu, rows, rows + cols)
        got, calls = grassmann_calls(lambda: lr_multiply(a, b), "row", "column", "add")
        # every coefficient is 1, so the product's sum counts the strips
        assert calls["add"] == strips == sum(got.terms.values())
        assert calls["row"] + calls["column"] <= len(a_terms) + (sum(mu) - 1) * strips
        # and the count saw the helper: one root call per term of a
        assert calls["column" if len(mu) > 1 else "row"] >= len(a_terms)

    def test_sigma1_product_is_under_the_limit(self):
        # `chow --integrate` does not multiply its trailing sigma_1 factors,
        # and so drops no product that could exceed the limit: the terms of
        # a chain's product have one degree, and a sigma_1 product makes at
        # most `rows` strips from each.  by_size[i][j][d] counts the
        # partitions of d in the i x j box, the coefficients of the Gaussian
        # binomial: a partition has fewer than i parts, or i parts, each one
        # more than those of a partition in the i x (j-1) box.
        worst = {}
        for n in range(MAX_CHOW_N + 1):
            by_size = [[[1]] * (n + 1)]
            for i in range(1, n + 1):
                by_size.append([[1]])
                for j in range(1, n - i + 1):
                    fewer, full = by_size[i - 1][j], [0] * i + by_size[i][j - 1]
                    by_size[i].append([x + y for x, y in zip_longest(fewer, full, fillvalue=0)])
            for rows in range(n + 1):
                sizes = by_size[rows][n - rows]
                assert sum(sizes) == comb(n, rows)
                if n <= 8:
                    assert sizes == [
                        sum(1 for p in partitions_in_box(rows, n - rows) if sum(p) == d)
                        for d in range(len(sizes))
                    ]
                worst[rows, n] = max(sizes) * rows
                assert worst[rows, n] < MAX_LR_TABLEAUX, (rows, n)
        assert worst[10, 20] == 5_448 * 10
        assert max(worst.values()) == worst[11, 20] == 4_968 * 11

    def test_sigma1_product_makes_at_most_rows_strips_a_term(self):
        for rows in range(1, 6):
            for cols in range(1, 6):
                n = rows + cols
                s1 = sigma((1,), rows, n)
                for d in range(rows * cols):
                    x = ChowElement(rows, n, {
                        p: 1 for p in partitions_in_box(rows, cols) if sum(p) == d
                    })
                    _, calls = grassmann_calls(lambda: lr_multiply(x, s1), "add")
                    assert calls["add"] <= rows * len(x.terms)

    def test_pieri_bound_bounds_every_strip_product(self):
        # a product of every class of the box by a strip of k boxes makes at
        # most _pieri_bound(k, rows, n) strips, one `add` each
        for rows in range(1, 6):
            for cols in range(1, 6):
                n = rows + cols
                x = ChowElement(rows, n, dict.fromkeys(partitions_in_box(rows, cols), 1))
                strips = [(k,) for k in range(1, cols + 1)] + [(1,) * k for k in range(2, rows + 1)]
                for mu in strips:
                    _, calls = grassmann_calls(lambda: lr_multiply(x, sigma(mu, rows, n)), "add")
                    assert calls["add"] <= grassmann._pieri_bound(sum(mu), rows, n), (mu, rows, cols)


class TestChains:
    def test_random_chains_match_fold_and_oracle(self):
        # lr_multiply(a, *fs) against the pairwise fold in every box up to
        # 5 x 5, and against the bilinear oracle folded over the factors in
        # the boxes of at most 3 rows, where the Schur oracle is quick.  a
        # holds two classes of one size with opposite coefficients, whose
        # products share terms that then cancel.
        rng = random.Random(32)
        coeffs = [-3, -2, -1, 1, 2, 3]
        checked = cancelled = nonzero = 0
        for rows in range(1, 6):
            for cols in range(1, 6):
                n = rows + cols
                box = list(partitions_in_box(rows, cols))
                small = [p for p in box if 0 < sum(p) <= 3]
                pools = [
                    pool
                    for pool in (
                        [p for p in small if len(p) == 1],  # rows
                        [p for p in small if len(p) > 1 and p[0] == 1],  # columns
                        [p for p in small if len(p) > 1 and p[0] > 1],  # general
                    )
                    if pool
                ]
                sizes = {}
                for p in box:
                    sizes.setdefault(sum(p), []).append(p)
                twins = [ps for ps in sizes.values() if len(ps) > 1]
                for _ in range(10):
                    a_terms = {rng.choice(box): rng.choice(coeffs) for _ in range(2)}
                    if twins:
                        lam, mu = rng.sample(rng.choice(twins), 2)
                        c = rng.choice(coeffs)
                        a_terms[lam], a_terms[mu] = c, -c
                    fs = []
                    for _ in range(rng.randrange(7)):
                        f_terms = {rng.choice(rng.choice(pools)): 1}
                        if rng.random() < 0.25:  # a combination as a factor
                            f_terms[rng.choice(box)] = rng.choice(coeffs)
                        fs.append(ChowElement(rows, n, f_terms))
                    a = ChowElement(rows, n, a_terms)
                    got = lr_multiply(a, *fs)
                    assert got == reduce(lr_multiply, fs, a), (a_terms, fs)
                    nonzero += bool(got.terms)
                    if rows > 3:
                        continue
                    want = a.terms
                    for f in fs:
                        want = bilinear_oracle(want, f.terms, rows, cols)
                        cancelled += 0 in want.values()
                        want = {nu: c for nu, c in want.items() if c}
                    assert got.terms == want, (a_terms, [f.terms for f in fs])
                    checked += 1
        # the oracle saw 150 chains, whose products cancelled a term 33
        # times, and 129 of the 250 chains end in a nonzero class
        assert checked == 150 and cancelled >= 20 and nonzero >= 100


def lr_coefficient(lam, mu, nu):
    """c^nu_{lam, mu}, read off the product on G(3, 7), whose box holds nu."""
    return lr_multiply(sigma(lam, 3, 7), sigma(mu, 3, 7)).terms.get(nu, 0)


class TestLRCoefficient:
    def test_known_values(self):
        assert lr_coefficient((1,), (1,), (2,)) == 1
        assert lr_coefficient((1,), (1,), (1, 1)) == 1
        assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
        assert lr_coefficient((1, 1), (2,), (2, 2)) == 0
        assert lr_coefficient((2,), (1, 1), (2, 1, 1)) == 1

    def test_empty_factors(self):
        assert lr_coefficient((), (2, 1), (2, 1)) == 1
        assert lr_coefficient((2, 1), (), (2, 1)) == 1
        assert lr_coefficient((1, 1), (), (2,)) == 0


class TestIntegrate:
    def test_point_class_on_p1(self):
        assert integrate(sigma((1,), 1, 2)) == 1

    def test_g24_pairing(self):
        prod = lr_multiply(sigma((2,), 2, 4), sigma((2,), 2, 4))
        assert integrate(prod) == 1

    def test_degree_deficient(self):
        assert integrate(sigma((1,), 2, 4)) == 0

    def test_duality_pairing(self):
        for r, n in [(1, 3), (2, 4), (2, 5), (3, 6)]:
            box = list(partitions_in_box(r, n - r))
            for lam in box:
                lamc = box_complement(lam, r, n - r)
                assert integrate(
                    lr_multiply(sigma(lam, r, n), sigma(lamc, r, n))
                ) == 1
                for mu in box:
                    if sum(mu) == sum(lamc) and mu != lamc:
                        assert (
                            integrate(lr_multiply(sigma(lam, r, n), sigma(mu, r, n)))
                            == 0
                        )

    def test_point_rings(self):
        # G(0,n) and G(n,n) carry only the empty partition
        one = ChowElement.one(0, 3)
        assert integrate(one) == 1
        assert integrate(ChowElement.one(3, 3)) == 1
        assert list(partitions_in_box(0, 3)) == [()]

    def test_closed_form_matches_sigma1_chain(self):
        # integrate(x, m) against the integral of x * sigma_1^m multiplied
        # out, in every box up to 5 x 5 and for every m from 0 to dim.  x is
        # a * f_1 * ... * f_k, with general factors f_i and a holding classes
        # of one degree with coefficients of both signs, and sometimes a
        # class of another degree, which integrates to 0 either way.
        rng = random.Random(35)
        coeffs = [-3, -2, -1, 1, 2, 3]
        checked = nonzero = 0
        for rows in range(1, 6):
            for cols in range(1, 6):
                n, top = rows + cols, rows * cols
                s1 = sigma((1,), rows, n)
                sizes = {}
                for p in partitions_in_box(rows, cols):
                    sizes.setdefault(sum(p), []).append(p)
                general = [p for p in sizes.get(3, []) + sizes.get(4, []) if p[0] > 1 and len(p) > 1]
                for m in range(top + 1):
                    fs, left = [], top - m
                    for _ in range(rng.randrange(3)):
                        mu = rng.choice(general) if general else None
                        if mu and sum(mu) <= left:
                            fs.append(sigma(mu, rows, n))
                            left -= sum(mu)
                    same = sizes[left]
                    a_terms = {lam: rng.choice(coeffs) for lam in rng.sample(same, min(3, len(same)))}
                    if len(same) > 1:
                        lam, mu = rng.sample(same, 2)
                        a_terms[lam], a_terms[mu] = 2, -1
                    if rng.random() < 0.3:
                        a_terms[rng.choice(sizes[rng.choice(list(sizes))])] = 5
                    a = ChowElement(rows, n, a_terms)
                    want = integrate(lr_multiply(a, *fs, *[s1] * m))
                    assert integrate(lr_multiply(a, *fs), m) == want, (a_terms, fs, m)
                    checked += 1
                    nonzero += want != 0
        assert checked == sum(r * c + 1 for r in range(1, 6) for c in range(1, 6))
        assert nonzero >= checked * 3 // 4

    def test_unit_class_matches_hook_length_oracle(self):
        # the integral of sigma_lam * sigma_1^(dim - |lam|), the standard
        # tableaux of box/lam, for every lam in every box up to 6 x 6
        for rows in range(7):
            for cols in range(7):
                n = rows + cols
                for lam in partitions_in_box(rows, cols):
                    got = integrate(sigma(lam, rows, n), rows * cols - sum(lam))
                    assert got == box_minus_tableaux(lam, rows, cols), (rows, cols, lam)

    def test_off_degree_terms_integrate_to_zero(self):
        x = ChowElement(3, 6, {(2, 1): 4, (3, 3, 1): 7})
        assert integrate(x, 6) == 4 * box_minus_tableaux((2, 1), 3, 3) != 0
        assert integrate(x, 2) == 7 * box_minus_tableaux((3, 3, 1), 3, 3) != 0
        assert integrate(x, 3) == integrate(x, 10) == integrate(x) == 0

    def test_inexact_quotient_raises(self, monkeypatch):
        # on G(2, 4), the integral of sigma_1^4 is 4! * 1 / (2! 3!) = 2; with
        # 4! taken as 25 the quotient leaves a remainder
        one = ChowElement.one(2, 4)
        assert integrate(one, 4) == 2
        monkeypatch.setattr(grassmann, "factorial", lambda k: factorial(k) + (k == 4))
        with pytest.raises(ArithmeticError) as exc:
            integrate(one, 4)
        assert str(exc.value) == "the tableaux of the 2x2 box minus () are not a whole number"

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            integrate(ChowElement.one(2, 4), -1)


class TestTautologicalBundles:
    def test_p1_sub_dual(self):
        b = taut_sub_dual(1, 2)
        assert b.rank == 1
        assert b.classes[1].terms == {(1,): 1}

    def test_g24_quotient(self):
        q = taut_quot(2, 4)
        assert [c.terms for c in q.classes] == [{(): 1}, {(1,): 1}, {(2,): 1}]

    def test_whitney_product_is_one(self):
        for n in range(0, 7):
            for r in range(0, n + 1):
                total = chern_sum(taut_sub(r, n), taut_quot(r, n)).total()
                assert total == ChowElement.one(r, n), (r, n)

    def test_dual_twice_is_identity(self):
        b = taut_sub(2, 5)
        assert chern_dual(chern_dual(b)) == b

    def test_power_of_line_bundle(self):
        # (S^v)^(+2) on G(1,3): c_1 doubles, c_2 = sigma_1^2
        b = chern_power(taut_sub_dual(1, 3), 2)
        assert b.classes[1].terms == {(1,): 2}
        assert b.classes[2].terms == {(2,): 1}

    def test_power_on_p1(self):
        b = chern_power(taut_sub_dual(1, 2), 2)
        assert b.classes[1].terms == {(1,): 2}
        assert not b.classes[2].terms  # sigma_1^2 = 0 on P^1

    def test_power_zero(self):
        b = chern_power(taut_sub(2, 4), 0)
        assert b.rank == 0 and b.total() == ChowElement.one(2, 4)


class TestChernTensor:
    def test_line_bundles_add_first_classes(self):
        s_dual = taut_sub_dual(1, 2)
        t = chern_tensor(s_dual, taut_quot(1, 2))
        assert t.rank == 1
        assert t.classes[1].terms == {(1,): 2}

    def test_tangent_bundle_of_g24(self):
        t = chern_tensor(taut_sub_dual(2, 4), taut_quot(2, 4))
        assert t.rank == 4
        assert integrate(t.classes[4]) == 6  # chi of G(2,4)
        # first Chern class of the tangent bundle is n*sigma_1
        assert t.classes[1].terms == {(1,): 4}

    def test_euler_characteristic_sweep(self):
        for n in range(0, 7):
            for r in range(0, n + 1):
                t = chern_tensor(taut_sub_dual(r, n), taut_quot(r, n))
                assert integrate(t.classes[t.rank]) == comb(n, r), (r, n)

    def test_tensor_with_rank_zero(self):
        zero_bundle = chern_power(taut_sub(2, 4), 0)
        t = chern_tensor(zero_bundle, taut_quot(2, 4))
        assert t.rank == 0
        assert t.total() == ChowElement.one(2, 4)


class TestBundleValidation:
    def test_c0_must_be_one(self):
        with pytest.raises(ValueError, match="c_0"):
            BundleChern(1, (ChowElement(1, 2), ChowElement.one(1, 2)))

    def test_pure_degree(self):
        with pytest.raises(ValueError, match="degree"):
            BundleChern(
                1, (ChowElement.one(1, 2), ChowElement.one(1, 2))
            )

    def test_length(self):
        with pytest.raises(ValueError, match="rank"):
            BundleChern(2, (ChowElement.one(1, 2),))
