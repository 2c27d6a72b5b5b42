import random
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chernmather.grassmann import ChowElement, integrate, lr_multiply, normalize_partition

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
    @pytest.mark.parametrize("rows, cols", [(r, c) for r in (1, 2, 3) for c in (1, 2, 3)])
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
        ],
    )
    def test_tall_factor_matches_schur_oracle(self, lam, mu, rows, cols):
        # mu has a part in every row, so each label's strip is held to the
        # floor that the later labels need
        n = rows + cols
        got = lr_multiply(sigma(lam, rows, n), sigma(mu, rows, n)).terms
        assert got == schur_product_in_box(lam, mu, rows, cols)

    @pytest.mark.parametrize("r, n", [(3, 7), (4, 8), (4, 9)])
    def test_hook_length_integrals(self, r, n):
        # integral of sigma_lam * sigma_1^(D - |lam|), D = dim G(r, n)
        top = r * (n - r)
        powers = [ChowElement.one(r, n)]
        for _ in range(top):
            powers.append(lr_multiply(powers[-1], sigma((1,), r, n)))
        for lam in partitions_in_box(r, n - r):
            got = integrate(lr_multiply(sigma(lam, r, n), powers[top - sum(lam)]))
            assert got == box_minus_tableaux(lam, r, n - r), lam


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
