import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chernmather.linsolve import (
    InconsistentSystem,
    NonIntegerSolution,
    NonUniqueSolution,
    exact_solve,
    solve_integer,
)


def test_identity_system():
    sol = exact_solve([[1, 0], [0, 1]], [5, -7])
    assert sol == [5, -7]


def test_overdetermined_consistent():
    assert exact_solve([[1], [2], [3]], [2, 4, 6]) == [2]


def test_overdetermined_inconsistent():
    with pytest.raises(InconsistentSystem, match="inconsistent"):
        exact_solve([[1], [2], [3]], [2, 4, 7], context="the system")


def test_context_tag_in_message():
    with pytest.raises(InconsistentSystem, match=r"\[row 3 of table\]"):
        exact_solve([[1], [1]], [1, 2], context="row 3 of table")


def test_random_invertible_roundtrip():
    rng = random.Random(31)
    for _ in range(20):
        n = 5
        while True:
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            # ensure invertibility by checking the solve works end to end
            x = [rng.randint(-20, 20) for _ in range(n)]
            b = [sum(ai * xi for ai, xi in zip(row, x)) for row in a]
            try:
                sol = exact_solve(a, b)
            except NonUniqueSolution:
                continue
            break
        assert sol == [Fraction(v) for v in x]


def test_rational_entries():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(-2, 5)]]
    x = [Fraction(3, 7), Fraction(-5, 2)]
    b = [sum(a * v for a, v in zip(row, x)) for row in rows]
    assert exact_solve(rows, b) == x


def test_rank_deficiency():
    with pytest.raises(NonUniqueSolution):
        exact_solve([[1, 1], [2, 2], [3, 3]], [2, 4, 6])


def test_zero_unknowns():
    assert exact_solve([[], []], [0, 0]) == []
    with pytest.raises(InconsistentSystem):
        exact_solve([[], []], [0, 1])


def test_more_unknowns_than_equations():
    with pytest.raises(ValueError):
        exact_solve([[1, 2]], [3])


def test_solve_integer():
    assert solve_integer([[2, 0], [0, 3], [2, 3]], [4, 9, 13]) == [2, 3]
    with pytest.raises(NonIntegerSolution):
        solve_integer([[2]], [3])


# Property tests against sympy's exact rational elimination (reduced row
# echelon form over QQ), an implementation independent of the Bareiss
# solver.  Fixed example counts and derandomized draws keep them
# deterministic.

ORACLE = settings(max_examples=10, derandomize=True, database=None, deadline=None)
NONUNIQUE, INCONSISTENT = "nonunique", "inconsistent"


def sympy_solution(rows, rhs):
    """The unique solution as Fractions, NONUNIQUE or INCONSISTENT."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    n = len(rows[0])
    aug = [
        [QQ(Fraction(v).numerator, Fraction(v).denominator) for v in (*row, b)]
        for row, b in zip(rows, rhs)
    ]
    reduced, pivots = DomainMatrix(aug, (len(rows), n + 1), QQ).rref()
    if sum(1 for p in pivots if p < n) < n:
        return NONUNIQUE
    if n in pivots:
        return INCONSISTENT
    return [
        Fraction(int(row[n].numerator), int(row[n].denominator))
        for row in reduced.to_list()[:n]
    ]


def check_against_sympy(rows, rhs):
    """exact_solve and solve_integer agree with the sympy oracle; returns it."""
    expect = sympy_solution(rows, rhs)
    if expect in (NONUNIQUE, INCONSISTENT):
        error = NonUniqueSolution if expect == NONUNIQUE else InconsistentSystem
        with pytest.raises(error):
            exact_solve(rows, rhs)
        with pytest.raises(error):
            solve_integer(rows, rhs)
        return expect
    assert exact_solve(rows, rhs) == expect
    if all(x.denominator == 1 for x in expect):
        assert solve_integer(rows, rhs) == [int(x) for x in expect]
    else:
        with pytest.raises(NonIntegerSolution):
            solve_integer(rows, rhs)
    return expect


@st.composite
def systems(draw, entries=st.integers(-9, 9), values=st.integers(-20, 20),
            add_row=0, add_col=0):
    """(rows, rhs, x) consistent with the drawn solution x, with room for the
    row or column a test adds to stay within 12 x 6 and square or taller."""
    n = draw(st.integers(1, 6 - add_col))
    m = draw(st.integers(n + add_col, 12 - add_row))
    row = st.lists(entries, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    x = draw(st.lists(values, min_size=n, max_size=n))
    return rows, [sum(map(mul, row, x)) for row in rows], x


class TestSympyOracle:
    @ORACLE
    @given(systems())
    def test_consistent_integer_systems(self, system):
        rows, rhs, x = system
        assert check_against_sympy(rows, rhs) in (NONUNIQUE, x)

    @ORACLE
    @given(systems(add_row=1), st.data())
    def test_perturbed_right_hand_side(self, system, data):
        # Append an integer combination of the rows, then perturb its right-hand
        # side: the equations can no longer all hold.
        rows, rhs, _ = system
        m, n = len(rows), len(rows[0])
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
        combined = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
        delta = data.draw(st.integers(-5, 5).filter(bool))
        at = data.draw(st.integers(0, m))
        rows.insert(at, combined)
        rhs.insert(at, sum(map(mul, coeffs, rhs)) + delta)
        assert check_against_sympy(rows, rhs) in (NONUNIQUE, INCONSISTENT)

    @ORACLE
    @given(systems(add_col=1), st.data())
    def test_duplicated_column(self, system, data):
        rows, rhs, _ = system
        n = len(rows[0])
        src = data.draw(st.integers(0, n - 1))
        at = data.draw(st.integers(0, n))
        for row in rows:
            row.insert(at, row[src])
        assert check_against_sympy(rows, rhs) == NONUNIQUE

    @ORACLE
    @given(systems(
        entries=st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
        values=st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9)),
    ))
    def test_fraction_entries(self, system):
        rows, rhs, x = system
        assert check_against_sympy(rows, rhs) in (NONUNIQUE, x)

    @ORACLE
    @given(systems(), st.integers(2, 7))
    def test_non_integral_solution(self, system, q):
        # Scaling A by q divides the solution by q.
        rows, rhs, x = system
        assume(any(v % q for v in x))
        scaled = [[q * a for a in row] for row in rows]
        expect = [Fraction(v, q) for v in x]
        assert check_against_sympy(scaled, rhs) in (NONUNIQUE, expect)
