import random
import re
from fractions import Fraction
from math import lcm
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chernmather.linsolve import (
    InconsistentSystem,
    NonIntegerSolution,
    NonUniqueSolution,
    exact_solve,
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
        assert sol == x


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


def test_inconsistent_equation_after_a_full_set_of_pivots():
    # The first two equations pin x down, so elimination stops before the
    # third; only the residual check over every equation can reject it.
    with pytest.raises(InconsistentSystem, match=r"inconsistent.*\[late row\]$"):
        exact_solve([[1, 0], [0, 1], [1, 1], [2, 3]], [2, 3, 5, 14], context="late row")


# Zero and dependent equations first, independent ones last: the row shape of
# a duality system read from H^0 up.
LATE_ROWS = [[0, 0, 0], [0, 0, 0], [0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 1, 1]]


def test_independent_equations_last():
    rows = LATE_ROWS + [[0, 0, 1]]
    x = [3, -1, 2]
    assert exact_solve(rows, [sum(map(mul, row, x)) for row in rows]) == x


def test_independent_equations_last_rank_deficient():
    # The last row is the sum of rows 3 and 5, so x_2 stays free.
    rows = LATE_ROWS + [[1, 3, 4]]
    x = [3, -1, 2]
    rhs = [sum(map(mul, row, x)) for row in rows]
    with pytest.raises(NonUniqueSolution, match=r"unknown #2 is not determined"):
        exact_solve(rows, rhs)


@pytest.mark.parametrize("rows, rhs", [
    ([[1, 1], [1, 1]], [1, 2]),
    ([[1, 1, 0], [2, 2, 0], [0, 0, 1]], [1, 3, 4]),
], ids=["square", "tall"])
def test_free_unknown_outranks_contradiction(rows, rhs):
    # Rank deficient and inconsistent at once: the error class must not
    # depend on whether the contradiction is read before the rows run out.
    assert check_against_sympy(rows, rhs) == NONUNIQUE
    assert check_against_sympy(rows[::-1], rhs[::-1]) == NONUNIQUE


def _wide_int(rng):
    return rng.choice((-1, 1)) * (rng.getrandbits(rng.randint(60, 90)) | 1 << 59)


@pytest.mark.parametrize("case", ["consistent", "perturbed", "dependent_column"])
def test_tall_system_with_wide_entries(case):
    # 40 equations in 7 unknowns with 60- to 90-bit entries and a wide
    # solution: the reduced rows grow well past the input size.  The drawn
    # solution is rational; scaling it by the lcm L of its denominators
    # gives the integer system A.(L x) = L b.
    rng = random.Random(case)
    rows = [[_wide_int(rng) for _ in range(7)] for _ in range(40)]
    x = [Fraction(_wide_int(rng), rng.randint(1, 10**6)) for _ in range(7)]
    scale = lcm(*(v.denominator for v in x))
    x = [int(scale * v) for v in x]
    rhs = [sum(map(mul, row, x)) for row in rows]
    if case == "perturbed":
        rhs[-1] += 1
    elif case == "dependent_column":
        for row in rows:
            row[4] = 3 * row[1] - row[6]
    expect = check_against_sympy(rows, rhs)
    assert expect == {
        "consistent": x, "perturbed": INCONSISTENT, "dependent_column": NONUNIQUE
    }[case]


def test_solve_integer():
    sol = exact_solve([[2, 0], [0, 3], [2, 3]], [4, 9, 13])
    assert sol == [2, 3] and all(type(v) is int for v in sol)
    with pytest.raises(NonIntegerSolution):
        exact_solve([[2]], [3])


def test_non_integer_message():
    # the value is reduced and carries its sign on the numerator
    with pytest.raises(NonIntegerSolution) as exc:
        exact_solve([[-2], [-4]], [1, 2], "ctx")
    assert str(exc.value) == "unknown #0 solves to -1/2, not an integer [ctx]"


def test_residual_failure_outranks_non_integer():
    # the first two equations give x = (1, 1/2), which the third rejects
    with pytest.raises(InconsistentSystem, match=r"residual check failed\) \[ctx\]$"):
        exact_solve([[1, 0], [0, 2], [1, 2]], [1, 1, 3], "ctx")


# Property tests against sympy's exact rational elimination (reduced row
# echelon form over QQ), an implementation independent of the solver's
# row-at-a-time elimination with its early stop.  Fixed example counts and
# derandomized draws keep them deterministic.

ORACLE = settings(max_examples=10, derandomize=True, database=None, deadline=None)
NONUNIQUE, INCONSISTENT = "nonunique", "inconsistent"


def sympy_solution(rows, rhs):
    """The unique solution as Fractions, NONUNIQUE or INCONSISTENT."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    n = len(rows[0])
    aug = [[QQ(v) for v in (*row, b)] for row, b in zip(rows, rhs)]
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
    """exact_solve agrees with the sympy oracle; returns the oracle's answer.

    An integral solution must come back exactly, as ints; a non-integral one
    must raise NonIntegerSolution naming the first non-integral unknown and
    its value."""
    expect = sympy_solution(rows, rhs)
    if expect in (NONUNIQUE, INCONSISTENT):
        error = NonUniqueSolution if expect == NONUNIQUE else InconsistentSystem
        with pytest.raises(error):
            exact_solve(rows, rhs)
        return expect
    k = next((k for k, x in enumerate(expect) if x.denominator != 1), None)
    if k is None:
        sol = exact_solve(rows, rhs)
        assert sol == expect and all(type(v) is int for v in sol)
    else:
        message = f"unknown #{k} solves to {expect[k]}, not an integer"
        with pytest.raises(NonIntegerSolution, match=f"^{re.escape(message)}$"):
            exact_solve(rows, rhs)
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
    @given(systems(entries=st.integers(-2, 2)), st.data())
    def test_equation_order_does_not_matter(self, system, data):
        # Small entries make rank deficiency common; one perturbed right-hand
        # side makes inconsistency common.  Neither the solution nor the error
        # class may depend on which equations the elimination reads first.
        rows, rhs, _ = system
        m = len(rows)
        if data.draw(st.booleans()):
            rhs[data.draw(st.integers(0, m - 1))] += data.draw(st.integers(-5, 5).filter(bool))
        order = data.draw(st.permutations(range(m)))
        expect = check_against_sympy(rows, rhs)
        assert check_against_sympy([rows[i] for i in order], [rhs[i] for i in order]) == expect

    @ORACLE
    @given(systems(), st.integers(2, 7))
    def test_non_integral_solution(self, system, q):
        # Scaling A by q divides the solution by q.
        rows, rhs, x = system
        assume(any(v % q for v in x))
        scaled = [[q * a for a in row] for row in rows]
        expect = [Fraction(v, q) for v in x]
        assert check_against_sympy(scaled, rhs) in (NONUNIQUE, expect)
