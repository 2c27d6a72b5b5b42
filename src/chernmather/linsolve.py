"""Exact solving of small dense integer linear systems for integer unknowns.

Systems here are typically overdetermined (one equation per coefficient of
H, a handful of unknowns) and arithmetic is exact, so inconsistency is a
diagnostic, never noise: every row must be satisfied on the nose.

The solver works in integers from input to verification.  It reads the
equations one at a time, in the order given, and stops as soon as every
unknown has a pivot, so callers put the most informative equations first.
Each row it reads is reduced by the pivot rows found so far and divided by
the gcd of its entries.  A primitive row is bounded in size by Cramer's
rule, so entries grow polynomially, not exponentially.  Back substitution
yields integer numerators X over a common denominator D, with x = X / D.
Every original equation, read or not, is then checked as
sum_j a_ij X_j == b_i D, and the weights are the quotients X / D, which
must all be exact.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd
from operator import mul


class LinearSystemError(Exception):
    """Base class for solver failures."""


class InconsistentSystem(LinearSystemError):
    """The equations admit no solution."""


class NonUniqueSolution(LinearSystemError):
    """The equations do not pin the unknowns down (rank deficiency)."""


class NonIntegerSolution(LinearSystemError):
    """The unique rational solution fails to be integral."""


def exact_solve(
    rows: Sequence[Sequence[int]], rhs: Sequence[int], context: str = ""
) -> list[int]:
    """Unique integer solution of A.x = b by fraction-free elimination.

    Every entry of A and b is a Python int.  A must have at least as many
    rows as columns; the system may be overdetermined but has to be
    consistent on every row.  Equations are read in the order given, each
    reduced by the pivot rows found so far and kept as a primitive integer
    row, and reading stops once every unknown has a pivot, so the caller
    should put the equations most likely to be independent first.  Back
    substitution gives integer numerators over a common denominator, and
    those are re-substituted into all original equations, including the
    ones never read.

    Raises NonUniqueSolution when the equations leave an unknown free,
    otherwise InconsistentSystem when they admit no solution, and otherwise
    NonIntegerSolution when the unique rational solution is not integral,
    tagging the message with `context` so callers can name the offending
    subsystem.  A malformed system raises ValueError; the one with more
    unknowns than equations carries the same tag.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    if len(set(map(len, rows))) > 1:
        raise ValueError("ragged coefficient matrix")
    if len(rhs) != m:
        raise ValueError("right-hand side length does not match row count")
    tag = f" [{context}]" if context else ""
    if m < ncols:
        raise ValueError(f"need at least as many equations as unknowns{tag}")

    # Row reduction one equation at a time.  Each pivot row is zero in the
    # pivot columns found before it, so reducing by the pivots in the order
    # they were found leaves a row that is zero in all of them.  A row that
    # reduces to 0 = c != 0 proves inconsistency, but a free unknown takes
    # precedence, so that the error class does not depend on row order.
    pivots: list[tuple[int, list[int]]] = []
    contradiction = False
    for row, b in zip(rows, rhs):
        if len(pivots) == ncols:
            break
        red = [*row, b]
        for col, piv in pivots:
            f = red[col]
            if f:
                p = piv[col]
                g = gcd(p, f)
                p, f = p // g, f // g
                red = [p * a - f * t for a, t in zip(red, piv)]
        col = next((j for j in range(ncols) if red[j]), None)
        if col is None:
            contradiction = contradiction or red[ncols] != 0
            continue
        g = gcd(*red)
        pivots.append((col, [a // g for a in red]))
    if len(pivots) < ncols:
        free = min(set(range(ncols)).difference(c for c, _ in pivots))
        raise NonUniqueSolution(
            f"unknown #{free} is not determined by the equations{tag}"
        )
    if contradiction:
        raise InconsistentSystem(f"equations are mutually inconsistent{tag}")

    # Back substitution from the last pivot to the first: x_j = num[j] / d.
    # Solving pivot row (col, piv) gives piv[col] * x_col = (b d - s) / d;
    # the reduced factor of piv[col] joins the common denominator.
    d = 1
    num = [0] * ncols
    for col, piv in reversed(pivots):
        acc = d * piv[ncols] - sum(map(mul, piv, num))
        p = piv[col]
        g = gcd(acc, p)
        p, acc = p // g, acc // g
        num = [x * p for x in num]
        num[col] = acc
        d *= p

    # Verify every original equation exactly: sum_j a_ij X_j == b_i D.
    for row, b in zip(rows, rhs):
        if sum(map(mul, row, num)) != b * d:
            raise InconsistentSystem(
                f"equations are mutually inconsistent (residual check failed){tag}"
            )

    # The solution is integral when D divides every numerator.
    if d < 0:
        d, num = -d, [-x for x in num]
    for k, x in enumerate(num):
        if x % d:
            g = gcd(x, d)
            raise NonIntegerSolution(
                f"unknown #{k} solves to {x // g}/{d // g}, not an integer{tag}"
            )
    return [x // d for x in num]
