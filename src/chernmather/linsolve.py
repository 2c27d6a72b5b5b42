"""Exact solving of small dense linear systems over the rationals.

Systems here are typically overdetermined (one equation per coefficient of
H, a handful of unknowns) and arithmetic is exact, so inconsistency is a
diagnostic, never noise: every row must be satisfied on the nose.

The solver works in integers from input to verification.  Rows of plain
integers are used as they are; a row with rational entries is first
scaled by the lcm of its denominators.  Bareiss elimination keeps every
entry an integer, and back substitution over the final pivot D yields
integer numerators X with x = X / D.  Every original equation is then
checked as sum_j a_ij X_j == b_i D, in integers when the caller's entries
are integers, and a Fraction is built only once per unknown, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Sequence


class LinearSystemError(Exception):
    """Base class for solver failures."""


class InconsistentSystem(LinearSystemError):
    """The equations admit no solution."""


class NonUniqueSolution(LinearSystemError):
    """The equations do not pin the unknowns down (rank deficiency)."""


class NonIntegerSolution(LinearSystemError):
    """The unique rational solution fails to be integral."""


def _as_integer_rows(rows, rhs):
    """Augmented integer rows [a_i1 .. a_in, b_i], each scaled by the lcm
    of its denominators; rows of plain integers are taken as they are."""
    out = []
    for row, b in zip(rows, rhs):
        ents = [*row, b]
        if set(map(type, ents)) != {int}:
            ents = [Fraction(e) for e in ents]
            scale = 1
            for e in ents:
                scale = scale * e.denominator // gcd(scale, e.denominator)
            ents = [int(e * scale) for e in ents]
        out.append(ents)
    return out


def exact_solve(
    rows: Sequence[Sequence], rhs: Sequence, context: str = ""
) -> list[Fraction]:
    """Unique exact solution of A.x = b, fraction-free elimination.

    A must have at least as many rows as columns; the system may be
    overdetermined but has to be consistent on every row.  The solution is
    computed as integer numerators over the final Bareiss pivot, and those
    are re-substituted into all original equations (in integers when the
    entries are integers) as a final check; Fractions are formed only for
    the returned values.

    Raises InconsistentSystem or NonUniqueSolution, tagging the message with
    `context` so callers can name the offending subsystem.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged coefficient matrix")
    if len(rhs) != m:
        raise ValueError("right-hand side length does not match row count")
    if m < ncols:
        raise ValueError("need at least as many equations as unknowns")

    tag = f" [{context}]" if context else ""
    aug = _as_integer_rows(rows, rhs)

    if ncols == 0:
        if any(r[-1] != 0 for r in aug):
            raise InconsistentSystem(f"no unknowns but nonzero residual{tag}")
        return []

    # Bareiss fraction-free forward elimination; pivot for column k ends
    # up in row k, failure to find one means a free unknown.  Below the
    # pivot row, entries in and left of the pivot column are never read
    # again, so only the slice right of it is updated; a row with a zero
    # entry in the pivot column is merely rescaled by p / prev.
    prev = 1
    for col in range(ncols):
        sel = next((i for i in range(col, m) if aug[i][col] != 0), None)
        if sel is None:
            raise NonUniqueSolution(
                f"unknown #{col} is not determined by the equations{tag}"
            )
        aug[col], aug[sel] = aug[sel], aug[col]
        p = aug[col][col]
        tail = aug[col][col + 1 :]
        for row in aug[col + 1 :]:
            fi = row[col]
            if fi:
                row[col + 1 :] = [
                    (p * a - fi * t) // prev for a, t in zip(row[col + 1 :], tail)
                ]
            elif p != prev:
                row[col + 1 :] = [p * a // prev for a in row[col + 1 :]]
        prev = p

    for i in range(ncols, m):
        if aug[i][ncols] != 0:
            raise InconsistentSystem(f"equations are mutually inconsistent{tag}")

    # Fraction-free back substitution: X[k] = D * x[k] is an integer by
    # Cramer's rule, D being the determinant of the pivot rows.
    d = prev
    num = [0] * ncols
    for col in range(ncols - 1, -1, -1):
        row = aug[col]
        acc = d * row[ncols] - sum(map(mul, row[col + 1 : ncols], num[col + 1 :]))
        num[col], rem = divmod(acc, row[col])
        if rem:
            raise InconsistentSystem(f"back substitution is not exact{tag}")

    # Verify every original equation exactly: sum_j a_ij X_j == b_i D.
    for row, b in zip(rows, rhs):
        if sum(map(mul, row, num)) != b * d:
            raise InconsistentSystem(f"residual check failed{tag}")
    return [Fraction(x, d) for x in num]


def solve_integer(
    rows: Sequence[Sequence], rhs: Sequence, context: str = ""
) -> list[int]:
    """exact_solve plus the demand that every entry clears to an integer."""
    sol = exact_solve(rows, rhs, context)
    tag = f" [{context}]" if context else ""
    for k, x in enumerate(sol):
        if x.denominator != 1:
            raise NonIntegerSolution(f"unknown #{k} solves to {x}, not an integer{tag}")
    return [int(x) for x in sol]
