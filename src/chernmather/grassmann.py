"""Exact Schubert calculus on the Chow ring of the Grassmannian G(r, n).

Classes are integer combinations of Schubert classes sigma_lambda indexed
by partitions in the r x (n-r) box.  Products use the Littlewood-Richardson
rule: the LR tableaux of sigma_lambda * sigma_mu are generated strip by
strip inside the box, so partitions that overflow it never appear.
This is the engine of the `chow` command.
"""

from __future__ import annotations

from itertools import product as iproduct
from typing import Iterable, Iterator, Sequence

# Most LR tableaux one product may generate.  Their number, not the box,
# sets the cost: on G(10, 20) the staircase products (5,4,3,2,1)^2 and
# (6,5,4,3,2,1)^2 generate 26,704 and 1,095,308 tableaux, in 0.4 s and 19 s
# on a 2-core VM.  sigma_1^100 needs at most 28,618 per product, and the
# slowest accepted input found, (1,1)^40 * 1^20, takes about 16 s.
MAX_LR_TABLEAUX = 100_000


# ---------------------------------------------------------------------------
# Partitions (bare tuples, weakly decreasing, no trailing zeros).


def normalize_partition(parts: Iterable[int]) -> tuple[int, ...]:
    ps = [int(p) for p in parts]
    if any(p < 0 for p in ps):
        raise ValueError("partition parts must be nonnegative")
    if any(a < b for a, b in zip(ps, ps[1:])):
        raise ValueError(f"parts must be weakly decreasing: {ps}")
    while ps and ps[-1] == 0:
        ps.pop()
    return tuple(ps)


def fits_box(p: Sequence[int], rows: int, cols: int) -> bool:
    return len(p) <= rows and (not p or p[0] <= cols)


def partitions_in_box(rows: int, cols: int) -> Iterator[tuple[int, ...]]:
    """All partitions with at most `rows` parts, each at most `cols`."""
    if rows == 0 or cols == 0:
        yield ()
        return

    def rec(prefix, bound):
        yield tuple(prefix)
        if len(prefix) == rows:
            return
        for part in range(bound, 0, -1):
            prefix.append(part)
            yield from rec(prefix, part)
            prefix.pop()

    yield from rec([], cols)


def conjugate(p: Sequence[int]) -> tuple[int, ...]:
    if not p:
        return ()
    return tuple(sum(1 for q in p if q > i) for i in range(p[0]))


def box_complement(p: Sequence[int], rows: int, cols: int) -> tuple[int, ...]:
    """The 180-degree rotated complement of p inside the rows x cols box."""
    padded = list(p) + [0] * (rows - len(p))
    return normalize_partition([cols - padded[rows - 1 - i] for i in range(rows)])


def _lr_tableaux(
    lam: tuple[int, ...], mu: tuple[int, ...], rows: int, cols: int
) -> Iterator[tuple[int, ...]]:
    """Yield nu once for every Littlewood-Richardson tableau of shape nu/lam
    and content mu with nu inside the rows x cols box.

    The mu_i cells labelled i are added to the shape as a horizontal strip:
    new row k is at most old row k-1 (row 0 at most cols), so rows increase
    weakly and columns strictly.  The reverse reading word is a lattice word
    when, through each row k, there are no more i's than (i-1)'s through row
    k-1; `slack` carries the difference down the rows.  Chaining that
    condition, label i + d needs mu_(i+d) cells labelled i through row
    rows-1-d, so each strip keeps at least that many in those rows; without
    this floor a tall mu explores many fillings that no later label completes.
    """
    if not fits_box(lam, rows, cols) or len(mu) > rows:
        return
    if not mu:
        yield lam
        return

    def strip(i, k, left, slack, old, new, prev):
        # old: shape before label i; new: its rows 0..k-1 after label i;
        # prev: the number of (i-1)'s in each row.
        if left == 0:
            nu = new + old[k:]
            if i + 1 == len(mu):
                yield tuple(p for p in nu if p)
            else:
                added = tuple(a - b for a, b in zip(nu, old))
                yield from strip(i + 1, 0, mu[i + 1], 0, nu, (), added)
            return
        top = old[k - 1] if k else cols
        if left > top - old[-1]:
            return  # rows k.. cannot take `left` more cells
        least = floor[i + rows - 1 - k] - mu[i] + left
        for a in range(least if least > 0 else 0, min(left, slack, top - old[k]) + 1):
            yield from strip(
                i, k + 1, left - a, slack - a + prev[k], old, new + (old[k] + a,), prev
            )

    floor = tuple(mu) + (0,) * (2 * rows)  # mu_j, and 0 past the last label
    shape = tuple(lam) + (0,) * (rows - len(lam))
    yield from strip(0, 0, mu[0], mu[0], shape, (), (0,) * rows)


def lr_coefficient(
    lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]
) -> int:
    """Littlewood-Richardson coefficient c^nu_{lam, mu}: the number of LR
    tableaux of shape nu/lam and content mu, counted inside nu's own box."""
    rows, cols = len(nu), nu[0] if nu else 0
    return sum(1 for p in _lr_tableaux(lam, mu, rows, cols) if p == nu)


# ---------------------------------------------------------------------------
# The Chow ring.


class ChowElement:
    """Formal combination of Schubert classes in a fixed r x (n-r) box."""

    __slots__ = ("r", "n", "terms")

    def __init__(self, r: int, n: int, terms: dict | None = None):
        if not 0 <= r <= n:
            raise ValueError(f"G({r}, {n}) is not a Grassmannian")
        self.r = r
        self.n = n
        clean: dict[tuple[int, ...], int] = {}
        for p, c in (terms or {}).items():
            p = normalize_partition(p)
            if not fits_box(p, r, n - r):
                raise ValueError(f"partition {p} does not fit the {r}x{n - r} box")
            acc = clean.get(p, 0) + c
            if acc:
                clean[p] = acc
            else:
                clean.pop(p, None)
        self.terms = clean

    @classmethod
    def zero(cls, r: int, n: int) -> "ChowElement":
        return cls(r, n)

    @classmethod
    def one(cls, r: int, n: int) -> "ChowElement":
        return cls(r, n, {(): 1})

    @classmethod
    def sigma(cls, parts, r: int, n: int, coeff: int = 1) -> "ChowElement":
        return cls(r, n, {normalize_partition(parts): coeff})

    def _check_ring(self, other: "ChowElement") -> None:
        if (self.r, self.n) != (other.r, other.n):
            raise ValueError(
                f"box mismatch: G({self.r},{self.n}) vs G({other.r},{other.n})"
            )

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ChowElement") -> "ChowElement":
        if not isinstance(other, ChowElement):
            return NotImplemented
        self._check_ring(other)
        terms = dict(self.terms)
        for p, c in other.terms.items():
            acc = terms.get(p, 0) + c
            if acc:
                terms[p] = acc
            else:
                terms.pop(p, None)
        return ChowElement(self.r, self.n, terms)

    def __neg__(self) -> "ChowElement":
        return ChowElement(self.r, self.n, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other: "ChowElement") -> "ChowElement":
        if not isinstance(other, ChowElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c: int) -> "ChowElement":
        if c == 0:
            return ChowElement.zero(self.r, self.n)
        return ChowElement(self.r, self.n, {p: c * v for p, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, ChowElement):
            return lr_multiply(self, other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChowElement)
            and (self.r, self.n) == (other.r, other.n)
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "ChowElement(0)"
        bits = []
        for p in sorted(self.terms, key=lambda q: (sum(q), q)):
            bits.append(f"{self.terms[p]!r}*sigma{p}")
        return "ChowElement(" + " + ".join(bits) + ")"


def lr_multiply(a: ChowElement, b: ChowElement) -> ChowElement:
    """Product in the Chow ring; box-overflowing partitions vanish."""
    a._check_ring(b)
    r, n = a.r, a.n
    out: dict[tuple[int, ...], int] = {}
    budget = MAX_LR_TABLEAUX
    for (lam, ca), (mu, cb) in iproduct(a.terms.items(), b.terms.items()):
        for nu in _lr_tableaux(lam, mu, r, n - r):
            out[nu] = out.get(nu, 0) + ca * cb
            budget -= 1
            if budget < 0:
                raise ValueError(
                    f"the product needs more than {MAX_LR_TABLEAUX} "
                    "Littlewood-Richardson tableaux"
                )
    # every nu is normalized and inside the box: skip the constructor's checks
    prod = ChowElement(r, n)
    prod.terms = {nu: c for nu, c in out.items() if c}
    return prod


def integrate(x: ChowElement) -> int:
    """Coefficient of the full-box class; all other classes integrate to 0."""
    full = tuple([x.n - x.r] * x.r) if x.r and x.n - x.r else ()
    return x.terms.get(normalize_partition(full), 0)
