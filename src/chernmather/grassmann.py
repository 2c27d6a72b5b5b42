"""Exact Schubert calculus on the Chow ring of the Grassmannian G(r, n).

Classes are integer combinations of Schubert classes sigma_lambda indexed
by partitions in the r x (n-r) box.  The module holds what the `chow`
command needs: Schubert classes (`ChowElement.sigma`, `ChowElement.one`),
their product and their integral over G(r, n).  Products use the
Littlewood-Richardson rule: the LR tableaux of sigma_lambda * sigma_mu are
generated strip by strip inside the box, so partitions that overflow it
never appear.  A factor of one row or one column, sigma_(k) or sigma_(1^k),
takes Pieri's rule: its product adds one horizontal or vertical strip of k
boxes, built box by box (a row strip from the first empty row up), with
the last box added where it is found, and each strip is its one LR
tableau.  One `lr_multiply` call multiplies a whole chain of factors, and
its terms stay padded to r parts from the first product to the last.
`integrate(x, ones)` is the integral of x * sigma_1^ones; it needs no
product, since the integral of sigma_lambda * sigma_1^ones counts the
standard tableaux of the skew shape box/lambda, which Frobenius' formula
gives in closed form.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import combinations
from math import factorial, prod
from operator import index, sub

# Most LR tableaux one product may generate.  Their number, not the box,
# sets the cost: on G(10, 20) the staircase products (5,4,3,2,1)^2 and
# (6,5,4,3,2,1)^2 generate 26,704 and 1,095,308 tableaux, in 0.35 s and 15 s
# as `chow` processes on a 2-core VM.  A Pieri strip is cheaper:
# (1,1)^40 * 1^20 takes 0.8 to 1.5 s there.  A sigma_1 product never reaches
# the limit (see `cli._cmd_chow`), and `chow --integrate` integrates a
# trailing run of sigma_1 factors in closed form: sigma_1^100 takes under
# 0.2 s, where its 100 products took 0.7 to 1.1 s.  The slowest accepted
# input found, (2,1)^11 * 1 * (1,1)^33, takes 1.3 to 2.0 s.
MAX_LR_TABLEAUX = 100_000


# ---------------------------------------------------------------------------
# Partitions (bare tuples, weakly decreasing, no trailing zeros).


def normalize_partition(parts: Iterable[int]) -> tuple[int, ...]:
    # index, not int: a float part raises TypeError, never truncates
    ps = list(map(index, parts))
    if any(p < 0 for p in ps):
        raise ValueError("partition parts must be nonnegative")
    if any(a < b for a, b in zip(ps, ps[1:])):
        raise ValueError(f"parts must be weakly decreasing: {ps}")
    while ps and ps[-1] == 0:
        ps.pop()
    return tuple(ps)


def fits_box(p: Sequence[int], rows: int, cols: int) -> bool:
    return len(p) <= rows and (not p or p[0] <= cols)


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
            acc = clean.get(p, 0) + index(c)
            if acc:
                clean[p] = acc
            else:
                clean.pop(p, None)
        self.terms = clean

    @classmethod
    def one(cls, r: int, n: int) -> "ChowElement":
        return cls(r, n, {(): 1})

    @classmethod
    def sigma(cls, parts, r: int, n: int) -> "ChowElement":
        return cls(r, n, {normalize_partition(parts): 1})

    def _check_ring(self, other: "ChowElement") -> None:
        if (self.r, self.n) != (other.r, other.n):
            raise ValueError(
                f"box mismatch: G({self.r},{self.n}) vs G({other.r},{other.n})"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChowElement)
            and (self.r, self.n) == (other.r, other.n)
            and self.terms == other.terms
        )


def lr_multiply(a: ChowElement, *factors: ChowElement) -> ChowElement:
    """Product a * f_1 * ... * f_m in the Chow ring, multiplied in that order;
    box-overflowing partitions vanish.

    Every factor's ring is checked before the first product, so a mismatch
    anywhere in the chain raises before any work; with no factors the
    result is a copy of a.  The terms are carried padded to `rows` parts
    from the first product to the last, the helpers below are built once
    per call, zero coefficients are dropped after each product, and
    trailing zeros are trimmed once at the end.  Each product has its own
    budget of MAX_LR_TABLEAUX tableaux.

    Each Littlewood-Richardson tableau of shape nu/lam and content mu with nu
    inside the rows x cols box adds c_lam * c_mu to nu.  The mu_i cells
    labelled i are added to the shape as a horizontal strip: new row k is at
    most old row k-1 (row 0 at most cols), so rows increase weakly and
    columns strictly.  The reverse reading word is a lattice word when,
    through each row k, there are no more i's than (i-1)'s through row k-1;
    `slack` carries the difference down the rows.  Chaining that condition,
    label i + d needs mu_(i+d) cells labelled i through row rows-1-d, so each
    strip keeps at least that many in those rows; without this floor a tall
    mu explores many fillings that no later label completes.

    A term mu of one row (k) or one column (1^k) takes Pieri's rule instead:
    sigma_lam * sigma_mu is the sum of sigma_nu over the horizontal (row) or
    vertical (column) strips nu/lam of k boxes inside the box.  Such a strip
    has exactly one LR tableau, all 1s in a row or 1..k down a column, so
    `add` runs once per strip and the budget counts what the LR search
    counts.  `row` and `column` add one box at a time at an addable corner,
    nu_j < nu_(j-1) (nu_0 < cols), and each strip arises from exactly one
    sequence of boxes.  A horizontal strip is built bottom-up, in rows weakly
    decreasing: row j grows while row j-1 still holds lam_(j-1), which keeps
    nu_j <= lam_(j-1).  Its root call starts at the first empty row of lam
    (the last row of a full-height lam): no row below it is addable, and
    the cut-off there reads as it does in that row.  A vertical strip is
    built top-down, in rows strictly increasing, one box a row.  Cut-offs:
    rows 0..j, of which only row j has grown, take at most cols - nu_j more
    boxes of a horizontal strip (the room lam_(i-1) - nu_i of each row
    telescopes), and rows j.. take at most rows - j boxes of a vertical
    one.  So every call below the root finishes at least one strip: the
    horizontal room is exact, and after a box in row j-1, row j is addable
    and so is each row after it.  The loop that places a strip's last box
    calls `add` in place, so a call has 0..k-1 boxes placed and is one
    partial strip: a product with s strips makes at most (k-1) s calls below
    the roots, and one with none makes only the roots.
    """
    for b in factors:
        a._check_ring(b)
    rows, cols = a.r, a.n - a.r
    zero = (0,) * rows
    terms = {lam + zero[len(lam):]: c for lam, c in a.terms.items()}  # padded

    def add(nu):
        nonlocal budget
        out[nu] = out.get(nu, 0) + coeff
        budget -= 1
        if budget < 0:
            raise ValueError(
                f"the product needs more than {MAX_LR_TABLEAUX} "
                "Littlewood-Richardson tableaux"
            )

    def strip(i, k, left, slack, old, new, prev):
        # old: shape before label i; new: its rows 0..k-1 after label i;
        # prev: the number of (i-1)'s in each row.
        if left == 0:
            nu = new + old[k:]
            if i == last:
                add(nu)
            else:
                strip(i + 1, 0, mu[i + 1], 0, nu, (), tuple(map(sub, nu, old)))
            return
        top = old[k - 1] if k else cols
        if left > top - old[-1]:
            return  # rows k.. cannot take `left` more cells
        least = floor[i + rows - 1 - k] - mu[i] + left
        for a in range(least if least > 0 else 0, min(left, slack, top - old[k]) + 1):
            strip(i, k + 1, left - a, slack - a + prev[k], old, new + (old[k] + a,), prev)

    def row(nu, lowest, left):
        # Pieri for mu = (k): rows above `lowest` still hold lam, and the
        # next of the `left` boxes goes to row `lowest` or above.
        for k in range(lowest, -1, -1):
            if left > cols - nu[k]:
                return  # rows 0..k take at most cols - nu[k] more boxes
            if nu[k] < (nu[k - 1] if k else cols):
                nu[k] += 1
                if left > 1:
                    row(nu, k, left - 1)
                else:
                    add(tuple(nu))
                nu[k] -= 1

    def column(nu, first, left):
        # Pieri for mu = (1^k): rows first.. still hold lam, and the next
        # of the `left` boxes goes to row `first` or below.
        for k in range(first, rows - left + 1):  # one box a row at most
            if nu[k] < (nu[k - 1] if k else cols):
                nu[k] += 1
                if left > 1:
                    column(nu, k + 1, left - 1)
                else:
                    add(tuple(nu))
                nu[k] -= 1

    for b in factors:
        out: dict[tuple[int, ...], int] = {}  # nu padded to `rows` parts
        budget = MAX_LR_TABLEAUX
        for mu, cb in b.terms.items():
            floor = mu + (0,) * (2 * rows)  # mu_j, and 0 past the last label
            last = len(mu) - 1
            for nu, ca in terms.items():
                coeff = ca * cb
                if not mu:
                    add(nu)
                elif len(mu) == 1:
                    row(list(nu), min(rows - nu.count(0), rows - 1), mu[0])
                elif mu[0] == 1:
                    column(list(nu), 0, len(mu))
                else:
                    strip(0, 0, mu[0], mu[0], nu, (), zero)
        terms = {nu: c for nu, c in out.items() if c}
    # every nu is inside the box: skip the constructor's checks
    prod = ChowElement(a.r, a.n)
    prod.terms = {nu[: rows - nu.count(0)]: c for nu, c in terms.items()}
    return prod


def integrate(x: ChowElement, ones: int = 0) -> int:
    """Integral of x * sigma_1^ones over G(r, n): the sum of c_lam * f(lam)
    over the terms c_lam sigma_lam of x with |lam| = dim - ones, where f(lam)
    counts the standard tableaux of the skew shape box/lam.  Other terms
    integrate to 0 by degree.

    Turned by 180 degrees, box/lam is the straight shape with parts
    cols - lam_j, read from the last of the r parts of lam (zero parts
    included) to the first.  Frobenius' formula counts its tableaux: with
    l_j = cols + j - lam_j for j = 0..r-1, strictly increasing,
        f(lam) = ones! * prod_(i<j) (l_j - l_i) / prod_j l_j!.
    The quotient is checked to be exact.  With ones = 0 only the full box
    has the right degree, and f of it is 1: the integral is the coefficient
    of the full-box class.
    """
    ones = index(ones)
    if ones < 0:
        raise ValueError(f"sigma_1 cannot be raised to the power {ones}")
    rows, cols = x.r, x.n - x.r
    total = 0
    for lam, c in x.terms.items():
        if sum(lam) + ones != rows * cols:
            continue
        ls = [cols + j - p for j, p in enumerate(lam + (0,) * (rows - len(lam)))]
        count, rest = divmod(
            factorial(ones) * prod(b - a for a, b in combinations(ls, 2)),
            prod(map(factorial, ls)),
        )
        if rest:
            raise ArithmeticError(
                f"the tableaux of the {rows}x{cols} box minus {lam} "
                "are not a whole number"
            )
        total += c * count
    return total
