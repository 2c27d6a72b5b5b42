"""Independent oracles used to validate the fast paths.

The Schur oracles touch none of the package's Littlewood-Richardson code:
Schur polynomials are expanded monomial by monomial from column-strict
tableaux, products are multiplied as raw polynomials, and the result is
re-expanded in the Schur basis by leading-term subtraction.

`box_minus_tableaux` is the hook-length count that integrals of
sigma_lam * sigma_1^k must reproduce on boxes too large for the Schur oracle.

`q_poly_schubert` computes the Chern numbers behind the determinantal q
polynomials by Schubert calculus on G(r, n): Littlewood-Richardson products
and the splitting-principle tensor product below, both checked against the
Schur oracle.  It is an independent route to the integral that
`detvar._chern_numbers` localizes.  The bundle calculus (Chern classes of
the tautological bundles, their duals, sums, powers and tensor products)
lives here because nothing in the package needs it, and so do the linear
combinations of Chow-ring classes it is built from (`combine`) and the
partition helpers of the tests (`partitions_in_box`, `conjugate`,
`box_complement`).

`chern_numbers_all_points` is a second oracle for the same numbers: the
localization that `detvar` used before it visited one fixed point of each
mirror pair, with weights t_k = k at every one of the C(n, r) fixed points.

`milnor_class_binomial` is the closed double-binomial form of a quadric's
Milnor class, an independent route to the division mu * csm(S)/(1+2H) of
`quadric.milnor_class`; `chern_mather_quadric` is the closed form of a
quadric's Chern-Mather class that the solved Euler table must reproduce.

`report_json` and `report_line` render a report value with the standard
library's JSON encoder, after `stringify_big` has turned it into plain JSON
values: the two texts the CLI's one-pass renderer must match byte for byte.

`reference_parser` builds the command-line parser with all five subcommands
by hand, apart from the CLI's option table: the parses, help texts and
errors that the CLI's parser and its plain reader must reproduce.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, lcm, prod
from operator import mul

from chernmather import cli
from chernmather.classpoly import ClassPoly, one_plus_h_power
from chernmather.detvar import _linear_product, _power
from chernmather.grassmann import (
    ChowElement,
    fits_box,
    integrate,
    lr_multiply,
    normalize_partition,
)
from chernmather.quadric import QuadricSpec, csm_quadric, csm_singular_locus


def partitions_in_box(rows: int, cols: int):
    """All partitions with at most `rows` parts, each at most `cols`."""
    return map(normalize_partition, combinations_with_replacement(range(cols, -1, -1), rows))


def conjugate(p) -> tuple[int, ...]:
    return tuple(sum(1 for q in p if q > i) for i in range(p[0] if p else 0))


def box_complement(p, rows: int, cols: int) -> tuple[int, ...]:
    """The 180-degree rotated complement of p inside the rows x cols box."""
    padded = list(p) + [0] * (rows - len(p))
    return normalize_partition([cols - q for q in reversed(padded)])


def combine(r: int, n: int, *terms: tuple[int, ChowElement]) -> ChowElement:
    """The class sum of coeff * element over the (coeff, element) terms."""
    out: dict[tuple[int, ...], int] = {}
    for coeff, elem in terms:
        for p, c in elem.terms.items():
            out[p] = out.get(p, 0) + coeff * c
    return ChowElement(r, n, out)


@lru_cache(maxsize=None)
def schur_monomials(lam: tuple[int, ...], nvars: int) -> dict:
    """Schur polynomial s_lam(x_1..x_nvars) as {exponent tuple: coeff},
    generated from column-strict tableaux of shape lam."""
    if len(lam) > nvars:
        return {}
    if not lam:
        return {(0,) * nvars: 1}

    cells = [(i, j) for i in range(len(lam)) for j in range(lam[i])]
    grid: dict[tuple[int, int], int] = {}
    out: dict[tuple[int, ...], int] = {}

    def fill(idx: int) -> None:
        if idx == len(cells):
            expo = [0] * nvars
            for v in grid.values():
                expo[v - 1] += 1
            key = tuple(expo)
            out[key] = out.get(key, 0) + 1
            return
        i, j = cells[idx]
        lo = grid.get((i, j - 1), 1)  # row weakly increasing
        above = grid.get((i - 1, j))
        if above is not None:
            lo = max(lo, above + 1)  # column strictly increasing
        for v in range(lo, nvars + 1):
            grid[(i, j)] = v
            fill(idx + 1)
            del grid[(i, j)]

    fill(0)
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            acc = out.get(key, 0) + ca * cb
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return out


def schur_expand(poly: dict, nvars: int) -> dict:
    """Expand a symmetric polynomial in the Schur basis by repeatedly
    subtracting the Schur polynomial of the lex-leading exponent."""
    poly = {k: v for k, v in poly.items() if v}
    out: dict[tuple[int, ...], int] = {}
    while poly:
        lead = max(poly)
        coeff = poly[lead]
        lam = tuple(sorted(lead, reverse=True))
        if list(lam) != list(lead):
            raise AssertionError(f"input is not symmetric: leading term {lead}")
        lam = tuple(p for p in lam if p)
        out[lam] = coeff
        for expo, c in schur_monomials(lam, nvars).items():
            acc = poly.get(expo, 0) - coeff * c
            if acc:
                poly[expo] = acc
            else:
                poly.pop(expo, None)
    return out


def schur_product_in_box(
    lam: tuple[int, ...], mu: tuple[int, ...], rows: int, cols: int
) -> dict:
    """sigma_lam * sigma_mu in the Chow ring of G(rows, rows+cols), computed
    with Schur polynomials in `rows` variables (partitions with more rows
    vanish there) and the wide partitions dropped afterwards."""
    nvars = rows
    if nvars == 0:
        return {(): 1} if not lam and not mu else {}
    prod = poly_mul(schur_monomials(lam, nvars), schur_monomials(mu, nvars))
    expanded = schur_expand(prod, nvars)
    return {p: c for p, c in expanded.items() if not p or p[0] <= cols}


def count_partitions_in_box(rows: int, cols: int) -> int:
    def rec(bound: int, slots: int) -> int:
        if slots == 0:
            return 1
        return sum(rec(b, slots - 1) for b in range(bound, 0, -1)) + 1

    if rows == 0 or cols == 0:
        return 1
    return rec(cols, rows)


def box_minus_tableaux(lam: tuple[int, ...], rows: int, cols: int) -> int:
    """Standard Young tableaux of the skew shape (rows x cols box) / lam.

    Turned by 180 degrees the skew shape is the straight shape with rows
    cols - lam[rows-1], ..., cols - lam[0], and the hook-length formula
    counts its tableaux.  This is the integral of sigma_lam * sigma_1^k on
    G(rows, rows+cols) with k = rows*cols - |lam|.
    """
    shape = box_complement(lam, rows, cols)
    hooks = 1
    for i, length in enumerate(shape):
        for j in range(length):
            below = sum(1 for other in shape[i + 1:] if other > j)
            hooks *= length - j + below
    return factorial(sum(shape)) // hooks


def q_poly_schubert(n: int, r: int) -> tuple[list[list[int]], ClassPoly]:
    """The Chern numbers M[a][b] of `detvar` on G(r, n), and q_{n,r} from them.

    M[a][b] = integral of c_(D-a-b)(S^v tensor Q) c_b((Q^v)^n) c_a((S^v)^n)
    is integrated by Littlewood-Richardson products.  q is summed modulo
    H^(n^2+1), so the d^(n^2) term is checked to cancel, not truncated away.
    """
    top = r * (n - r)
    tangent = chern_tensor(taut_sub_dual(r, n), taut_quot(r, n)).classes
    c_quot = chern_power(chern_dual(taut_quot(r, n)), n).classes
    c_sub = chern_power(taut_sub_dual(r, n), n).classes
    numbers = [
        [
            integrate(lr_multiply(lr_multiply(tangent[top - a - b], c_quot[b]), c_sub[a]))
            for b in range(top + 1 - a)
        ]
        for a in range(top + 1)
    ]
    mod = n * n + 1
    q = ClassPoly.monomial(n * n, mod, -comb(n, r))
    for a, row in enumerate(numbers):
        for b, m in enumerate(row):
            shift = ClassPoly.monomial(n * r - a, mod, m)
            q = q + shift * one_plus_h_power(n * (n - r) - b, mod)
    if q.coeffs[n * n]:
        raise ArithmeticError(f"top-degree terms failed to cancel for q_({n},{r})")
    return numbers, ClassPoly(q.coeffs[: n * n], n * n)


def milnor_class_binomial(n: int, r: int) -> ClassPoly:
    """Milnor class of the rank-r quadric in P^n, 3 <= r <= n: the
    coefficient of H^(k+r) is (-1)^(n+r) * sum_j C(n-r+1, k-j) * (-2)^j."""
    mu = (-1) ** (n + r)
    row = [comb(n - r + 1, i) for i in range(n - r + 1)]
    pows = [(-2) ** j for j in range(n - r + 1)]
    coeffs = [0] * (n + 1)
    for k in range(n - r + 1):
        coeffs[k + r] = mu * sum(map(mul, reversed(row[: k + 1]), pows))
    return ClassPoly(coeffs, n + 1)


def chern_mather_quadric(spec: QuadricSpec) -> ClassPoly:
    """Chern-Mather class of a quadric: the open part weighted 1 and the
    singular locus weighted by its Euler obstruction (-1)^r + 1."""
    if spec.is_smooth:
        return csm_quadric(spec)
    sing = csm_singular_locus(spec)
    return (csm_quadric(spec) - sing) + ((-1) ** spec.r + 1) * sing


def chern_numbers_all_points(n: int, r: int) -> list[list[int]]:
    """M[a][b] for a + b <= D, by localization at all C(n, r) fixed points
    with torus weights t_k = k."""
    top = r * (n - r)
    # The torus weights are t_k = k, so every weight below is an index.
    points = []
    for sub in combinations(range(n), r):
        quot = [j for j in range(n) if j not in sub]
        tangent = [j - i for i in sub for j in quot]
        points.append((sub, quot, tangent, prod(tangent)))
    denom = lcm(*(abs(e) for _, _, _, e in points))
    num = [[0] * (top + 1 - a) for a in range(top + 1)]
    for sub, quot, tangent, euler in points:
        c_tan = _linear_product(tangent, top)
        c_quot = _power(_linear_product([-j for j in quot], n - r), n, top)
        c_sub = _power(_linear_product([-i for i in sub], r), n, top)
        scale = denom // euler
        for a, row in enumerate(num):
            sa = scale * c_sub[a]
            if sa:
                for b in range(len(row)):
                    row[b] += sa * c_quot[b] * c_tan[top - a - b]
    for a, row in enumerate(num):
        for b, v in enumerate(row):
            row[b], rem = divmod(v, denom)
            if rem:
                raise ArithmeticError(
                    f"Chern number M[{a}][{b}] of G({r},{n}) is not an integer"
                )
    return num


# ---------------------------------------------------------------------------
# Chern classes of bundles on G(r, n), for the oracle above.


@dataclass(frozen=True)
class BundleChern:
    """Total Chern class of a bundle: c_0 .. c_rank, c_0 = 1."""

    rank: int
    classes: tuple[ChowElement, ...]

    def __post_init__(self):
        if len(self.classes) != self.rank + 1:
            raise ValueError("need exactly rank+1 Chern classes")
        if self.classes[0] != ChowElement.one(*self._ring()):
            raise ValueError("c_0 must be 1")
        for k, c in enumerate(self.classes):
            if any(sum(p) != k for p in c.terms):
                raise ValueError(f"c_{k} is not of pure degree {k}")

    def _ring(self) -> tuple[int, int]:
        return self.classes[0].r, self.classes[0].n

    def total(self) -> ChowElement:
        return combine(*self._ring(), *((1, c) for c in self.classes))


def taut_sub(r: int, n: int) -> BundleChern:
    """The rank-r tautological subbundle S: dual of the bundle with
    c_k = sigma_(1^k)."""
    return chern_dual(taut_sub_dual(r, n))


def taut_sub_dual(r: int, n: int) -> BundleChern:
    """S^vee, with c_k = sigma_(1^k) (zero once the partition leaves the box)."""
    classes = []
    for k in range(r + 1):
        p = (1,) * k
        if fits_box(p, r, n - r):
            classes.append(ChowElement.sigma(p, r, n))
        else:
            classes.append(ChowElement(r, n))
    return BundleChern(r, tuple(classes))


def taut_quot(r: int, n: int) -> BundleChern:
    """The rank-(n-r) tautological quotient Q, with c_k = sigma_(k)."""
    classes = []
    for k in range(n - r + 1):
        p = (k,) if k else ()
        if fits_box(p, r, n - r):
            classes.append(ChowElement.sigma(p, r, n))
        else:
            classes.append(ChowElement(r, n))
    return BundleChern(n - r, tuple(classes))


def chern_dual(b: BundleChern) -> BundleChern:
    """c_k(E^vee) = (-1)^k c_k(E)."""
    return BundleChern(
        b.rank,
        tuple(combine(*b._ring(), ((-1) ** k, c)) for k, c in enumerate(b.classes)),
    )


def chern_sum(b1: BundleChern, b2: BundleChern) -> BundleChern:
    """Whitney formula for a direct sum."""
    r, n = b1._ring()
    if (r, n) != b2._ring():
        raise ValueError("bundles live on different Grassmannians")
    rank = b1.rank + b2.rank
    terms: list[list] = [[] for _ in range(rank + 1)]
    for i, ci in enumerate(b1.classes):
        if not ci.terms:
            continue
        for j, cj in enumerate(b2.classes):
            if cj.terms:
                terms[i + j].append((1, lr_multiply(ci, cj)))
    return BundleChern(rank, tuple(combine(r, n, *t) for t in terms))


def chern_power(b: BundleChern, m: int) -> BundleChern:
    """Chern classes of the m-fold direct sum of b."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    r, n = b._ring()
    out = BundleChern(0, (ChowElement.one(r, n),))
    for _ in range(m):
        out = chern_sum(out, b)
    return out


# -- tensor products via formal Chern roots ---------------------------------
#
# The scratch ring is Z[x_1..x_r1, y_1..y_r2] with polynomials stored as
# {exponent tuple: int}.  The product of (1 + x_i + y_j) over all pairs is
# symmetric in each block, so it is an integer combination of products
# e_lam(x) * e_mu(y); Gauss reduction on lex-leading monomials extracts the
# coefficients, and e_k of a factor's roots is its k-th Chern class.


def _mp_add_term(poly: dict, expo: tuple[int, ...], coeff: int) -> None:
    acc = poly.get(expo, 0) + coeff
    if acc:
        poly[expo] = acc
    else:
        poly.pop(expo, None)


def _mp_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _mp_add_term(out, tuple(i + j for i, j in zip(ea, eb)), ca * cb)
    return out


@lru_cache(maxsize=None)
def _elementary(k: int, start: int, stop: int, width: int) -> dict:
    """e_k in variables start..stop-1 of an exponent tuple of length width."""
    if k == 0:
        return {(0,) * width: 1}
    if k > stop - start:
        return {}
    out: dict[tuple[int, ...], int] = {}
    for subset in combinations(range(start, stop), k):
        expo = [0] * width
        for v in subset:
            expo[v] = 1
        out[tuple(expo)] = 1
    return out


@lru_cache(maxsize=None)
def _tensor_table(r1: int, r2: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """Universal expansion of prod (1 + x_i + y_j) as sum of e_lam(x)e_mu(y).

    Returns triples (lam, mu, coeff); substituting Chern classes for the
    elementary symmetric functions yields c(E tensor F).
    """
    width = r1 + r2
    poly: dict[tuple[int, ...], int] = {(0,) * width: 1}
    for i in range(r1):
        for j in range(r2):
            factor: dict[tuple[int, ...], int] = {(0,) * width: 1}
            ei = [0] * width
            ei[i] = 1
            factor[tuple(ei)] = 1
            ej = [0] * width
            ej[r1 + j] = 1
            factor[tuple(ej)] = 1
            poly = _mp_mul(poly, factor)

    out = []
    while poly:
        lead = max(poly)
        coeff = poly[lead]
        xpart, ypart = lead[:r1], lead[r1:]
        lam = conjugate(normalize_partition(sorted(xpart, reverse=True)))
        mu = conjugate(normalize_partition(sorted(ypart, reverse=True)))
        basis = _mp_mul(
            _eprod(lam, 0, r1, width), _eprod(mu, r1, width, width)
        )
        for expo, c in basis.items():
            _mp_add_term(poly, expo, -coeff * c)
        out.append((lam, mu, coeff))
    return tuple(out)


def _eprod(parts: tuple[int, ...], start: int, stop: int, width: int) -> dict:
    out = {(0,) * width: 1}
    for k in parts:
        out = _mp_mul(out, _elementary(k, start, stop, width))
    return out


def chern_tensor(b1: BundleChern, b2: BundleChern) -> BundleChern:
    """Chern classes of a tensor product, by the splitting principle."""
    r, n = b1._ring()
    if (r, n) != b2._ring():
        raise ValueError("bundles live on different Grassmannians")
    rank = b1.rank * b2.rank
    terms: list[list] = [[] for _ in range(rank + 1)]
    for lam, mu, coeff in _tensor_table(b1.rank, b2.rank):
        k = sum(lam) + sum(mu)
        if k > rank:
            continue
        term = ChowElement.one(r, n)
        for part in lam:
            term = lr_multiply(term, b1.classes[part])
        for part in mu:
            term = lr_multiply(term, b2.classes[part])
        terms[k].append((coeff, term))
    return BundleChern(rank, tuple(combine(r, n, *t) for t in terms))


_INT64_MAX = 2**63 - 1


def stringify_big(value):
    """Big integers become decimal strings so reports survive any JSON reader;
    tuples become lists and a ClassPoly becomes its coefficient list."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value if abs(value) <= _INT64_MAX else str(value)
    if isinstance(value, ClassPoly):
        return stringify_big(value.coeffs)
    if isinstance(value, (list, tuple)):
        return [stringify_big(v) for v in value]
    if isinstance(value, dict):
        return {k: stringify_big(v) for k, v in value.items()}
    return value


def report_json(value) -> str:
    """A report value as the `--format json` report writes it."""
    return json.dumps(stringify_big(value), sort_keys=True, indent=2)


def report_line(value) -> str:
    """A report value as one line of a `--format text` report writes it."""
    return json.dumps(stringify_big(value))


def reference_parser() -> argparse.ArgumentParser:
    """The CLI's parser with every subcommand built, whatever the command line."""
    parser = argparse.ArgumentParser(
        prog="chernmather",
        description=(
            "Exact Euler obstructions, Chern-Mather classes and related "
            "invariants of stratified projective varieties"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("involute", help="apply the degree-d duality transform")
    p_inv.set_defaults(handler=cli._cmd_involute)
    p_inv.add_argument("--d", type=int, required=True)
    p_inv.add_argument("--poly", required=True, help="comma list, ascending powers")

    p_solve = sub.add_parser("solve", help="solve a stratification file")
    p_solve.set_defaults(handler=cli._cmd_solve)
    p_solve.add_argument("strata", help="stratification JSON file")

    p_det = sub.add_parser("detvar", help="rank strata of n x n matrices")
    p_det.set_defaults(handler=cli._cmd_detvar)
    p_det.add_argument("--n", type=int, required=True)
    p_det.add_argument("--emit-strata", metavar="FILE", default=None)

    p_quad = sub.add_parser("quadric", help="rank-r quadric hypersurface in P^n")
    p_quad.set_defaults(handler=cli._cmd_quadric)
    p_quad.add_argument("--n", type=int, required=True)
    p_quad.add_argument("--rank", type=int, required=True)
    p_quad.add_argument("--emit-strata", metavar="FILE", default=None)

    p_chow = sub.add_parser("chow", help="Schubert calculus on G(r, n)")
    p_chow.set_defaults(handler=cli._cmd_chow)
    p_chow.add_argument("--r", type=int, required=True)
    p_chow.add_argument("--n", type=int, required=True)
    group = p_chow.add_mutually_exclusive_group(required=True)
    group.add_argument("--mult", nargs=2, metavar=("LAMBDA", "MU"))
    group.add_argument("--integrate", nargs="+", metavar="PARTITION")

    for p in (p_inv, p_solve, p_det, p_quad, p_chow):
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("--format", choices=("json", "text"), default="json")
    return parser
