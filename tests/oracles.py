"""Independent oracles used to validate the fast paths.

The Schur oracles touch none of the package's Littlewood-Richardson code:
Schur polynomials are expanded monomial by monomial from column-strict
tableaux, products are multiplied as raw polynomials, and the result is
re-expanded in the Schur basis by leading-term subtraction.

`q_poly_schubert` computes the determinantal q polynomials by Schubert
calculus on G(r, n) (Littlewood-Richardson products and the splitting-
principle tensor product, both checked against the Schur oracle), an
independent route to the integral that `detvar.q_poly` localizes.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from chernmather.classpoly import ClassPoly
from chernmather.grassmann import (
    BundleChern,
    ChowElement,
    IntPoly,
    chern_dual,
    chern_power,
    chern_tensor,
    integrate,
    taut_quot,
    taut_sub_dual,
)


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


def _weighted_total(bundle: BundleChern, weights: list[IntPoly]) -> ChowElement:
    """sum_k weights[k] * c_k(bundle)."""
    r, n = bundle.classes[0].r, bundle.classes[0].n
    out = ChowElement.zero(r, n)
    for w, c in zip(weights, bundle.classes):
        out = out + c.scale(w)
    return out


def q_poly_schubert(n: int, r: int) -> ClassPoly:
    """q_{n,r} with d symbolic, integrated in the Chow ring of G(r, n)."""
    d = IntPoly.var()
    s_dual_n = chern_power(taut_sub_dual(r, n), n)
    q_dual_n = chern_power(chern_dual(taut_quot(r, n)), n)
    tangent = chern_tensor(taut_sub_dual(r, n), taut_quot(r, n)).total()

    a = n * (n - r)
    f1 = _weighted_total(q_dual_n, [(1 + d) ** (a - k) for k in range(a + 1)])
    b = n * r
    f2 = _weighted_total(s_dual_n, [d ** (b - k) for k in range(b + 1)])

    total = integrate(tangent * f1 * f2)
    if isinstance(total, int):
        total = IntPoly.const(total)
    q = total - IntPoly.monomial(n * n, comb(n, r))
    if q.degree >= n * n:
        raise ArithmeticError(f"top-degree terms failed to cancel for q_({n},{r})")
    return ClassPoly([q.coeff(k) for k in range(n * n)], n * n)
