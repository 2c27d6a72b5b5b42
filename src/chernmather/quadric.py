"""Closed-form invariants of quadric hypersurfaces of given rank.

A quadric X in P^n cut out by a symmetric (n+1) x (n+1) matrix of rank r
is smooth iff r = n+1; otherwise its singular locus S is the linear space
P^(n-r), the dual variety is a smooth quadric inside a linear P^(r-1), and
everything below is an exact polynomial identity mod H^(n+1):

  * class polynomial of X:  2H*B_n/(1+2H) - (-1)^(n-1) * mu * csm(S)/(1+2H)
    with B_n = (1+H)^(n+1) - H^(n+1) and mu = (-1)^(n+r);
  * Milnor class: mu * csm(S)/(1+2H), also given by an explicit double
    binomial sum;
  * local Euler obstruction along S: (-1)^r + 1, Milnor number mu, Euler
    characteristic of the complex link of the cone at the origin: -2.

Ranks 1 and 2 are rejected: a rank-1 quadric is a doubled hyperplane whose
reduced structure is smooth, a rank-2 quadric is two hyperplanes meeting
transversely, and the closed forms here presuppose rank >= 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import mul

from .classpoly import (
    ClassPoly,
    chern_B,
    csm_linear_space,
    div_1p2H,
    one_plus_h_power,
)
from .strata import EulerTable, StratifiedPair, Stratum, euler_table


@dataclass(frozen=True)
class QuadricSpec:
    """Ambient projective dimension n and matrix rank r; only these matter."""

    n: int
    r: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need ambient dimension n >= 2")
        if self.r == 1:
            raise ValueError(
                "rank 1: the quadric is a doubled hyperplane, its reduced "
                "structure is a smooth linear space; need rank >= 3"
            )
        if self.r == 2:
            raise ValueError(
                "rank 2: the quadric is two hyperplanes meeting transversely "
                "in a linear space; need rank >= 3"
            )
        if not 3 <= self.r <= self.n + 1:
            raise ValueError(
                f"rank must satisfy 3 <= r <= n+1, got r={self.r}, n={self.n}"
            )

    @property
    def modulus(self) -> int:
        return self.n + 1

    @property
    def is_smooth(self) -> bool:
        return self.r == self.n + 1


def milnor_number(spec: QuadricSpec) -> int:
    """Milnor number at any point of the singular locus: (-1)^(n+r)."""
    if spec.is_smooth:
        raise ValueError("a smooth quadric has no singular points")
    return (-1) ** (spec.n + spec.r)


def complex_link_chi() -> int:
    """Euler characteristic of the complex link of the affine cone at the
    origin; constant -2 across the whole rank >= 3 family."""
    return -2


def csm_singular_locus(spec: QuadricSpec) -> ClassPoly:
    """Pushforward class of the singular locus, a linear P^(n-r) in P^n."""
    if spec.is_smooth:
        raise ValueError("a smooth quadric has no singular locus")
    return csm_linear_space(spec.n - spec.r, spec.modulus)


def csm_quadric(spec: QuadricSpec) -> ClassPoly:
    """Class polynomial of the rank-r quadric in P^n."""
    n = spec.n
    smooth = div_1p2H(2 * ClassPoly.monomial(1, spec.modulus) * chern_B(n, spec.modulus))
    if spec.is_smooth:
        return smooth
    mu = milnor_number(spec)
    correction = div_1p2H(csm_singular_locus(spec))
    sign = (-1) ** (n - 1) * mu
    return smooth - sign * correction


def milnor_class(spec: QuadricSpec) -> ClassPoly:
    """Milnor class, by the closed double-binomial form; cross-checked
    against the division route mu * csm(S)/(1+2H)."""
    if spec.is_smooth:
        return ClassPoly.zero(spec.modulus)
    n, r = spec.n, spec.r
    mu = milnor_number(spec)
    # coefficient of H^(k+r): mu * sum_j C(n-r+1, k-j) * (-2)^j
    row = [comb(n - r + 1, i) for i in range(n - r + 1)]
    pows = [(-2) ** j for j in range(n - r + 1)]
    coeffs = [0] * spec.modulus
    for k in range(n - r + 1):
        coeffs[k + r] = mu * sum(map(mul, reversed(row[: k + 1]), pows))
    closed = ClassPoly(coeffs, spec.modulus)
    division = mu * div_1p2H(csm_singular_locus(spec))
    if closed != division:
        raise ArithmeticError(
            f"Milnor class routes disagree for n={n}, r={r}"
        )
    return closed


def eu_values(spec: QuadricSpec) -> tuple[int, int | None]:
    """(obstruction at generic points, obstruction along the singular locus);
    the second entry is None for a smooth quadric."""
    if spec.is_smooth:
        return (1, None)
    return (1, (-1) ** spec.r + 1)


def dual_cm_classes(spec: QuadricSpec) -> tuple[ClassPoly, ClassPoly | None]:
    """Chern-Mather classes of the dual quadric and of the dual of the
    singular locus, pushed to the ambient P^n.

    The dual of X is a smooth quadric in a linear P^(r-1), the dual of S is
    a linear P^(r-1); for a smooth quadric (r = n+1) the second entry is
    None and the first is the quadric's own class.
    """
    n, r, mod = spec.n, spec.r, spec.modulus
    x_dual = div_1p2H(
        2 * ClassPoly.monomial(n - r + 2, mod) * one_plus_h_power(r, mod)
    )
    if spec.is_smooth:
        return (x_dual, None)
    s_dual = ClassPoly.monomial(n - r + 1, mod) * one_plus_h_power(r, mod)
    return (x_dual, s_dual)


def chern_mather_quadric(spec: QuadricSpec) -> ClassPoly:
    """Chern-Mather class of X: the obstruction-weighted sum of the open
    part and the singular locus."""
    if spec.is_smooth:
        return csm_quadric(spec)
    e = eu_values(spec)[1]
    sing = csm_singular_locus(spec)
    return (csm_quadric(spec) - sing) + e * sing


def build_pair(spec: QuadricSpec) -> StratifiedPair:
    """Solver input: {open part, singular locus} against the dual quadric.

    For a smooth quadric the pair degenerates to one self-paired stratum.
    """
    mod = spec.modulus
    x_dual, _ = dual_cm_classes(spec)
    dual = [Stratum("dual_quadric", x_dual, spec.r - 2)]
    if spec.is_smooth:
        primal = [Stratum("quadric", csm_quadric(spec), spec.n - 1)]
    else:
        sing = csm_singular_locus(spec)
        primal = [
            Stratum("quadric_open", csm_quadric(spec) - sing, spec.n - 1),
            Stratum("singular_locus", sing, spec.n - spec.r),
        ]
    return StratifiedPair(mod, primal, dual, [(0, 0)])


def cross_validate(spec: QuadricSpec) -> EulerTable:
    """Run the strata solver on the quadric pair and check that it returns
    the closed-form obstruction (-1)^r + 1 along the singular locus."""
    if spec.is_smooth:
        raise ValueError("cross-validation needs a singular quadric (r <= n)")
    table = euler_table(build_pair(spec))
    expected = eu_values(spec)[1]
    solved = table.primal[0][1]
    if solved != expected:
        raise ArithmeticError(
            f"solver returned Eu = {solved}, closed form says {expected} "
            f"(n={spec.n}, r={spec.r})"
        )
    return table


def bilinear_embed(m: int, n_cols: int, rank_a: int) -> QuadricSpec:
    """The hypersurface of a bilinear form X^t A Y on P^(m + n_cols - 1),
    viewed as the quadric of the block matrix [[0, A], [A^t, 0]]: ambient
    dimension m + n_cols - 1, rank twice the rank of A."""
    if m < 1 or n_cols < 1:
        raise ValueError("matrix sides must be positive")
    if not 0 <= rank_a <= min(m, n_cols):
        raise ValueError(f"rank {rank_a} exceeds min({m}, {n_cols})")
    if 2 * rank_a < 3:
        raise ValueError(
            f"block rank {2 * rank_a} is below 3; the closed forms need rank >= 3"
        )
    return QuadricSpec(m + n_cols - 1, 2 * rank_a)
