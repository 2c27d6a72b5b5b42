"""Closed-form invariants of quadric hypersurfaces of given rank.

A quadric X in P^n cut out by a symmetric (n+1) x (n+1) matrix of rank r
is smooth iff r = n+1; otherwise its singular locus S is the linear space
P^(n-r), the dual variety is a smooth quadric inside a linear P^(r-1), and
everything below is an exact polynomial identity mod H^(n+1):

  * class polynomial of X:  2H*B_n/(1+2H) - (-1)^(n-1) * mu * csm(S)/(1+2H)
    with B_n = (1+H)^(n+1) - H^(n+1) and mu = (-1)^(n+r);
  * Milnor class: mu * csm(S)/(1+2H), the only route here; the explicit
    double-binomial sum for it is the independent oracle of the tests;
  * local Euler obstruction along S: (-1)^r + 1, Milnor number mu, Euler
    characteristic of the complex link of the cone at the origin: -2.

`build_pair` gives the classes of S, of X minus S and of the dual quadric.
The `quadric` report reads its Euler tables and origin column, `eu_singular`
and the Chern-Mather class of X off the table that `cross_validate` solves
and checks against these closed forms; mu, -2 and Eu = 1 it writes as is.

Ranks 1 and 2 are rejected: a rank-1 quadric is a doubled hyperplane whose
reduced structure is smooth, a rank-2 quadric is two hyperplanes meeting
transversely, and the closed forms here presuppose rank >= 3.
"""

from __future__ import annotations

from collections import namedtuple

from .classpoly import ClassPoly, csm_linear_space, div_1p2H
from .strata import EulerTable, StratifiedPair, Stratum, checked_table


class QuadricSpec(namedtuple("QuadricSpec", "n r")):
    """Ambient projective dimension n and matrix rank r; only these matter.

    A namedtuple, equal to and hashed as the tuple (n, r); `_make` and
    `_replace` build one without the checks of the constructor.
    """

    __slots__ = ()

    def __new__(cls, n: int, r: int):
        if n < 2:
            raise ValueError("need ambient dimension n >= 2")
        if r == 1:
            raise ValueError(
                "rank 1: the quadric is a doubled hyperplane, its reduced "
                "structure is a smooth linear space; need rank >= 3"
            )
        if r == 2:
            raise ValueError(
                "rank 2: the quadric is two hyperplanes meeting transversely "
                "in a linear space; need rank >= 3"
            )
        if not 3 <= r <= n + 1:
            raise ValueError(f"rank must satisfy 3 <= r <= n+1, got r={r}, n={n}")
        return super().__new__(cls, n, r)

    @property
    def is_smooth(self) -> bool:
        return self.r == self.n + 1


def _smooth_quadric(dim: int, modulus: int) -> ClassPoly:
    """Class of a smooth quadric of dimension `dim`, a hypersurface of a
    linear P^(dim+1) inside P^(modulus-1): 2H * csm(P^(dim+1)) / (1+2H), the
    row of P^(dim+1) moved up one power of H, its top term cut off."""
    row = csm_linear_space(dim + 1, modulus).coeffs
    return div_1p2H(2 * ClassPoly((0,) + row[:-1]))


def milnor_class(spec: QuadricSpec) -> ClassPoly:
    """Milnor class mu * csm(S)/(1+2H); zero for a smooth quadric."""
    n, r = spec
    if spec.is_smooth:
        return ClassPoly.zero(n + 1)
    return (-1) ** (n + r) * div_1p2H(csm_linear_space(n - r, n + 1))


def build_pair(spec: QuadricSpec) -> StratifiedPair:
    """Solver input: {open part, singular locus} against the dual quadric.

    The classes are S = P^(n-r), the quadric X (the smooth class minus
    (-1)^(n-1) times `milnor_class`, so the class the report prints is the
    one solved) and the dual quadric.  For a smooth quadric, which is its
    own dual, the pair degenerates to one self-paired stratum.
    """
    n, r = spec
    mod = n + 1
    dual = [Stratum("dual_quadric", _smooth_quadric(r - 2, mod), r - 2)]
    if spec.is_smooth:
        primal = [Stratum("quadric", dual[0].csm, n - 1)]
    else:
        sing = csm_linear_space(n - r, mod)
        quadric = _smooth_quadric(n - 1, mod) - (-1) ** (n - 1) * milnor_class(spec)
        primal = [
            Stratum("quadric_open", quadric - sing, n - 1),
            Stratum("singular_locus", sing, n - r),
        ]
    return StratifiedPair(mod, primal, dual, [(0, 0)])


def cross_validate(spec: QuadricSpec, pair: StratifiedPair) -> EulerTable:
    """Solve `pair`, the quadric pair `build_pair(spec)`, by
    `strata.checked_table` against the closed forms: obstruction
    e = (-1)^r + 1 along the singular locus, the smooth dual quadric's
    table (1), and e and 1 at the cone points over X and over its singular
    locus."""
    if spec.is_smooth:
        raise ValueError("cross-validation needs a singular quadric (r <= n)")
    e = (-1) ** spec.r + 1
    return checked_table(pair, primal=((1, e), (0, 1)), dual=((1,),), origin=(e, 1))
