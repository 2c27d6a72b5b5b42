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


def _smooth_quadric(dim: int, modulus: int) -> ClassPoly:
    """Class of a smooth quadric of dimension `dim`, a hypersurface of a
    linear P^(dim+1) inside P^(modulus-1): 2H * csm(P^(dim+1)) / (1+2H)."""
    two_h = ClassPoly.monomial(1, modulus, 2)
    return div_1p2H(two_h * csm_linear_space(dim + 1, modulus))


def milnor_class(spec: QuadricSpec) -> ClassPoly:
    """Milnor class mu * csm(S)/(1+2H); zero for a smooth quadric."""
    if spec.is_smooth:
        return ClassPoly.zero(spec.modulus)
    return milnor_number(spec) * div_1p2H(csm_singular_locus(spec))


def csm_quadric(spec: QuadricSpec) -> ClassPoly:
    """Class polynomial of the rank-r quadric in P^n: the class of the smooth
    quadric minus (-1)^(n-1) times the Milnor class."""
    smooth = _smooth_quadric(spec.n - 1, spec.modulus)
    if spec.is_smooth:
        return smooth
    return smooth - (-1) ** (spec.n - 1) * milnor_class(spec)


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
    x_dual = _smooth_quadric(spec.r - 2, spec.modulus)
    if spec.is_smooth:
        return (x_dual, None)
    return (x_dual, csm_linear_space(spec.r - 1, spec.modulus))


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


def cross_validate(spec: QuadricSpec, pair: StratifiedPair) -> EulerTable:
    """Solve `pair`, the quadric pair `build_pair(spec)`, by
    `strata.checked_table` against the closed forms: obstruction
    e = (-1)^r + 1 along the singular locus, the smooth dual quadric's
    table (1), and e and 1 at the cone points over X and over its singular
    locus."""
    if spec.is_smooth:
        raise ValueError("cross-validation needs a singular quadric (r <= n)")
    e = eu_values(spec)[1]
    return checked_table(pair, primal=((1, e), (0, 1)), dual=((1,),), origin=(e, 1))

