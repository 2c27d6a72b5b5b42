"""Exact invariants of stratified projective varieties via projective duality.

Class polynomials of strata go in; local Euler obstructions, Chern-Mather
classes and affine cone-point obstructions come out, all in exact integer
arithmetic.  Generators are included for quadric hypersurfaces of any rank
and for the rank strata of square matrices (through torus localization on
the Grassmannian); Schubert calculus on the Grassmannian backs the `chow`
command.
"""

from .classpoly import (
    ClassPoly,
    chern_B,
    csm_linear_space,
    div_1p2H,
    involute,
    one_plus_h_power,
)
from .detvar import (
    eu_table_det,
    q_poly,
    stratum_dim,
)
from .grassmann import (
    ChowElement,
    integrate,
    lr_multiply,
)
from .linsolve import (
    InconsistentSystem,
    LinearSystemError,
    NonIntegerSolution,
    NonUniqueSolution,
    exact_solve,
)
from .quadric import (
    QuadricSpec,
    build_pair,
    cross_validate,
    milnor_class,
)
from .strata import (
    EulerTable,
    StratifiedPair,
    Stratum,
    chern_mather,
    euler_table,
)

__version__ = "0.1.0"
