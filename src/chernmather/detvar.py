"""Rank strata of square matrices: class polynomials and Euler obstructions.

For the space of n x n matrices, projectivized in P^(n^2 - 1), the locus
tau_{n,r} of matrices with kernel of dimension at least r has codimension
r^2.  Its Chern-Mather class polynomial q_{n,r}(H) comes from a weighted
integral over the Grassmannian G(r, n) of dimension D = r(n-r):

    q_{n,r}(d) = sum_{a+b<=D} M[a][b] (1+d)^(n(n-r)-b) d^(nr-a)  -  C(n,r) d^(n^2),
    M[a][b]    = integral over G(r,n) of
                     c_(D-a-b)(S^v tensor Q) c_b((Q^v)^n) c_a((S^v)^n).

Each Chern number M[a][b] is computed by Atiyah-Bott localization for the
torus acting on C^n with weights t_k = 2k - (n-1).  The fixed points of
G(r, n) are the coordinate subspaces, one for each r-subset I of {0..n-1};
there S has weights t_i (i in I), Q has weights t_j (j not in I), and

    M[a][b] = sum over I of  [u^(D-a-b)] prod_{i in I, j not in I} (1 + u(t_j - t_i))
                           * [u^b]     prod_{j not in I} (1 - u t_j)^n
                           * [u^a]     prod_{i in I} (1 - u t_i)^n
                           / prod_{i in I, j not in I} (t_j - t_i).

The mirror I -> {n-1-i : i in I} negates every weight, and each term is
homogeneous of degree 0 in t, so I and its mirror contribute the same: the
sum visits one subset of each mirror pair, with weight 2, or 1 for a subset
that is its own mirror.  It runs over a common denominator in integers; a
non-integral M or a d^(n^2) term that fails to cancel raises
ArithmeticError.  Each product prod (1 - u t)^n is the n-th power of a
polynomial of degree r or n - r, raised by J.C.P. Miller's power
recurrence.  Littlewood-Richardson products on the Grassmannian stay behind
the `chow` command and serve the tests as an independent oracle for M and
q, and the tests keep the localization over all C(n, r) points with
t_k = k as a second one.

The family is self-dual: tau_{n,r} and tau_{n,n-r} are projectively dual,
so the duality transform carries the signed q_{n,n-r} to the signed
q_{n,r}.  `eu_table_det` localizes only r <= n/2 and derives the rest that
way, checking each derived class against its Giambelli-Thom-Porteous degree
and its top coefficient n^2 C(n-1, r).  `detvar --n 10` takes about 0.16 s,
`--n 12` about 0.9 s and `--n 14` 4 to 7 s as a subprocess (2 cores,
Python 3.11); localizing every r over every fixed point took 0.3, 2.3 and
13 to 16 s, and the Schubert route 32 s at n = 8.

Alternating binomial sums of the q polynomials give the class polynomials
of the open rank strata, and feeding those to the strata solver reproduces
the binomial table of local Euler obstructions Eu = C(r, k) together with
the origin column C(n, k).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations
from math import comb, factorial, lcm, prod
from operator import mul

from .classpoly import ClassPoly, involute
from .strata import EulerTable, StratifiedPair, Stratum, euler_table


def stratum_dim(n: int, k: int) -> int:
    """Projective dimension of tau_{n,k}: n^2 - k^2 - 1."""
    return n * n - k * k - 1


def _linear_product(roots, top: int) -> list[int]:
    """Coefficients of u^0..u^top in prod (1 + u*w) over the roots w."""
    out = [1] + [0] * top
    for w in roots:
        for k in range(top, 0, -1):
            out[k] += w * out[k - 1]
    return out


def _power(base: list[int], e: int, top: int) -> list[int]:
    """Coefficients of u^0..u^top in base(u)^e, where base[0] == 1, by
    J.C.P. Miller's recurrence k q_k = sum_j ((e+1) j - k) base_j q_(k-j);
    the division by k is exact because every q_k is an integer."""
    out = [1] + [0] * top
    deg = len(base) - 1
    for k in range(1, top + 1):
        acc = sum(
            ((e + 1) * j - k) * base[j] * out[k - j] for j in range(1, min(k, deg) + 1)
        )
        out[k] = acc // k
    return out


def _chern_numbers(n: int, r: int) -> list[list[int]]:
    """M[a][b] for a + b <= D, by localization at one fixed point of each
    mirror pair."""
    top = r * (n - r)
    # Under t_k = 2k - (n-1) the mirror k -> n-1-k negates every weight, and
    # each term is homogeneous of degree 0, so a subset and its mirror
    # contribute alike: visit the lexicographically smaller one, weighted 2.
    t = [2 * k - (n - 1) for k in range(n)]
    points = []
    for sub in combinations(range(n), r):
        mirror = tuple(n - 1 - i for i in reversed(sub))
        if mirror < sub:
            continue
        s_wts = [t[i] for i in sub]
        q_wts = [t[j] for j in range(n) if j not in sub]
        tangent = [tj - ti for ti in s_wts for tj in q_wts]
        points.append((1 if mirror == sub else 2, s_wts, q_wts, tangent, prod(tangent)))
    denom = lcm(*(abs(e) for *_, e in points))
    num = [[0] * (top + 1 - a) for a in range(top + 1)]
    for orbit, s_wts, q_wts, tangent, euler in points:
        c_tan = _linear_product(tangent, top)
        c_quot = _power(_linear_product([-w for w in q_wts], n - r), n, top)
        c_sub = _power(_linear_product([-w for w in s_wts], r), n, top)
        scale = orbit * denom // euler
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


def q_poly(n: int, r: int) -> ClassPoly:
    """The degree-weighted Grassmannian integral for tau_{n,r}, as a class
    polynomial mod H^(n^2)."""
    if not 0 <= r <= n:
        raise ValueError(f"rank parameter {r} out of range for n={n}")
    num = _chern_numbers(n, r)
    coeffs = [0] * (n * n + 1)
    # column b of M multiplies (1+d)^e with e = n(n-r) - b: one binomial row
    # per column serves every row a
    for b in range(len(num)):
        e = n * (n - r) - b
        binom = [comb(e, j) for j in range(e + 1)]
        for a, row in enumerate(num[: len(num) - b]):
            m = row[b]
            if m:
                span = slice(n * r - a, n * r - a + e + 1)
                coeffs[span] = [x + m * c for x, c in zip(coeffs[span], binom)]
    coeffs[n * n] -= comb(n, r)
    if coeffs[n * n]:
        raise ArithmeticError(
            f"top-degree terms failed to cancel for q_({n},{r})"
        )
    return ClassPoly(coeffs[: n * n], n * n)


def duality_check(q: Sequence[ClassPoly], r: int) -> bool:
    """Whether the duality transform carries the signed q polynomial of
    tau_{n,r} to the signed one of tau_{n,n-r}, given q = [q_{n,0..n-1}]."""
    n = len(q)
    if not 1 <= r <= n - 1:
        raise ValueError(f"rank parameter {r} out of range for n={n}")
    return involute(q[r].signed(), n * n - 1) == q[n - r].signed()


def _porteous_degree(n: int, r: int) -> int:
    """Degree of tau_{n,r} (Giambelli-Thom-Porteous)."""
    num = prod(factorial(i) * factorial(n + i) for i in range(r))
    den = prod(factorial(r + i) * factorial(n - r + i) for i in range(r))
    return num // den


def _dual_q(q_dual: ClassPoly, n: int, r: int) -> ClassPoly:
    """q_{n,r} as the duality transform of q_{n,n-r}, checked against two
    closed forms the transform does not use: codimension r^2 with the
    Porteous degree there, and top coefficient n^2 C(n-1, r), the Euler
    obstruction summed over the n^2 torus-fixed rank-1 points."""
    q = (-1) ** stratum_dim(n, r) * involute(q_dual.signed(), n * n - 1)
    degree = _porteous_degree(n, r)
    if q.coeffs[: r * r + 1] != (0,) * (r * r) + (degree,):
        raise ArithmeticError(
            f"derived q_({n},{r}) does not have degree {degree} in codimension {r * r}"
        )
    euler = n * n * comb(n - 1, r)
    if q.coeffs[-1] != euler:
        raise ArithmeticError(
            f"derived q_({n},{r}) has top coefficient {q.coeffs[-1]}, expected {euler}"
        )
    return q


def eu_table_det(n: int) -> tuple[list[ClassPoly], StratifiedPair, EulerTable]:
    """The rank strata of n x n matrices, solved: (q, pair, table).

    q[r] is q_{n,r} for r < n: localized for r <= n/2, and for larger r the
    duality transform of q[n-r], checked by `_dual_q`.  The open strata get
    their classes by one alternating binomial pass over q; the family is
    self-dual, with tau_{n,k} paired to tau_{n,n-k}, so both sides of the
    pair carry the same strata.
    The binomial values are reproduced, not assumed: after solving, the table
    is checked against Eu = C(r, k), the origin column against C(n, k) and
    each class against q[k]; both halves of the table must agree.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    q = [q_poly(n, r) for r in range(n // 2 + 1)]
    q += [_dual_q(q[n - r], n, r) for r in range(n // 2 + 1, n)]
    # open strata by binomial inversion: csm_k = sum_(r>=k) (-1)^(r-k) C(r,k) q_r;
    # the sign is taken as (-1)^(r+k), since a negative power of -1 is a float
    weights = [[(-1) ** (r + k) * comb(r, k) for r in range(n)] for k in range(n)]
    columns = list(zip(*(c.coeffs for c in q)))
    opens = [ClassPoly([sum(map(mul, w, col)) for col in columns]) for w in weights]
    pair = StratifiedPair(
        n * n,
        [Stratum(f"tau_{n}_{k}", c, stratum_dim(n, k)) for k, c in enumerate(opens)],
        [Stratum(f"tau_{n}_{k}_dual", c, stratum_dim(n, k)) for k, c in enumerate(opens)],
        [(k, n - k) for k in range(1, n)],
    )
    table = euler_table(pair)
    for k in range(n):
        for r in range(n):
            expect = comb(r, k) if r >= k else 0
            if table.primal[k][r] != expect:
                raise ArithmeticError(
                    f"entry ({k},{r}) is {table.primal[k][r]}, expected {expect}"
                )
        if table.origin[k] != comb(n, k):
            raise ArithmeticError(
                f"origin entry {k} is {table.origin[k]}, expected {comb(n, k)}"
            )
        if table.chern_mather_primal[k] != q[k]:
            raise ArithmeticError(
                f"solver Chern-Mather class disagrees with q_({n},{k})"
            )
    primal = (table.primal, table.chern_mather_primal)
    if (table.dual, table.chern_mather_dual) != primal:
        raise ArithmeticError("the dual half of the table differs from the primal half")
    return q, pair, table
