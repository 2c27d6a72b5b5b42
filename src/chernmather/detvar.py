"""Rank strata of square matrices: class polynomials and Euler obstructions.

For the space of n x n matrices, projectivized in P^(n^2 - 1), the locus
tau_{n,r} of matrices with kernel of dimension at least r has codimension
r^2.  Its Chern-Mather class polynomial q_{n,r}(H) comes from a weighted
integral over the Grassmannian G(r, n) of dimension D = r(n-r):

    q_{n,r}(d) = sum_{a+b<=D} M[a][b] (1+d)^(n(n-r)-b) d^(nr-a)   mod d^(n^2),
    M[a][b]    = integral over G(r,n) of
                     c_(D-a-b)(S^v tensor Q) c_b((Q^v)^n) c_a((S^v)^n).

By the Whitney sum formula c((S^v)^n) c((Q^v)^n) = c((V^v)^n) = 1, since
V = C^n is trivial, so the antidiagonal sums of M over a + b = k are
C(n, r) = integral of c_D(T) at k = 0 and 0 for every k > 0.  The k = 0 sum
is the d^(n^2) coefficient of the sum above, and with k = 1 the top
coefficient of q is n(n-r) C(n, r) = n^2 C(n-1, r).

Each Chern number M[a][b] is computed by Atiyah-Bott localization for the
torus acting on C^n with weights t_k = 2k - (n-1).  The fixed points of
G(r, n) are the coordinate subspaces, one for each r-subset I of {0..n-1};
there S has weights t_i (i in I), Q has weights t_j (j not in I), and

    M[a][b] = sum over I of  [u^(D-a-b)] prod_{i in I, j not in I} (1 + u(t_j - t_i))
                           * [u^b]     prod_{j not in I} (1 - u t_j)^n
                           * [u^a]     prod_{i in I} (1 - u t_i)^n
                           / prod_{i in I, j not in I} (t_j - t_i).

The mirror I -> {n-1-i : i in I} negates every weight, and each term is
homogeneous of degree 0 in t, so I and its mirror contribute the same.
When 2r = n the complement of I in {0..n-1} is a fixed point of G(r, n)
too, and its term in M[a][b] is (-1)^(a+b) times the term of I in M[b][a]:
it negates the tangent weights, swaps the weights of S and Q and flips the
sign of the Euler class of degree D.  So the sum visits one subset I of
each orbit of the group generated by the mirror and, when 2r = n, the
complement.  It weights I by |orbit|, or by |orbit|/2 when 2r = n, and
then folds the accumulated A into M[a][b] = A[a][b] + (-1)^(a+b) A[b][a].
It runs over a common denominator in integers; a non-integral M raises.

Each of the three products at a fixed point, the tangent class and the
bases prod (1 - u t) of the two n-th powers, is prod (1 + u w) over its
roots w, built as one integer of signed digits and read back by
`classpoly._unpack`.  One digit width serves all of G(r, n), since no root
exceeds 2(n-1) in absolute value.  Each coefficient is then a column over
the points, which are the inner dimension: Miller's power recurrence
raises the bases one column pass at a time, and each M[a][b] is one sum
over the points.  q is expanded from M by Horner's rule in (1+d) on one
integer of packed digits, one shift and add per factor.
Littlewood-Richardson products on the Grassmannian stay behind the `chow`
command and serve the tests as an independent oracle for M and q, and the
tests keep the localization over all C(n, r) points with t_k = k as a
second one.

The family is self-dual: tau_{n,r} and tau_{n,n-r} are projectively dual,
so the duality transform carries the signed q_{n,r} to the signed
q_{n,n-r}.  Only r <= n/2 is localized: V -> V^v maps G(r, n) to G(n-r, n)
and swaps S with Q^v, so q_{n,r} is expanded from the Chern numbers M of
G(min(r, n-r), n), or from their signed transpose (-1)^(a+b) M[b][a] when
2r > n, which multiplies the antidiagonal sum at k by (-1)^k.  Before
expanding, `_checked_q` checks the identity on M, which any one wrong
Chern number breaks; for r < n q must then have its Giambelli-Thom-Porteous
degree in codimension r^2, which also catches a wrong bundle or exponent
that keeps the identity.  Either check raises ArithmeticError.

Alternating binomial sums of the q polynomials give the class polynomials
of the open rank strata.  Fed to the strata solver, those must reproduce
the binomial table of local Euler obstructions Eu = C(r, k), the origin
column C(n, k) and the classes q on both sides; `strata.checked_table`
raises ArithmeticError otherwise.  Each paired system (k, n-k) is solved
exactly, so a checked table also certifies that the transform carries the
signed q_{n,k} to the signed q_{n,n-k}.
"""

from __future__ import annotations

from itertools import combinations, repeat
from math import comb, factorial, lcm, prod
from operator import add, floordiv, mul

from .classpoly import ClassPoly, _unpack
from .strata import EulerTable, StratifiedPair, Stratum, _combination, checked_table


def _product_columns(rows, n: int, top: int) -> list[list[int]]:
    """Columns of the coefficients of u^0, u^1, ... in prod (1 + u w) over
    the roots w of each row, for the fixed points of G(r, n) with D = top.
    Each product is one integer of signed W-bit digits, built by
    P += (P << W) * w.  Every step is exact, so only the final digits must
    fit: a root is t_j - t_i or -t_k, at most 2(n-1) in absolute value, and
    a row has at most max(D, n) roots, so every coefficient is at most
    (2n-1)^max(D, n) < 2^(W-1), one width W for all of (n, r)."""
    size = ((2 * n - 1) ** max(top, n)).bit_length() // 8 + 1  # bytes per digit
    width, span, packed = 8 * size, len(rows[0]) + 1, []
    for roots in rows:
        p = 1
        for w in roots:
            p += (p << width) * w
        packed.append(p)
    digits = _unpack(packed, size, span)
    return [digits[k::span] for k in range(span)]


def _power_columns(base: list[list[int]], e: int, top: int) -> list[list[int]]:
    """Columns of u^0..u^top in base(u)^e, base[0] all ones, by J.C.P. Miller's
    recurrence k q_k = sum_j ((e+1) j - k) base_j q_(k-j), one pass over the
    points a term; the division by k is exact, since every q_k is an integer."""
    out = [base[0]]
    for k in range(1, top + 1):
        js = range(1, min(k, len(base) - 1) + 1)
        terms = [map(mul, repeat((e + 1) * j - k), map(mul, base[j], out[k - j])) for j in js]
        out.append(list(map(floordiv, map(sum, zip(*terms)), repeat(k))))
    return out


def _chern_numbers(n: int, r: int) -> list[list[int]]:
    """M[a][b] for a + b <= D, by localization at one fixed point of each
    orbit of the mirror, and of the complement when 2r = n."""
    top = r * (n - r)
    fold = 2 * r == n
    # Under t_k = 2k - (n-1) the mirror k -> n-1-k negates every weight, and
    # each term is homogeneous of degree 0, so a subset and its mirror
    # contribute alike.  When 2r = n the complement's term in M[a][b] is the
    # subset's term in M[b][a] times (-1)^(a+b): the orbit's sum is |orbit|/2
    # times its smallest subset's term, folded by that signed transpose.
    t = [2 * k - (n - 1) for k in range(n)]
    points = []
    for sub in combinations(range(n), r):
        orbit = {sub, tuple(n - 1 - i for i in reversed(sub))}
        if fold:
            orbit |= {tuple(j for j in range(n) if j not in o) for o in orbit}
        if min(orbit) < sub:
            continue
        quot = [t[j] for j in range(n) if j not in sub]
        tangent = [tj - t[i] for i in sub for tj in quot]
        weight = len(orbit) // 2 if fold else len(orbit)
        points.append((weight, prod(tangent), tangent, [-t[i] for i in sub], [-w for w in quot]))
    weights, eulers, tangents, subs, quots = zip(*points)
    # the widest products first, while little else is held
    c_tan = _product_columns(tangents, n, top)
    del points, tangents
    denom = lcm(*map(abs, eulers))
    # the orbit weight and denom / euler ride on the columns of c((S^v)^n)
    scale = [w * (denom // e) for w, e in zip(weights, eulers)]
    c_sub = _power_columns(_product_columns(subs, n, top), n, top)
    c_sub = [list(map(mul, scale, col)) for col in c_sub]
    c_quot = _power_columns(_product_columns(quots, n, top), n, top)
    num = [
        [sum(map(mul, sa, map(mul, c_quot[b], c_tan[top - a - b]))) for b in range(top + 1 - a)]
        for a, sa in enumerate(c_sub)
    ]
    if fold:
        flipped = _signed_transpose(num)
        num = [list(map(add, row, flip)) for row, flip in zip(num, flipped)]
    for a, row in enumerate(num):
        for b, v in enumerate(row):
            row[b], rem = divmod(v, denom)
            if rem:
                raise ArithmeticError(
                    f"Chern number M[{a}][{b}] of G({r},{n}) is not an integer"
                )
    return num


def _signed_transpose(num: list[list[int]]) -> list[list[int]]:
    """(-1)^(a+b) M[b][a] for a + b <= D."""
    return [
        [(-1) ** (a + b) * num[b][a] for b in range(len(row))] for a, row in enumerate(num)
    ]


def q_poly(n: int, r: int) -> ClassPoly:
    """The degree-weighted Grassmannian integral for tau_{n,r}, as a class
    polynomial mod H^(n^2), checked like every class of `eu_table_det`."""
    if n < 1:
        raise ValueError(f"need n >= 1 for q_poly, got n={n}")
    if not 0 <= r <= n:
        raise ValueError(f"rank parameter {r} out of range for n={n}")
    return _checked_q(_chern_numbers(n, min(r, n - r)), n, r)


def _expand(num: list[list[int]], n: int, r: int) -> ClassPoly:
    """q_{n,r} from the Chern numbers M of G(r, n), mod d^(n^2).

    Horner's rule in (1+d): S <- S (1+d) + R_b for b = 0..D, with
    R_b(d) = sum_a M[a][b] d^(nr-a), leaves sum_b R_b (1+d)^(D-b); the
    (n-r)^2 further factors make each exponent n(n-r) - b.  S is one integer
    of signed W-bit digits, the coefficients of d^0..d^(n^2), so a factor
    (1+d) is S += S << W.  Every step is exact, so only the final digits
    must fit: each is a sum of M[a][b] C(n(n-r)-b, j), at most
    sum |M| 2^(n(n-r)) < 2^(W-1) for W = bits(sum |M|) + n(n-r) + 2."""
    bits = sum(sum(map(abs, row)) for row in num).bit_length() + n * (n - r) + 2
    size = (bits + 7) // 8  # bytes per digit
    width, packed = 8 * size, 0
    for b in range(len(num)):
        rb = 0  # R_b / d^(nr-D+b), from its top coefficient down
        for row in num[: len(num) - b]:
            rb = (rb << width) + row[b]
        packed += (packed << width) + (rb << (width * (n * r - len(num) + 1 + b)))
    for _ in range((n - r) ** 2):
        packed += packed << width
    return ClassPoly(_unpack([packed], size, n * n + 1)[: n * n], n * n)


def _porteous_degree(n: int, r: int) -> int:
    """Degree of tau_{n,r} (Giambelli-Thom-Porteous)."""
    num = prod(factorial(i) * factorial(n + i) for i in range(r))
    den = prod(factorial(r + i) * factorial(n - r + i) for i in range(r))
    return num // den


def _checked_q(num: list[list[int]], n: int, r: int) -> ClassPoly:
    """q_{n,r} from the Chern numbers M of G(min(r, n-r), n), or from their
    signed transpose when 2r > n.  M must have antidiagonal sums C(n, r), 0,
    ..., 0, and for r < n q the Porteous degree in codimension r^2."""
    sums = [0] * len(num)
    for a, row in enumerate(num):
        sums[a:] = map(add, sums[a:], row)
    sums[0] -= comb(n, r)
    for k, s in enumerate(sums):
        if s:
            raise ArithmeticError(
                f"Chern numbers of q_({n},{r}) fail the Whitney sum identity in degree {k}"
            )
    q = _expand(num if 2 * r <= n else _signed_transpose(num), n, r)
    if r == n:
        return q
    degree = _porteous_degree(n, r)
    if q.coeffs[: r * r + 1] != (0,) * (r * r) + (degree,):
        raise ArithmeticError(
            f"q_({n},{r}) does not have degree {degree} in codimension {r * r}"
        )
    return q


def eu_table_det(n: int) -> tuple[list[ClassPoly], StratifiedPair, EulerTable]:
    """The rank strata of n x n matrices, solved: (q, pair, table).

    q[r] is q_{n,r} for r < n: one localization at each r <= n/2 gives
    q_{n,r} and q_{n,n-r}, each checked by `_checked_q`.  The open strata
    get their classes by one alternating binomial pass over q; the family is
    self-dual, with tau_{n,k} paired to tau_{n,n-k}, so both sides of the
    pair carry the same strata.  The binomial values are reproduced, not
    assumed: `strata.checked_table` solves the pair and checks the table
    against its closed forms, Eu = C(r, k) on both halves, the origin
    column C(n, k) and the classes q on both sides, which also certifies
    that the transform carries the signed q_{n,k} to the signed q_{n,n-k}.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    numbers = [_chern_numbers(n, r) for r in range(n // 2 + 1)]
    q = [_checked_q(numbers[min(r, n - r)], n, r) for r in range(n)]
    # open strata by binomial inversion: csm_k = sum_(r>=k) (-1)^(r-k) C(r,k) q_r;
    # the sign is taken as (-1)^(r+k), since a negative power of -1 is a float
    weights = [[(-1) ** (r + k) * comb(r, k) for r in range(n)] for k in range(n)]
    opens = [ClassPoly(_combination([c.coeffs for c in q], w)) for w in weights]
    pair = StratifiedPair(
        [Stratum(f"tau_{n}_{k}", c) for k, c in enumerate(opens)],
        [Stratum(f"tau_{n}_{k}_dual", c) for k, c in enumerate(opens)],
        [(k, n - k) for k in range(1, n)],
    )
    binomial = [tuple(comb(r, k) for r in range(n)) for k in range(n)]
    table = checked_table(
        pair, primal=binomial, dual=binomial, origin=[comb(n, k) for k in range(n)],
        chern_mather_primal=q, chern_mather_dual=q,
    )
    return q, pair, table
