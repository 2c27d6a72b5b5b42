"""Local Euler obstructions from the class polynomials of dual strata.

Input: the class polynomials of the strata of a projective variety X in
P^(N-1) and of the strata of its dual, plus the pairing saying which dual
stratum closure is the dual variety of which primal stratum closure.

For each paired stratum r the duality transform yields one linear system:

    I_{N-1}( (-1)^dX * sum_{i>=r} a_i * csm_i )
        = (-1)^dY * sum_{j>=p(r)} b_j * csm'_j,     a_r = b_{p(r)} = 1,

with dX, dY the dimensions of the two designated strata.  A class of
dimension k starts at H^(N-1-k), so each class fixes its stratum's
dimension and its modulus fixes N.  `Stratum` and `StratifiedPair` read
both off the classes; only `StratifiedPair.from_dict` checks the dimensions
an input file declares.  Matching the coefficients of H^0..H^(N-1) gives N
equations; the unique integer solution is the family of local Euler
obstructions of the closure of stratum r (and, through the b's, of its
dual).

When the pairing is a chain, the T deepest strata of each side paired in
reverse order, as in every linear flag and rank-strata pair, `_chain_rows`
solves all T systems at once: it writes each transformed class over the
paired dual classes (checked on all N coefficients) and factors that T x T
matrix into the two unit-triangular tables and the parity signs (Aluffi,
Projective duality and a Chern-Mather involution).  A failed check there
sends the pair, unchanged, through one exact solve per system, which also
takes every other pairing, such as a singular quadric's; that route names
the failing system.

`euler_table` weights the class polynomials by each row for the
Chern-Mather class of every stratum closure on both sides; a primal class
at H = -1 gives the Euler obstruction of its affine cone at the origin.
`checked_table` is the one check of a generated family: it solves the pair
and compares the table with the family's closed forms.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import repeat, zip_longest
from operator import mul, neg, sub

from .classpoly import ClassPoly, chern_B, involute_all
from .linsolve import exact_solve

# Largest accepted N: every class is stored densely with N coefficients and
# each system has N equations.  At N = 1024, on a 2-core VM, `chernmather
# solve` on a linear flag of 40 strata takes 1.9 to 2.7 s as a process and
# `euler_table` 1.3 to 2.3 s of it, nearly all in the one transform of the
# 40 primal classes: the chain factorization solves the 40 systems, checks
# included, in under 0.1 s.
MAX_AMBIENT = 1024

# Largest accepted number of strata on either side.  Each side's count
# bounds both the number of systems and their unknowns: at N = 1024
# `chernmather solve` on a linear flag of 64 strata takes 3.0 to 4.1 s as a
# process on the same VM, and `euler_table` on one of 80 strata 2.8 to 3.0 s.
# A pairing that is not a chain takes one exact solve per system, whose
# cost grows faster than linearly in the count.
MAX_STRATA = 64


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass, but true/false are not numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


class Stratum(namedtuple("Stratum", "name csm dim")):
    """A named stratum with its class polynomial, and the dimension it fixes.

    The dimension orders the strata and sets the parity signs of the duality
    systems.  It is N - 1 minus the power of the lowest nonzero coefficient
    of the class, read off once here and stored, so `Stratum(name, csm)`
    takes no dimension and the class may not be zero.

    Like the other value classes here and `quadric.QuadricSpec`, a
    namedtuple: immutable, and equal to and hashed as the plain tuple of its
    fields.  Only the constructor checks the fields; namedtuple's `_make`
    and `_replace` build an instance without those checks, so
    `_replace(csm=...)` keeps the old `dim` beside the new class, and every
    parity sign and sort order then trusts that stale field: build a new
    stratum with `Stratum(name, csm)` instead.  Pickling and copying build
    it again from the name and class.
    """

    __slots__ = ()

    def __new__(cls, name: str, csm: ClassPoly):
        if csm.is_zero():
            raise ValueError(f"stratum {name!r} has zero class polynomial")
        return super().__new__(cls, name, csm, csm.dim)

    def __getnewargs__(self):
        return self.name, self.csm


class StratifiedPair(namedtuple("StratifiedPair", "primal dual pairing")):
    """A stratified projective variety together with its stratified dual.

    primal and dual are tuples of strata, re-sorted by dimension (open
    stratum first), whose classes share one modulus N: classes live in
    Z[H]/(H^N), i.e. inside P^(N-1), and `ambient` is that N.  pairing is a
    sorted tuple of (primal, dual) index pairs and must make the dual
    dimensions strictly increasing along deeper primal strata; it is empty
    when N = 1, where there is no duality transform.  A namedtuple, as
    `Stratum` describes: `_make` and `_replace` skip the sorting and checks
    here.
    """

    __slots__ = ()

    def __new__(
        cls,
        primal: Iterable[Stratum],
        dual: Iterable[Stratum],
        pairing: Iterable[Sequence[int]],
    ):
        primal, dual = list(primal), list(dual)
        if not primal or not dual:
            raise ValueError("both sides need at least one stratum")
        ambient = primal[0].csm.modulus

        def _sorted(side, label):
            """Check names and moduli, then order by dimension."""
            names: set[str] = set()
            for s in side:
                if s.name in names:
                    raise ValueError(f"{label} stratum name {s.name!r} is repeated")
                names.add(s.name)
                if s.csm.modulus != ambient:
                    raise ValueError(
                        f"{label} stratum {s.name!r} has modulus "
                        f"{s.csm.modulus}, expected {ambient}"
                    )
            order = sorted(range(len(side)), key=lambda i: -side[i].dim)
            remap = {old: new for new, old in enumerate(order)}
            return tuple(side[i] for i in order), remap

        primal, pmap = _sorted(primal, "primal")
        dual, dmap = _sorted(dual, "dual")
        pairing = [tuple(p) for p in pairing]
        seen_r, seen_p = set(), set()
        for r, p in pairing:
            if not (0 <= r < len(primal) and 0 <= p < len(dual)):
                raise ValueError(f"pairing ({r}, {p}) is out of range")
            if r in seen_r or p in seen_p:
                raise ValueError(f"pairing ({r}, {p}) repeats an index")
            seen_r.add(r)
            seen_p.add(p)
        if pairing and ambient < 2:
            raise ValueError(
                f"pairing {[list(p) for p in pairing]} needs N >= 2 for the "
                f"duality transform, got N = {ambient}"
            )
        pairing = tuple(sorted((pmap[r], dmap[p]) for r, p in pairing))

        # Reflectivity: deeper primal strata must pair with larger duals.
        chain = [dual[p].dim for _, p in pairing]
        if any(a >= b for a, b in zip(chain, chain[1:])):
            raise ValueError(
                "dual dimensions do not increase strictly along the pairing; "
                "the input is not a reflective pair"
            )

        return super().__new__(cls, primal, dual, pairing)

    @property
    def ambient(self) -> int:
        """N, the modulus of every class."""
        return self.primal[0].csm.modulus

    # -- JSON interchange ------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "StratifiedPair":
        if not isinstance(data, dict):
            raise ValueError("stratification data must be a JSON object")
        try:
            ambient = data["N"]
            raw_primal = data["primal"]
            raw_dual = data["dual"]
            raw_pairing = data["pairing"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"missing stratification field: {exc}") from exc
        if not _is_int(ambient) or ambient < 1:
            raise ValueError("N must be a positive integer")
        if ambient > MAX_AMBIENT:
            raise ValueError(f"N must be at most {MAX_AMBIENT}")

        def _strata(raw, label):
            if not isinstance(raw, list) or not raw:
                raise ValueError(f"{label} must be a non-empty list of strata")
            if len(raw) > MAX_STRATA:
                raise ValueError(
                    f"need at most {MAX_STRATA} strata per side, got {len(raw)}"
                )
            out = []
            for entry in raw:
                if not isinstance(entry, dict):
                    raise ValueError(f"{label} entries must be objects")
                try:
                    name = entry["name"]
                    dim = entry["dim"]
                    csm = entry["csm"]
                except KeyError as exc:
                    raise ValueError(
                        f"{label} stratum is missing field {exc}"
                    ) from exc
                if not isinstance(name, str):
                    raise ValueError("stratum names must be strings")
                if not _is_int(dim):
                    raise ValueError(f"stratum {name!r}: dim must be an integer")
                # type, not isinstance: bool is an int subclass (see _is_int)
                if not isinstance(csm, list) or not set(map(type, csm)) <= {int}:
                    raise ValueError(
                        f"stratum {name!r}: csm must be a list of integers"
                    )
                if len(csm) > ambient and any(c != 0 for c in csm[ambient:]):
                    raise ValueError(
                        f"stratum {name!r}: class exceeds modulus {ambient}"
                    )
                stratum = Stratum(name, ClassPoly(csm, ambient))
                if dim != stratum.dim:
                    raise ValueError(
                        f"stratum {name!r} declares dimension {dim}, but its "
                        f"class has dimension {stratum.dim}"
                    )
                out.append(stratum)
            return out

        if not isinstance(raw_pairing, list) or not all(
            isinstance(p, list)
            and len(p) == 2
            and all(_is_int(i) for i in p)
            for p in raw_pairing
        ):
            raise ValueError("pairing must be a list of [r, p] index pairs")
        return cls(
            _strata(raw_primal, "primal"),
            _strata(raw_dual, "dual"),
            raw_pairing,
        )

    def to_dict(self) -> dict:
        def _side(strata):
            return [
                {"name": s.name, "dim": s.dim, "csm": s.csm.to_list()}
                for s in strata
            ]

        return {
            "N": self.ambient,
            "primal": _side(self.primal),
            "dual": _side(self.dual),
            "pairing": [list(p) for p in self.pairing],
        }


class EulerTable(
    namedtuple(
        "EulerTable",
        "primal dual origin chern_mather_primal chern_mather_dual diagnostics",
        defaults=((),),
    )
):
    """Triangular tables of local Euler obstructions.

    primal[r][j] is the obstruction of the closure of primal stratum r at
    points of stratum j; entries with j < r are 0 (the point lies off the
    closure).  origin[r] is the obstruction of the affine cone over the
    closure of primal stratum r at the cone point, and chern_mather_primal[r]
    the Chern-Mather class of that closure; likewise for the dual side.
    diagnostics holds one dict per system, () by default.  All are tuples,
    and so is the table: a namedtuple, as `Stratum` describes.
    """

    __slots__ = ()


def _signed(sign: int, coeffs):
    """The coefficients times sign = +-1, in one C-level pass."""
    return coeffs if sign > 0 else list(map(neg, coeffs))


def _signed_system(pair: StratifiedPair, inv, r: int, p: int):
    """Rows and right-hand sides of the coefficient-matching system for
    paired strata (r, p), given the transforms `inv` of the primal classes;
    the unknowns are the primal weights beyond r, then the dual ones beyond p.

    Equations run from H^(N-1) down to H^0: at high powers every stratum
    has a nonzero coefficient, while at low powers all but the largest
    strata vanish, so the solver finds its pivots in the first rows.  The
    signed class columns are transposed into rows in one C-level pass; with
    no unknowns there are still N rows, empty, so the solver's residual
    check covers every equation."""
    sx, sy = (-1) ** pair.primal[r].dim, (-1) ** pair.dual[p].dim
    cols = [_signed(sx, f.coeffs) for f in inv[r + 1 :]]
    cols += [_signed(-sy, s.csm.coeffs) for s in pair.dual[p + 1 :]]
    rows = list(zip(*cols)) if cols else [()] * pair.ambient
    y, x = _signed(sy, pair.dual[p].csm.coeffs), _signed(sx, inv[r].coeffs)
    rhs = list(map(sub, y, x))
    return rows[::-1], rhs[::-1]


def _system_name(pair: StratifiedPair, r: int, p: int) -> str:
    return f"primal[{r}] {pair.primal[r].name!r} <-> dual[{p}] {pair.dual[p].name!r}"


def _chain_rows(pair: StratifiedPair, inv):
    """The rows of every paired system at once, when the pairing is a chain,
    or None.

    A chain pairs the T deepest strata of both sides, r_t = a-T+t with
    p_t = b-1-t for t < T (a and b strata a side), so the unknowns of each
    system are the other paired strata.  Write each transformed class
    inv[r_t] as sum_k tau_tk Y_k over the paired dual classes Y_k of p_k.
    The systems then read A.tau = S.B, with A unit upper triangular (the
    primal rows), B unit lower triangular (the dual rows, read backwards)
    and S the parity signs s_t = (-1)^(dim r_t + dim p_t).  Reducing tau
    from its last row up with the pivots s_t finds A and B.

    tau comes by forward substitution on the coefficient of each Y_k at its
    codimension and is checked on all N coefficients, so an inexact quotient
    shows as a residual.  Reflectivity makes the dimensions of the Y_k rise
    with k, so, each fixed by its class, their codimensions fall: an exact
    tau and pivots s_t prove each system consistent with linearly
    independent unknown columns, so the rows are the unique solutions
    `_solve_paired` returns.  Any other pairing, a residual or a pivot other
    than s_t gives None."""
    n_p, n_d, T = len(pair.primal), len(pair.dual), len(pair.pairing)
    if pair.pairing != tuple((n_p - T + t, n_d - 1 - t) for t in range(T)):
        return None
    primal, dual = pair.primal[n_p - T :], pair.dual[n_d - T :][::-1]
    ys = [s.csm.coeffs for s in dual]
    codims = [pair.ambient - 1 - s.dim for s in dual]
    # Y_k vanishes below codims[k], which falls with k: solve from k = T-1 down
    tau = []
    for f in inv[n_p - T :]:
        row = [0] * T
        for k in reversed(range(T)):
            c = codims[k]
            known = sum(row[j] * ys[j][c] for j in range(k + 1, T))
            row[k] = (f.coeffs[c] - known) // ys[k][c]
        if _combination(ys, row) != f.coeffs:
            return None
        tau.append(row)
    signs = [(-1) ** (x.dim + y.dim) for x, y in zip(primal, dual)]
    # reduced[t] = sum_i A[t][i] tau[i] vanishes beyond column t, where it is s_t
    reduced, mults = [None] * T, [None] * T
    for t in reversed(range(T)):
        row, mult = tau[t], [0] * t + [1] + [0] * (T - 1 - t)
        for i in range(T - 1, t, -1):
            m = row[i] * signs[i]
            if m:
                row = list(map(sub, row, map(mul, repeat(m), reduced[i])))
                mult = list(map(sub, mult, map(mul, repeat(m), mults[i])))
        if row[t] != signs[t]:
            return None
        reduced[t], mults[t] = row, mult
    return [
        (tuple(mults[t][t:]), tuple(signs[t] * x for x in reduced[t][t::-1]))
        for t in range(T)
    ]


def _solve_paired(pair: StratifiedPair, inv, r: int, p: int):
    """Solve the system of the pair (r, p), given the transforms `inv`: the
    primal row from stratum r on and the dual row from p on, each led by 1."""
    sol = exact_solve(*_signed_system(pair, inv, r, p), _system_name(pair, r, p))
    cut = len(pair.primal) - r - 1
    return (1, *sol[:cut]), (1, *sol[cut:])


def chern_mather(strata: Sequence[Stratum], alpha: Sequence[int]) -> ClassPoly:
    """Weighted sum of class polynomials: the Chern-Mather class of the closure
    of strata[0], whose Euler obstruction along strata[i] is alpha[i]."""
    if len(alpha) != len(strata):
        raise ValueError("weight vector does not match the strata")
    # the modulus pads the sum of no columns to the zero class
    return ClassPoly(
        _combination([s.csm.coeffs for s in strata], alpha),
        strata[0].csm.modulus if strata else None,
    )


def _combination(columns, weights) -> tuple[int, ...]:
    """sum_i weights[i] * columns[i], coefficient by coefficient: a column
    of weight 0 is skipped and one of weight 1 taken as it is; the others
    are weighted in one C-level pass each, and summed in one more.  With
    every weight 0 the sum is ()."""
    cols = [
        col if w == 1 else map(mul, repeat(w), col)
        for w, col in zip(weights, columns)
        if w
    ]
    return tuple(map(sum, zip(*cols)))


def _fill_unpaired(ambient: int, strata, r: int, label: str):
    """Row and method for stratum r of a side, when it has no partner.

    Two decidable cases: the deepest stratum (nothing beneath it, row (1,)),
    and a first stratum whose strata sum to the full ambient class, so its
    closure is projective space itself and the obstruction is 1 everywhere.
    """
    if r == len(strata) - 1:
        return (1,), "deepest stratum"
    if r == 0:
        total = _combination([s.csm.coeffs for s in strata], (1,) * len(strata))
        if total == chern_B(ambient - 1, ambient).coeffs:
            return (1,) * len(strata), "smooth closure"
    raise ValueError(
        f"{label} stratum {strata[r].name!r} has no paired dual stratum and "
        "its row cannot be inferred"
    )


def euler_table(pair: StratifiedPair) -> EulerTable:
    """Solve every paired stratum on both sides and assemble the tables."""
    rows_p: dict[int, tuple[int, ...]] = {}
    rows_d: dict[int, tuple[int, ...]] = {}
    diags: list[dict] = []

    # the transforms of the primal classes serve every paired system; a pair
    # without pairs needs none, and only such a pair has N = 1 (d = 0)
    inv = involute_all([s.csm for s in pair.primal], pair.ambient - 1) if pair.pairing else []
    solved = _chain_rows(pair, inv)
    if solved is None:
        solved = [_solve_paired(pair, inv, r, p) for r, p in pair.pairing]
    for (r, p), (rows_p[r], rows_d[p]) in zip(pair.pairing, solved):
        diags.append(
            {
                "system": _system_name(pair, r, p),
                "unknowns": (len(pair.primal) - r - 1) + (len(pair.dual) - p - 1),
                "equations": pair.ambient,
                "residual": "exact",
                "method": "solved",
            }
        )
    tables, classes = [], []
    for label, strata, rows in (
        ("primal", pair.primal, rows_p),
        ("dual", pair.dual, rows_d),
    ):
        for k, s in enumerate(strata):
            if k in rows:
                continue
            rows[k], method = _fill_unpaired(pair.ambient, strata, k, label)
            diags.append(
                {
                    "system": f"{label}[{k}] {s.name!r}",
                    "unknowns": 0,
                    "equations": 0,
                    "residual": "exact",
                    "method": method,
                }
            )
        tables.append(tuple((0,) * k + rows[k] for k in range(len(strata))))
        classes.append(
            tuple(chern_mather(strata[k:], rows[k]) for k in range(len(strata)))
        )

    # The obstruction of an affine cone at its apex is the weighted count
    # (-1)^(N-1) * sum_k csm_k(-1) * alpha_k: up to the ambient parity, each
    # csm_k(-1) is the Euler characteristic of the part of stratum k surviving
    # a generic hyperplane slice of the cone.  The sum is the class at H = -1.
    sign = (-1) ** (pair.ambient - 1)
    origin = tuple(sign * cm.eval(-1) for cm in classes[0])
    return EulerTable(*tables, origin, *classes, tuple(diags))


def checked_table(pair: StratifiedPair, **closed_forms) -> EulerTable:
    """`euler_table(pair)`, checked entry by entry against the closed forms of
    a generated family, each keyword an `EulerTable` field and its entries;
    the first entry that differs or that one side lacks raises ArithmeticError."""
    table = euler_table(pair)
    for field, expected in closed_forms.items():
        for i, (got, want) in enumerate(zip_longest(getattr(table, field), expected)):
            if got != want:
                raise ArithmeticError(f"solved {field}[{i}] differs from its closed form")
    return table
