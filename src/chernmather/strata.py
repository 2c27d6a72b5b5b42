"""Local Euler obstructions from the class polynomials of dual strata.

Input: the class polynomials of the strata of a projective variety X in
P^(N-1) and of the strata of its dual, plus the pairing saying which dual
stratum closure is the dual variety of which primal stratum closure.

For each paired stratum r the duality transform yields one linear system:

    I_{N-1}( (-1)^dX * sum_{i>=r} a_i * csm_i )
        = (-1)^dY * sum_{j>=p(r)} b_j * csm'_j,     a_r = b_{p(r)} = 1,

with dX, dY the dimensions of the two designated strata.  Matching the
coefficients of H^0..H^(N-1) gives N equations; the unique integer solution
is the family of local Euler obstructions of the closure of stratum r (and,
through the b's, of its dual).  `euler_table` weights the class polynomials
by each row for the Chern-Mather class of every stratum closure on both
sides; a primal class at H = -1 gives the Euler obstruction of its affine
cone at the origin.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from operator import mul

from .classpoly import ClassPoly, chern_B, involute
from .linsolve import InconsistentSystem, LinearSystemError, exact_solve

# Largest accepted N: every class is stored densely with N coefficients and
# each system has N equations.  At N = 1024, on a 2-core VM, a linear flag of
# 40 strata solves in about 5 s: 2 s in the 40 transforms and 1 s in the 40
# systems, whose elimination reads only the first equations of each (the
# residual check covers the rest).
MAX_AMBIENT = 1024

# Largest accepted number of strata on either side.  Each side's count
# bounds both the number of systems and their unknowns, so the solve grows
# about as its cube: at N = 1024 a linear flag of 64 strata takes about 11 s
# on the same VM, and one of 80 strata 20 s.
MAX_STRATA = 64


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass, but true/false are not numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


class Stratum(namedtuple("Stratum", "name csm dim")):
    """A named stratum with its declared dimension and class polynomial.

    The declared dimension orders the strata and sets the parity signs of
    the duality systems (input files always state one); any disagreement
    with the dimension implied by the lowest nonzero coefficient of the
    class is surfaced as a diagnostic, not an error.

    Like the other value classes here and `quadric.QuadricSpec`, a
    namedtuple: immutable, and equal to and hashed as the plain tuple of its
    fields.  Only the constructor checks the fields; namedtuple's `_make`
    and `_replace` build an instance without those checks.
    """

    __slots__ = ()

    def __new__(cls, name: str, csm: ClassPoly, dim: int):
        if csm.is_zero():
            raise ValueError(f"stratum {name!r} has zero class polynomial")
        if dim < 0:
            raise ValueError(f"stratum {name!r} has negative dimension")
        return super().__new__(cls, name, csm, dim)

    def dim_note(self) -> str | None:
        if self.dim != self.csm.dim:
            return (
                f"stratum {self.name!r}: declared dimension {self.dim} "
                f"differs from the class-implied {self.csm.dim}"
            )
        return None


class StratifiedPair(namedtuple("StratifiedPair", "ambient primal dual pairing")):
    """A stratified projective variety together with its stratified dual.

    ambient is N: classes live in Z[H]/(H^N), i.e. inside P^(N-1).  primal
    and dual are tuples of strata, re-sorted by declared dimension (open
    stratum first), which is at most N - 1; pairing is a sorted tuple of
    (primal, dual) index pairs and must make the dual dimensions strictly
    increasing along deeper primal strata.  A namedtuple, as `Stratum`
    describes: `_make` and `_replace` skip the sorting and checks here.
    """

    __slots__ = ()

    def __new__(
        cls,
        ambient: int,
        primal: Iterable[Stratum],
        dual: Iterable[Stratum],
        pairing: Iterable[Sequence[int]],
    ):
        primal, dual = list(primal), list(dual)
        if not primal or not dual:
            raise ValueError("both sides need at least one stratum")

        def _sorted(side, label):
            """Check names, moduli and dimensions, then order by dimension."""
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
                if s.dim > ambient - 1:
                    raise ValueError(
                        f"{label} stratum {s.name!r} has dimension {s.dim}, "
                        f"above that of the ambient P^{ambient - 1}"
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
        pairing = tuple(sorted((pmap[r], dmap[p]) for r, p in pairing))

        # Reflectivity: deeper primal strata must pair with larger duals.
        chain = [dual[p].dim for _, p in pairing]
        if any(a >= b for a, b in zip(chain, chain[1:])):
            raise ValueError(
                "dual dimensions do not increase strictly along the pairing; "
                "the input is not a reflective pair"
            )

        return super().__new__(cls, ambient, primal, dual, pairing)

    def dim_notes(self) -> list[str]:
        notes = [s.dim_note() for s in self.primal + self.dual]
        return [n for n in notes if n]

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
                if not isinstance(csm, list) or not all(
                    _is_int(c) for c in csm
                ):
                    raise ValueError(
                        f"stratum {name!r}: csm must be a list of integers"
                    )
                if len(csm) > ambient and any(c != 0 for c in csm[ambient:]):
                    raise ValueError(
                        f"stratum {name!r}: class exceeds modulus {ambient}"
                    )
                out.append(Stratum(name, ClassPoly(csm, ambient), dim))
            return out

        if not isinstance(raw_pairing, list) or not all(
            isinstance(p, list)
            and len(p) == 2
            and all(_is_int(i) for i in p)
            for p in raw_pairing
        ):
            raise ValueError("pairing must be a list of [r, p] index pairs")
        return cls(
            ambient,
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


def _involutes(pair: StratifiedPair) -> list[ClassPoly]:
    """The transform of every primal class, shared by all paired systems."""
    return [involute(s.csm, pair.ambient - 1) for s in pair.primal]


def _signed_system(pair: StratifiedPair, inv, r: int, p: int, signs=True):
    """Rows and right-hand sides of the coefficient-matching system for
    paired strata (r, p), given the transforms `inv` of the primal classes;
    the unknowns are the primal weights beyond r, then the dual ones beyond p.

    Equations run from H^(N-1) down to H^0: at high powers every stratum
    has a nonzero coefficient, while at low powers all but the largest
    strata vanish, so the solver finds its pivots in the first rows."""
    sx = (-1) ** pair.primal[r].dim if signs else 1
    sy = (-1) ** pair.dual[p].dim if signs else 1
    x, y = inv[r].coeffs, pair.dual[p].csm.coeffs
    prim = [f.coeffs for f in inv[r + 1 :]]
    dual = [s.csm.coeffs for s in pair.dual[p + 1 :]]
    rows, rhs = [], []
    for k in reversed(range(pair.ambient)):
        rows.append([sx * c[k] for c in prim] + [-sy * c[k] for c in dual])
        rhs.append(sy * y[k] - sx * x[k])
    return rows, rhs


def _system_name(pair: StratifiedPair, r: int, p: int) -> str:
    return f"primal[{r}] {pair.primal[r].name!r} <-> dual[{p}] {pair.dual[p].name!r}"


def _solve_paired(pair: StratifiedPair, inv, r: int, p: int):
    """Solve the system of the pair (r, p), given the transforms `inv`: the
    primal row from stratum r on and the dual row from p on, each led by 1."""
    context = _system_name(pair, r, p)
    try:
        sol = exact_solve(*_signed_system(pair, inv, r, p), context)
    except InconsistentSystem as exc:
        # Diagnose whether dropping the parity signs would have worked;
        # that points at wrongly declared stratum dimensions.
        try:
            exact_solve(*_signed_system(pair, inv, r, p, signs=False), context)
        except LinearSystemError:
            raise exc from None
        raise InconsistentSystem(
            f"{exc}; note: the system becomes consistent without the "
            "(-1)^dim parity factors, check the declared stratum dimensions"
        ) from None
    cut = len(pair.primal) - r - 1
    return (1, *sol[:cut]), (1, *sol[cut:])


def chern_mather(strata: Sequence[Stratum], alpha: Sequence[int]) -> ClassPoly:
    """Weighted sum of class polynomials: the Chern-Mather class of the closure
    of strata[0], whose Euler obstruction along strata[i] is alpha[i]."""
    if len(alpha) != len(strata):
        raise ValueError("weight vector does not match the strata")
    columns = zip(*(s.csm.coeffs for s in strata))
    return ClassPoly([sum(map(mul, alpha, col)) for col in columns])


def _fill_unpaired(ambient: int, strata, r: int, label: str):
    """Row and method for stratum r of a side, when it has no partner.

    Two decidable cases: the deepest stratum (nothing beneath it, row (1,)),
    and a first stratum whose strata sum to the full ambient class, so its
    closure is projective space itself and the obstruction is 1 everywhere.
    """
    if r == len(strata) - 1:
        return (1,), "deepest stratum"
    if r == 0:
        total = sum((s.csm for s in strata), ClassPoly.zero(ambient))
        if total == chern_B(ambient - 1, ambient):
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

    # N = 1 has no transform (d = 0), and a file without pairs needs none.
    inv = _involutes(pair) if pair.pairing else []
    for r, p in pair.pairing:
        rows_p[r], rows_d[p] = _solve_paired(pair, inv, r, p)
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
    for note in pair.dim_notes():
        diags.append({"system": "input", "note": note, "residual": "n/a"})
    return EulerTable(*tables, origin, *classes, tuple(diags))
