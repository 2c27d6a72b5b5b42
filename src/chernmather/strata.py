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
through the b's, of its dual).  Weighted sums of the class polynomials then
give Chern-Mather classes, and a signed evaluation at H = -1 the Euler
obstruction of the affine cone at the origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .classpoly import ClassPoly, chern_B, involute
from .linsolve import InconsistentSystem, solve_integer


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass, but true/false are not numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Stratum:
    """A named stratum with its class polynomial.

    The dimension defaults to the one implied by the lowest nonzero
    coefficient of the class; an explicit value wins (input files always
    state one) and any disagreement with the class is surfaced as a
    diagnostic, not an error.
    """

    name: str
    csm: ClassPoly
    dim: int | None = None

    def __post_init__(self):
        if self.csm.is_zero():
            raise ValueError(f"stratum {self.name!r} has zero class polynomial")
        if self.dim is not None and self.dim < 0:
            raise ValueError(f"stratum {self.name!r} has negative dimension")

    @property
    def effective_dim(self) -> int:
        return self.csm.dim if self.dim is None else self.dim

    def dim_note(self) -> str | None:
        if self.dim is not None and self.dim != self.csm.dim:
            return (
                f"stratum {self.name!r}: declared dimension {self.dim} "
                f"differs from the class-implied {self.csm.dim}"
            )
        return None


@dataclass(frozen=True)
class StratifiedPair:
    """A stratified projective variety together with its stratified dual.

    Strata are re-sorted by declared dimension (open stratum first); the
    pairing maps primal indices to dual indices and must make the dual
    dimensions strictly increasing along deeper primal strata.
    """

    ambient: int  # N: classes live in Z[H]/(H^N), i.e. inside P^(N-1)
    primal: tuple[Stratum, ...]
    dual: tuple[Stratum, ...]
    pairing: tuple[tuple[int, int], ...]

    def __init__(
        self,
        ambient: int,
        primal: Iterable[Stratum],
        dual: Iterable[Stratum],
        pairing: Iterable[Sequence[int]],
    ):
        primal = list(primal)
        dual = list(dual)
        pairing = [tuple(p) for p in pairing]
        if not primal or not dual:
            raise ValueError("both sides need at least one stratum")
        seen_r, seen_p = set(), set()
        for r, p in pairing:
            if not (0 <= r < len(primal) and 0 <= p < len(dual)):
                raise ValueError(f"pairing ({r}, {p}) is out of range")
            if r in seen_r or p in seen_p:
                raise ValueError(f"pairing ({r}, {p}) repeats an index")
            seen_r.add(r)
            seen_p.add(p)

        def _sorted(side):
            order = sorted(range(len(side)), key=lambda i: -side[i].effective_dim)
            remap = {old: new for new, old in enumerate(order)}
            return [side[i] for i in order], remap

        primal, pmap = _sorted(primal)
        dual, dmap = _sorted(dual)
        pairing = sorted((pmap[r], dmap[p]) for r, p in pairing)

        for side, label in ((primal, "primal"), (dual, "dual")):
            for s in side:
                if s.csm.modulus != ambient:
                    raise ValueError(
                        f"{label} stratum {s.name!r} has modulus "
                        f"{s.csm.modulus}, expected {ambient}"
                    )
        # Reflectivity: deeper primal strata must pair with larger duals.
        chain = [dual[p].effective_dim for _, p in pairing]
        if any(a >= b for a, b in zip(chain, chain[1:])):
            raise ValueError(
                "dual dimensions do not increase strictly along the pairing; "
                "the input is not a reflective pair"
            )

        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "primal", tuple(primal))
        object.__setattr__(self, "dual", tuple(dual))
        object.__setattr__(self, "pairing", tuple(pairing))

    def dual_index(self, r: int) -> int | None:
        for a, b in self.pairing:
            if a == r:
                return b
        return None

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

        def _strata(raw, label):
            if not isinstance(raw, list) or not raw:
                raise ValueError(f"{label} must be a non-empty list of strata")
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
                {"name": s.name, "dim": s.effective_dim, "csm": s.csm.to_list()}
                for s in strata
            ]

        return {
            "N": self.ambient,
            "primal": _side(self.primal),
            "dual": _side(self.dual),
            "pairing": [list(p) for p in self.pairing],
        }


@dataclass(frozen=True)
class EulerTable:
    """Triangular tables of local Euler obstructions.

    primal[r][j] is the obstruction of the closure of primal stratum r at
    points of stratum j; entries with j < r are 0 (the point lies off the
    closure).  origin[r] is the obstruction of the affine cone over the
    closure of primal stratum r at the cone point.
    """

    primal: tuple[tuple[int, ...], ...]
    dual: tuple[tuple[int, ...], ...]
    origin: tuple[int, ...]
    diagnostics: tuple[dict, ...] = field(default_factory=tuple)


def _signed_system(pair: StratifiedPair, r: int, p: int, signs=True):
    """Rows/rhs of the coefficient-matching system for paired strata (r, p)."""
    n = pair.ambient
    d = n - 1
    sx = (-1) ** pair.primal[r].effective_dim if signs else 1
    sy = (-1) ** pair.dual[p].effective_dim if signs else 1
    inv = [involute(s.csm, d) for s in pair.primal]

    prim_unknowns = list(range(r + 1, len(pair.primal)))
    dual_unknowns = list(range(p + 1, len(pair.dual)))
    rows, rhs = [], []
    for k in range(n):
        row = [sx * inv[i].coeffs[k] for i in prim_unknowns]
        row += [-sy * pair.dual[j].csm.coeffs[k] for j in dual_unknowns]
        rows.append(row)
        rhs.append(sy * pair.dual[p].csm.coeffs[k] - sx * inv[r].coeffs[k])
    return rows, rhs, prim_unknowns, dual_unknowns


def solve_system(pair: StratifiedPair, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Solve the duality system at primal stratum r.

    Returns (alpha, beta): alpha[i] is the Euler obstruction of the closure
    of stratum r at stratum r+i, beta likewise on the dual side starting at
    the paired stratum; both are normalized to 1 at their first entry.
    """
    p = pair.dual_index(r)
    if p is None:
        raise ValueError(
            f"primal stratum {pair.primal[r].name!r} has no paired dual stratum"
        )
    context = f"primal[{r}] {pair.primal[r].name!r} <-> dual[{p}] {pair.dual[p].name!r}"
    rows, rhs, prim_unknowns, dual_unknowns = _signed_system(pair, r, p)
    try:
        sol = solve_integer(rows, rhs, context)
    except InconsistentSystem as exc:
        # Diagnose whether dropping the parity signs would have worked;
        # that points at wrongly declared stratum dimensions.
        try:
            u_rows, u_rhs, _, _ = _signed_system(pair, r, p, signs=False)
            solve_integer(u_rows, u_rhs, context)
        except Exception:
            raise exc from None
        raise InconsistentSystem(
            f"{exc}; note: the system becomes consistent without the "
            "(-1)^dim parity factors, check the declared stratum dimensions"
        ) from None
    alpha = (1, *sol[: len(prim_unknowns)])
    beta = (1, *sol[len(prim_unknowns):])
    return alpha, beta


def chern_mather(
    pair: StratifiedPair, r: int, alpha: Sequence[int], side: str = "primal"
) -> ClassPoly:
    """Weighted sum of class polynomials: the Chern-Mather class of the
    closure of stratum r, with weights alpha from solve_system."""
    strata = pair.primal if side == "primal" else pair.dual
    if len(alpha) != len(strata) - r:
        raise ValueError("weight vector does not match the strata from r on")
    out = ClassPoly.zero(pair.ambient)
    for a, s in zip(alpha, strata[r:]):
        out = out + a * s.csm
    return out


def eu_at_origin(pair: StratifiedPair, r: int, alpha: Sequence[int]) -> int:
    """Euler obstruction of the affine cone over the closure of primal
    stratum r at the cone point.

    This is the weighted count (-1)^(N-1) * sum_k csm_k(-1) * alpha_k: each
    csm_k(-1) is, up to the ambient parity, the Euler characteristic of the
    part of stratum k surviving a generic hyperplane slice of the cone.
    """
    if len(alpha) != len(pair.primal) - r:
        raise ValueError("weight vector does not match the strata from r on")
    total = sum(
        a * s.csm.eval(-1) for a, s in zip(alpha, pair.primal[r:])
    )
    return total if (pair.ambient - 1) % 2 == 0 else -total


def _fill_unpaired(pair: StratifiedPair, side: str, r: int) -> tuple[int, ...]:
    """Rows for strata without a dual partner.

    Two decidable cases: the deepest stratum (nothing beneath it, row (1,)),
    and a first stratum whose strata sum to the full ambient class, so its
    closure is projective space itself and the obstruction is 1 everywhere.
    """
    strata = pair.primal if side == "primal" else pair.dual
    if r == len(strata) - 1:
        return (1,)
    if r == 0:
        total = ClassPoly.zero(pair.ambient)
        for s in strata:
            total = total + s.csm
        if total == chern_B(pair.ambient - 1, pair.ambient):
            return (1,) * len(strata)
    raise ValueError(
        f"{side} stratum {strata[r].name!r} has no paired dual stratum and "
        "its row cannot be inferred"
    )


def euler_table(pair: StratifiedPair) -> EulerTable:
    """Solve every paired stratum on both sides and assemble the tables."""
    n_p, n_d = len(pair.primal), len(pair.dual)
    rows_p: dict[int, tuple[int, ...]] = {}
    rows_d: dict[int, tuple[int, ...]] = {}
    diags: list[dict] = []

    for r, p in pair.pairing:
        alpha, beta = solve_system(pair, r)
        rows_p[r] = alpha
        rows_d[p] = beta
        diags.append(
            {
                "system": f"primal[{r}] {pair.primal[r].name!r}"
                f" <-> dual[{p}] {pair.dual[p].name!r}",
                "unknowns": (n_p - r - 1) + (n_d - p - 1),
                "equations": pair.ambient,
                "residual": "exact",
                "method": "solved",
            }
        )
    for side, count, rows in (("primal", n_p, rows_p), ("dual", n_d, rows_d)):
        for r in range(count):
            if r in rows:
                continue
            rows[r] = _fill_unpaired(pair, side, r)
            strata = pair.primal if side == "primal" else pair.dual
            diags.append(
                {
                    "system": f"{side}[{r}] {strata[r].name!r}",
                    "unknowns": 0,
                    "equations": 0,
                    "residual": "exact",
                    "method": "deepest stratum" if r == count - 1 else "smooth closure",
                }
            )

    primal = tuple(
        (0,) * r + tuple(rows_p[r]) for r in range(n_p)
    )
    dual = tuple(
        (0,) * r + tuple(rows_d[r]) for r in range(n_d)
    )
    origin = tuple(eu_at_origin(pair, r, rows_p[r]) for r in range(n_p))
    for note in pair.dim_notes():
        diags.append({"system": "input", "note": note, "residual": "n/a"})
    return EulerTable(primal, dual, origin, tuple(diags))
