"""Command-line front end.

Subcommands: involute | solve | detvar | quadric | chow.  Every command
emits a deterministic report (JSON by default, sorted keys, no timestamps);
integers beyond 64 bits are serialized as decimal strings.  Exit codes:
0 success, 2 malformed input, 3 mathematical inconsistency detected.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import detvar as dv
from . import quadric as qd
from .classpoly import ClassPoly, involute
from .grassmann import ChowElement, integrate, lr_multiply, normalize_partition
from .linsolve import LinearSystemError
from .strata import MAX_AMBIENT, EulerTable, StratifiedPair, chern_mather, euler_table

_INT64_MAX = 2**63 - 1
# Largest n accepted by `detvar` (each step costs about 2.4x the last; n = 14
# takes about 14 s) and by `chow` (at most C(20, 10) Schubert classes).
MAX_DETVAR_N = 14
MAX_CHOW_N = 20


def _stringify_big(value):
    """Big integers become decimal strings so reports survive any JSON reader."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _INT64_MAX else value
    if isinstance(value, list):
        return [_stringify_big(v) for v in value]
    if isinstance(value, tuple):
        return [_stringify_big(v) for v in value]
    if isinstance(value, dict):
        return {k: _stringify_big(v) for k, v in value.items()}
    return value


def _render_text(payload, prefix="") -> list[str]:
    lines = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            lines.extend(_render_text(payload[key], f"{prefix}{key}."))
    else:
        lines.append(f"{prefix[:-1]} = {json.dumps(payload)}")
    return lines


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _emit(report: dict, args) -> None:
    report = _stringify_big(report)
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = "\n".join(_render_text(report)) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def _parse_coeffs(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed coefficient list {text!r}") from exc


def _parse_partition(text: str) -> tuple[int, ...]:
    try:
        parts = [int(tok) for tok in text.split(",")] if text else []
    except ValueError as exc:
        raise ValueError(f"malformed partition {text!r}") from exc
    return normalize_partition(parts)


def _trimmed(coeffs) -> list[int]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _table_payload(table: EulerTable, pair: StratifiedPair) -> dict:
    cm_primal = {}
    for r in range(len(pair.primal)):
        cm = chern_mather(pair, r, table.primal[r][r:])
        cm_primal[pair.primal[r].name] = cm.to_list()
    cm_dual = {}
    for r in range(len(pair.dual)):
        cm = chern_mather(pair, r, table.dual[r][r:], side="dual")
        cm_dual[pair.dual[r].name] = cm.to_list()
    return {
        "euler_table_primal": [list(row) for row in table.primal],
        "euler_table_dual": [list(row) for row in table.dual],
        "origin_column": list(table.origin),
        "chern_mather_primal": cm_primal,
        "chern_mather_dual": cm_dual,
    }


def _emit_strata(report: dict, pair: StratifiedPair, path: str) -> None:
    """Write the solver input of a generated family, ready for `solve`."""
    _write(path, json.dumps(pair.to_dict(), sort_keys=True, indent=2) + "\n")
    report["diagnostics"]["emitted"] = path


def _cmd_involute(args) -> dict:
    coeffs = _parse_coeffs(args.poly)
    modulus = max(len(coeffs), args.d + 2)
    if modulus > MAX_AMBIENT:
        raise ValueError(
            f"need --d + 2 and the --poly length at most {MAX_AMBIENT}, got {modulus}"
        )
    result = involute(ClassPoly(coeffs, modulus), args.d)
    return {
        "command": "involute",
        "inputs": {"d": args.d, "poly": coeffs},
        "outputs": {
            "result": _trimmed(result.coeffs),
            "text": result.text(),
        },
        "diagnostics": {},
    }


def _cmd_solve(args) -> dict:
    try:
        with open(args.strata, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {args.strata}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.strata} is not valid JSON: {exc}") from exc
    pair = StratifiedPair.from_dict(data)
    table = euler_table(pair)
    return {
        "command": "solve",
        "inputs": pair.to_dict(),
        "outputs": _table_payload(table, pair),
        "diagnostics": {"systems": list(table.diagnostics)},
    }


def _cmd_detvar(args) -> dict:
    n = args.n
    if n < 2:
        raise ValueError("need --n at least 2")
    if n > MAX_DETVAR_N:
        raise ValueError(f"need --n at most {MAX_DETVAR_N}, got {n}")
    pair = dv.build_pair(n)
    table = dv.eu_table_det(n)
    outputs = _table_payload(table, pair)
    for r in range(n):
        outputs[f"q_{n}_{r}"] = dv.q_poly(n, r).to_list()
    for k in range(n):
        outputs[f"csm_{n}_{k}"] = dv.csm_stratum(n, k).to_list()
    for r in range(1, n):
        outputs[f"duality_{n}_{r}"] = dv.duality_check(n, r)
    report = {
        "command": "detvar",
        "inputs": {"n": n},
        "outputs": outputs,
        "diagnostics": {"systems": list(table.diagnostics)},
    }
    if args.emit_strata:
        _emit_strata(report, pair, args.emit_strata)
    return report


def _cmd_quadric(args) -> dict:
    if args.n + 1 > MAX_AMBIENT:
        raise ValueError(f"need --n + 1 at most {MAX_AMBIENT}, got {args.n + 1}")
    spec = qd.QuadricSpec(args.n, args.rank)
    csm = qd.csm_quadric(spec)
    milnor = qd.milnor_class(spec)
    x_dual, s_dual = qd.dual_cm_classes(spec)
    eu_generic, eu_singular = qd.eu_values(spec)
    outputs = {
        "csm": csm.to_list(),
        "chern_mather": qd.chern_mather_quadric(spec).to_list(),
        "milnor_class": milnor.to_list(),
        "eu_generic": eu_generic,
        "eu_singular": eu_singular,
        "complex_link_chi": qd.complex_link_chi(),
        "dual_quadric_cm": x_dual.to_list(),
        "dual_singular_cm": s_dual.to_list() if s_dual else None,
    }
    diagnostics: dict = {}
    if spec.is_smooth:
        outputs["milnor_number"] = None
        diagnostics["milnor_note"] = "smooth quadric: Milnor class is zero"
    else:
        outputs["milnor_number"] = qd.milnor_number(spec)
        table = qd.cross_validate(spec)
        outputs["cross_validation"] = "ok"
        outputs["euler_table_primal"] = [list(row) for row in table.primal]
        outputs["euler_table_dual"] = [list(row) for row in table.dual]
        outputs["origin_column"] = list(table.origin)
        diagnostics["systems"] = list(table.diagnostics)
    report = {
        "command": "quadric",
        "inputs": {"n": args.n, "rank": args.rank},
        "outputs": outputs,
        "diagnostics": diagnostics,
    }
    if args.emit_strata:
        _emit_strata(report, qd.build_pair(spec), args.emit_strata)
    return report


def _join(p: tuple[int, ...]) -> str:
    return ",".join(str(x) for x in p)


def _sigma_name(p: tuple[int, ...]) -> str:
    return "sigma_" + "_".join(str(x) for x in p) if p else "1"


def _render_chow(elem: ChowElement) -> str:
    if elem.is_zero():
        return "0"
    bits = []
    for p in sorted(elem.terms, key=lambda q: (sum(q), tuple(-x for x in q))):
        c = elem.terms[p]
        name = _sigma_name(p)
        if c == 1 and p:
            term = name
        elif c == -1 and p:
            term = "-" + name
        else:
            term = f"{c}*{name}" if p else str(c)
        if not bits:
            bits.append(term)
        elif term.startswith("-"):
            bits.append("- " + term[1:])
        else:
            bits.append("+ " + term)
    return " ".join(bits)


def _cmd_chow(args) -> dict:
    r, n = args.r, args.n
    if not 0 <= r <= n:
        raise ValueError(f"G({r},{n}) is not a Grassmannian")
    if n > MAX_CHOW_N:
        raise ValueError(f"need --n at most {MAX_CHOW_N}, got {n}")
    mode = "mult" if args.mult else "integrate"
    parts = [_parse_partition(p) for p in getattr(args, mode)]
    elem = ChowElement.one(r, n)
    for p in parts:
        elem = lr_multiply(elem, ChowElement.sigma(p, r, n))
    if args.mult:
        outputs = {
            "product": _render_chow(elem),
            "terms": {_join(p): c for p, c in sorted(elem.terms.items())},
        }
    else:
        outputs = {"integral": integrate(elem)}
    return {
        "command": "chow",
        "inputs": {"r": r, "n": n, mode: [_join(p) for p in parts]},
        "outputs": outputs,
        "diagnostics": {},
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chernmather",
        description=(
            "Exact Euler obstructions, Chern-Mather classes and related "
            "invariants of stratified projective varieties"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("involute", help="apply the degree-d duality transform")
    p_inv.add_argument("--d", type=int, required=True)
    p_inv.add_argument("--poly", required=True, help="comma list, ascending powers")

    p_solve = sub.add_parser("solve", help="solve a stratification file")
    p_solve.add_argument("strata", help="stratification JSON file")

    p_det = sub.add_parser("detvar", help="rank strata of n x n matrices")
    p_det.add_argument("--n", type=int, required=True)
    p_det.add_argument("--emit-strata", metavar="FILE", default=None)

    p_quad = sub.add_parser("quadric", help="rank-r quadric hypersurface in P^n")
    p_quad.add_argument("--n", type=int, required=True)
    p_quad.add_argument("--rank", type=int, required=True)
    p_quad.add_argument("--emit-strata", metavar="FILE", default=None)

    p_chow = sub.add_parser("chow", help="Schubert calculus on G(r, n)")
    p_chow.add_argument("--r", type=int, required=True)
    p_chow.add_argument("--n", type=int, required=True)
    group = p_chow.add_mutually_exclusive_group(required=True)
    group.add_argument("--mult", nargs=2, metavar=("LAMBDA", "MU"))
    group.add_argument("--integrate", nargs="+", metavar="PARTITION")

    for p in (p_inv, p_solve, p_det, p_quad, p_chow):
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


_HANDLERS = {
    "involute": _cmd_involute,
    "solve": _cmd_solve,
    "detvar": _cmd_detvar,
    "quadric": _cmd_quadric,
    "chow": _cmd_chow,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(_HANDLERS[args.command](args), args)
    except (LinearSystemError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
