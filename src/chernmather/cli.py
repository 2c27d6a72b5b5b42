"""Command-line front end.

Subcommands: involute | solve | detvar | quadric | chow.  Each handler
returns the inputs, outputs and diagnostics of its report, and the
stratified pair that `--emit-strata` asked for or None; `main` alone wraps
the rest in the report {"command", "inputs", "outputs", "diagnostics"},
renders the report and the pair, and only then writes them.  Reports are
deterministic (JSON by default, sorted keys, no timestamps); integers
beyond 64 bits are serialized as decimal strings.
Exit codes: 0 success, 2 malformed input, 3 mathematical inconsistency.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import detvar as dv
from . import quadric as qd
from .classpoly import ClassPoly, involute, render_combination
from .grassmann import ChowElement, integrate, lr_multiply, normalize_partition
from .linsolve import LinearSystemError
from .strata import MAX_AMBIENT, EulerTable, StratifiedPair, euler_table

_INT64_MAX = 2**63 - 1
# Largest n accepted by `detvar` (n = 12, 13 and 14 take about 0.9, 1.5 and
# 4 to 7 s on a 2-core VM; an even n localizes one more r than the odd n
# below it) and by `chow` (at most C(20, 10) Schubert classes; the work of
# each product is bounded by grassmann.MAX_LR_TABLEAUX).
MAX_DETVAR_N = 14
MAX_CHOW_N = 20


def _stringify_big(value):
    """Big integers become decimal strings so reports survive any JSON reader;
    tuples become lists and a ClassPoly becomes its coefficient list."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _INT64_MAX else value
    if isinstance(value, ClassPoly):
        return _stringify_big(value.coeffs)
    if isinstance(value, (list, tuple)):
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


def _render(report: dict, fmt: str) -> str:
    report = _stringify_big(report)
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    return "\n".join(_render_text(report)) + "\n"


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


def _at_most(what: str, value: int, limit: int) -> None:
    if value > limit:
        raise ValueError(f"need {what} at most {limit}, got {value}")


def _table_payload(table: EulerTable) -> dict:
    return {
        "euler_table_primal": table.primal,
        "euler_table_dual": table.dual,
        "origin_column": table.origin,
    }


def _chern_mather_payload(table: EulerTable, pair: StratifiedPair) -> dict:
    """The Chern-Mather class of each stratum closure, by stratum name."""
    primal = {s.name: cm for s, cm in zip(pair.primal, table.chern_mather_primal)}
    dual = {s.name: cm for s, cm in zip(pair.dual, table.chern_mather_dual)}
    return {"chern_mather_primal": primal, "chern_mather_dual": dual}


def _cmd_involute(args):
    coeffs = _parse_coeffs(args.poly)
    modulus = max(len(coeffs), args.d + 2)
    _at_most("--d + 2 and the --poly length", modulus, MAX_AMBIENT)
    result = involute(ClassPoly(coeffs, modulus), args.d)
    # trailing zeros dropped; the zero class keeps its constant term
    trimmed = result.coeffs[: max(result.degree, 0) + 1]
    outputs = {"result": trimmed, "text": result.text()}
    return {"d": args.d, "poly": coeffs}, outputs, {}, None


def _cmd_solve(args):
    try:
        with open(args.strata, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {args.strata}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.strata} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"{args.strata} is nested too deeply to read as JSON") from exc
    pair = StratifiedPair.from_dict(data)
    table = euler_table(pair)
    outputs = {**_table_payload(table), **_chern_mather_payload(table, pair)}
    return pair.to_dict(), outputs, {"systems": table.diagnostics}, None


def _cmd_detvar(args):
    n = args.n
    if n < 2:
        raise ValueError("need --n at least 2")
    _at_most("--n", n, MAX_DETVAR_N)
    q, pair, table = dv.eu_table_det(n)
    outputs = {**_table_payload(table), **_chern_mather_payload(table, pair)}
    for r in range(n):
        outputs[f"q_{n}_{r}"] = q[r]
    for k, stratum in enumerate(pair.primal):
        outputs[f"csm_{n}_{k}"] = stratum.csm
    for r in range(1, n):
        outputs[f"duality_{n}_{r}"] = dv.duality_check(q, r)
    diagnostics = {"systems": table.diagnostics}
    emitted = pair if args.emit_strata is not None else None
    return {"n": n}, outputs, diagnostics, emitted


def _cmd_quadric(args):
    _at_most("--n + 1", args.n + 1, MAX_AMBIENT)
    spec = qd.QuadricSpec(args.n, args.rank)
    x_dual, s_dual = qd.dual_cm_classes(spec)
    eu_generic, eu_singular = qd.eu_values(spec)
    outputs = {
        "csm": qd.csm_quadric(spec),
        "chern_mather": qd.chern_mather_quadric(spec),
        "milnor_class": qd.milnor_class(spec),
        "eu_generic": eu_generic,
        "eu_singular": eu_singular,
        "complex_link_chi": qd.complex_link_chi(),
        "dual_quadric_cm": x_dual,
        "dual_singular_cm": s_dual,
    }
    diagnostics: dict = {}
    if spec.is_smooth:
        outputs["milnor_number"] = None
        diagnostics["milnor_note"] = "smooth quadric: Milnor class is zero"
    else:
        outputs["milnor_number"] = qd.milnor_number(spec)
        table = qd.cross_validate(spec)
        outputs["cross_validation"] = "ok"
        outputs.update(_table_payload(table))
        diagnostics["systems"] = table.diagnostics
    pair = qd.build_pair(spec) if args.emit_strata is not None else None
    return {"n": args.n, "rank": args.rank}, outputs, diagnostics, pair


def _join(p: tuple[int, ...]) -> str:
    return ",".join(str(x) for x in p)


def _render_chow(elem: ChowElement) -> str:
    order = sorted(elem.terms, key=lambda p: (sum(p), tuple(-x for x in p)))
    names = ("sigma_" + "_".join(map(str, p)) if p else "" for p in order)
    return render_combination(zip((elem.terms[p] for p in order), names))


def _cmd_chow(args):
    r, n = args.r, args.n
    if not 0 <= r <= n:
        raise ValueError(f"G({r},{n}) is not a Grassmannian")
    _at_most("--n", n, MAX_CHOW_N)
    mode = "mult" if args.mult else "integrate"
    parts = [_parse_partition(p) for p in getattr(args, mode)]
    inputs = {"r": r, "n": n, mode: [_join(p) for p in parts]}
    # sigma of the empty partition is the unit, so it is not multiplied in
    factors = [ChowElement.sigma(p, r, n) for p in parts if p]
    if args.integrate and sum(map(sum, parts)) != r * (n - r):
        return inputs, {"integral": 0}, {}, None  # 0 by degree
    elem = ChowElement.one(r, n)
    for f in factors:
        elem = lr_multiply(elem, f)
    if args.mult:
        outputs = {
            "product": _render_chow(elem),
            "terms": {_join(p): c for p, c in sorted(elem.terms.items())},
        }
    else:
        outputs = {"integral": integrate(elem)}
    return inputs, outputs, {}, None


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
    p_inv.set_defaults(handler=_cmd_involute)
    p_inv.add_argument("--d", type=int, required=True)
    p_inv.add_argument("--poly", required=True, help="comma list, ascending powers")

    p_solve = sub.add_parser("solve", help="solve a stratification file")
    p_solve.set_defaults(handler=_cmd_solve)
    p_solve.add_argument("strata", help="stratification JSON file")

    p_det = sub.add_parser("detvar", help="rank strata of n x n matrices")
    p_det.set_defaults(handler=_cmd_detvar)
    p_det.add_argument("--n", type=int, required=True)
    p_det.add_argument("--emit-strata", metavar="FILE", default=None)

    p_quad = sub.add_parser("quadric", help="rank-r quadric hypersurface in P^n")
    p_quad.set_defaults(handler=_cmd_quadric)
    p_quad.add_argument("--n", type=int, required=True)
    p_quad.add_argument("--rank", type=int, required=True)
    p_quad.add_argument("--emit-strata", metavar="FILE", default=None)

    p_chow = sub.add_parser("chow", help="Schubert calculus on G(r, n)")
    p_chow.set_defaults(handler=_cmd_chow)
    p_chow.add_argument("--r", type=int, required=True)
    p_chow.add_argument("--n", type=int, required=True)
    group = p_chow.add_mutually_exclusive_group(required=True)
    group.add_argument("--mult", nargs=2, metavar=("LAMBDA", "MU"))
    group.add_argument("--integrate", nargs="+", metavar="PARTITION")

    for p in (p_inv, p_solve, p_det, p_quad, p_chow):
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        inputs, outputs, diagnostics, pair = args.handler(args)
        if pair is not None:
            # the solver input of a generated family, ready for `solve`
            strata_text = json.dumps(pair.to_dict(), sort_keys=True, indent=2) + "\n"
            diagnostics["emitted"] = args.emit_strata
        report = {
            "command": args.command,
            "inputs": inputs,
            "outputs": outputs,
            "diagnostics": diagnostics,
        }
        # render both texts before writing either, and write the report
        # first, so that a report that cannot be written leaves no file behind;
        # if the strata file then cannot be written, the report naming it is
        # removed again, unless its path existed before this run
        text = _render(report, args.format)
        created = args.out is not None and not os.path.lexists(args.out)
        if args.out is not None:
            _write(args.out, text)
        if pair is not None:
            try:
                _write(args.emit_strata, strata_text)
            except ValueError:
                if created:
                    os.remove(args.out)
                raise
        if args.out is None:
            sys.stdout.write(text)
    except (LinearSystemError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
