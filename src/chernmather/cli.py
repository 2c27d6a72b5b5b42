"""Command-line front end.

Subcommands: involute | solve | detvar | quadric | chow.  Each handler
returns the inputs, outputs and diagnostics of its report, and the
stratified pair that `--emit-strata` asked for or None; `main` alone wraps
the rest in the report {"command", "inputs", "outputs", "diagnostics"},
renders the report and the pair, and only then writes them.  Reports are
deterministic (JSON by default, sorted keys, no timestamps); integers
beyond 64 bits are serialized as decimal strings.  `_json` renders a report
in one walk, byte for byte what json.dumps(..., sort_keys=True, indent=2)
writes once those integers are strings; a list whose integers all fit in
64 bits, such as most class polynomials, goes whole to the C encoder of the
json module.  The `--emit-strata` file keeps every integer a JSON number,
since `solve` reads no strings, and json.dumps writes it.
A run builds the argparse parser of the subcommand it names and no other
(all five when it names none), so messages are argparse's own.
Exit codes: 0 success, 2 malformed input, 3 mathematical inconsistency.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import JSONEncoder, encode_basestring_ascii

from . import detvar as dv
from . import quadric as qd
from .classpoly import ClassPoly, involute, render_combination
from .grassmann import ChowElement, integrate, lr_multiply, normalize_partition
from .linsolve import LinearSystemError
from .strata import MAX_AMBIENT, EulerTable, StratifiedPair, euler_table

_INT64_MAX = 2**63 - 1
_c_encode = JSONEncoder().encode
# Largest n accepted by `detvar` (n = 12, 13 and 14 take about 0.9, 1.5 and
# 4 to 7 s on a 2-core VM; an even n localizes one more r than the odd n
# below it) and by `chow` (at most C(20, 10) Schubert classes; the work of
# each product is bounded by grassmann.MAX_LR_TABLEAUX).
MAX_DETVAR_N = 14
MAX_CHOW_N = 20
# Python converts an integer to or from decimal text only up to
# sys.get_int_max_str_digits() digits, 4300 by default
_TOO_LONG = (
    "{} has an integer of more than {} digits, beyond Python's limit for decimal text"
)


def _json(value, indent: str | None = None) -> str:
    """JSON text of a report value, with integers beyond 64 bits as quoted
    decimals, tuples as lists and a ClassPoly as its coefficient list.  A
    tuple subclass, such as a namedtuple value class, raises TypeError.

    With `indent`, the indentation of the line the value starts on, the text
    is what json.dumps(value, sort_keys=True, indent=2) writes; with None it
    is one line, as json.dumps(value) writes it.
    """
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        if -_INT64_MAX <= value <= _INT64_MAX:
            return int.__repr__(value)
        try:
            return f'"{value}"'
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise ValueError(_TOO_LONG.format("the report", limit)) from None
    if isinstance(value, ClassPoly):
        value = value.coeffs
    inner = None if indent is None else indent + "  "
    if isinstance(value, dict):
        keys = value if indent is None else sorted(value)
        items = [
            f"{encode_basestring_ascii(k)}: {_json(value[k], inner)}" for k in keys
        ]
        opening, closing = "{", "}"
    elif type(value) in (list, tuple):
        if (
            set(map(type, value)) == {int}
            and -_INT64_MAX <= min(value)
            and max(value) <= _INT64_MAX
        ):
            # the C encoder writes the items, ", " between them
            text = _c_encode(value)
            if indent is None:
                return text
            items = text[1:-1].split(", ")
        else:
            items = [_json(v, inner) for v in value]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"cannot render a {type(value).__name__} in a report")
    if not items:
        return opening + closing
    if indent is None:
        return opening + ", ".join(items) + closing
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}"


def _render_text(payload, prefix="") -> list[str]:
    lines = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            lines.extend(_render_text(payload[key], f"{prefix}{key}."))
    else:
        lines.append(f"{prefix[:-1]} = {_json(payload)}")
    return lines


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(report, "") + "\n"
    return "\n".join(_render_text(report)) + "\n"


def _parse_ints(text: str, what: str) -> list[int]:
    """The integers of the comma list `text`, a `what` of the command line."""
    ints = []
    for tok in text.split(","):
        try:
            ints.append(int(tok))
        except ValueError as exc:
            digits = tok.strip()
            if digits[:1] in ("+", "-"):
                digits = digits[1:]
            if digits.isdecimal():
                # int() refuses a literal of decimal digits only past the limit
                limit = sys.get_int_max_str_digits()
                raise ValueError(_TOO_LONG.format(f"the {what}", limit)) from None
            cut = "..." if len(text) > 80 else ""  # echo at most 80 characters
            raise ValueError(f"malformed {what} {text[:80]!r}{cut}") from exc
    return ints


def _parse_partition(text: str) -> tuple[int, ...]:
    return normalize_partition(_parse_ints(text, "partition") if text else [])


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
    coeffs = _parse_ints(args.poly, "coefficient list")
    modulus = max(len(coeffs), args.d + 2)
    _at_most("--d + 2 and the --poly length", modulus, MAX_AMBIENT)
    result = involute(ClassPoly(coeffs, modulus), args.d)
    # trailing zeros dropped; the zero class keeps its constant term
    trimmed = result.coeffs[: max(result.degree, 0) + 1]
    try:
        text = result.text()
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(_TOO_LONG.format("the report", limit)) from None
    return {"d": args.d, "poly": coeffs}, {"result": trimmed, "text": text}, {}, None


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
    except UnicodeDecodeError as exc:
        raise ValueError(f"{args.strata} is not UTF-8 text: {exc}") from exc
    except ValueError:
        # json reads digits with int(), which refuses more than the limit
        limit = sys.get_int_max_str_digits()
        raise ValueError(_TOO_LONG.format(args.strata, limit)) from None
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
        outputs[f"duality_{n}_{r}"] = True  # else eu_table_det raised
    diagnostics = {"systems": table.diagnostics}
    emitted = pair if args.emit_strata is not None else None
    return {"n": n}, outputs, diagnostics, emitted


def _cmd_quadric(args):
    _at_most("--n + 1", args.n + 1, MAX_AMBIENT)
    spec = qd.QuadricSpec(args.n, args.rank)
    pair = qd.build_pair(spec)
    csm = sum((s.csm for s in pair.primal[1:]), pair.primal[0].csm)
    eu_generic, eu_singular = qd.eu_values(spec)
    outputs = {
        "csm": csm,
        "milnor_class": qd.milnor_class(spec),
        "eu_generic": eu_generic,
        "eu_singular": eu_singular,
        "complex_link_chi": qd.complex_link_chi(),
        "dual_quadric_cm": pair.dual[0].csm,
        "dual_singular_cm": qd.dual_cm_classes(spec)[1],
    }
    diagnostics: dict = {}
    if spec.is_smooth:
        outputs["chern_mather"] = csm
        outputs["milnor_number"] = None
        diagnostics["milnor_note"] = "smooth quadric: Milnor class is zero"
    else:
        table = qd.cross_validate(spec, pair)
        outputs["chern_mather"] = table.chern_mather_primal[0]
        outputs["milnor_number"] = qd.milnor_number(spec)
        outputs["cross_validation"] = "ok"
        outputs.update(_table_payload(table))
        diagnostics["systems"] = table.diagnostics
    emitted = pair if args.emit_strata is not None else None
    return {"n": args.n, "rank": args.rank}, outputs, diagnostics, emitted


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


_COMMANDS = ("involute", "solve", "detvar", "quadric", "chow")


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of `argv`: the top level and the subcommand argv[0] names,
    or all five when it names none, so that help and "invalid choice" errors
    list every choice."""
    parser = argparse.ArgumentParser(
        prog="chernmather",
        description=(
            "Exact Euler obstructions, Chern-Mather classes and related "
            "invariants of stratified projective varieties"
        ),
    )
    named = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    # one subcommand built: the metavar keeps all five in an error's usage
    # line; all five: no metavar, so that errors name the argument "command"
    choices = "{" + ",".join(_COMMANDS) + "}" if len(named) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=choices)
    for name in named:
        if name == "involute":
            p = sub.add_parser(name, help="apply the degree-d duality transform")
            p.set_defaults(handler=_cmd_involute)
            p.add_argument("--d", type=int, required=True)
            p.add_argument("--poly", required=True, help="comma list, ascending powers")
        elif name == "solve":
            p = sub.add_parser(name, help="solve a stratification file")
            p.set_defaults(handler=_cmd_solve)
            p.add_argument("strata", help="stratification JSON file")
        elif name == "detvar":
            p = sub.add_parser(name, help="rank strata of n x n matrices")
            p.set_defaults(handler=_cmd_detvar)
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--emit-strata", metavar="FILE", default=None)
        elif name == "quadric":
            p = sub.add_parser(name, help="rank-r quadric hypersurface in P^n")
            p.set_defaults(handler=_cmd_quadric)
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--rank", type=int, required=True)
            p.add_argument("--emit-strata", metavar="FILE", default=None)
        else:  # chow
            p = sub.add_parser(name, help="Schubert calculus on G(r, n)")
            p.set_defaults(handler=_cmd_chow)
            p.add_argument("--r", type=int, required=True)
            p.add_argument("--n", type=int, required=True)
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--mult", nargs=2, metavar=("LAMBDA", "MU"))
            group.add_argument("--integrate", nargs="+", metavar="PARTITION")
        p.add_argument("--out", default=None, help="write the report to a file")
        p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    try:
        emit = getattr(args, "emit_strata", None)
        if emit is not None and args.out is not None:
            if os.path.realpath(emit) == os.path.realpath(args.out):
                raise ValueError(
                    f"--out {args.out} and --emit-strata {emit} name one file"
                )
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
