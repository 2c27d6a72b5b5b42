"""Command-line front end.

Subcommands: involute | solve | detvar | quadric | chow.  Each handler
returns the inputs, outputs and diagnostics of its report, and the
stratified pair of a generated family or None; `main` alone wraps the rest
in the report {"command", "inputs", "outputs", "diagnostics"}, renders the
report and the pair `--emit-strata` asks for, and only then writes them.
A run that exits non-zero removes every file it created.  Reports are
deterministic (JSON by default, sorted keys, no timestamps); integers
beyond 64 bits are serialized as decimal strings.  `_json` renders a report
in one walk, byte for byte what json.dumps(..., sort_keys=True, indent=2)
writes once those integers are strings; a list whose integers all fit in
64 bits, such as most class polynomials, is written in one C-level pass of
int.__repr__ over its items.  The `--emit-strata` file keeps every integer
a JSON number, since `solve` reads no strings, and json.dumps writes it.
`_plain_args` reads a well-formed command line.  Any other (help, errors,
abbreviations such as `--fo`, `--n=3`, `--`, negative numbers, repeated
options) goes to argparse, which builds the parser of every subcommand, so
help and messages are argparse's own.
Exit codes: 0 success, 1 stdout's reader gone before the report was
written, 2 malformed input or a report that cannot be written (stdout
closed at start-up among them), 3 mathematical inconsistency; an error
message that stderr cannot take changes neither.
"""

from __future__ import annotations

import json
import os
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import detvar as dv
from . import quadric as qd
from .classpoly import ClassPoly, csm_linear_space, involute, render_combination
from .grassmann import ChowElement, integrate, lr_multiply, normalize_partition
from .linsolve import LinearSystemError
from .strata import MAX_AMBIENT, EulerTable, StratifiedPair, euler_table

_INT64_MAX = 2**63 - 1
# Largest n accepted by `detvar` (n = 12, 13 and 14 take about 0.3, 0.6 to 0.7
# and 1.6 to 1.8 s on a 2-core VM; an even n localizes one more r than the odd
# n below it) and by `chow` (at most C(20, 10) Schubert classes; the work of
# each product is bounded by grassmann.MAX_LR_TABLEAUX).
MAX_DETVAR_N = 14
MAX_CHOW_N = 20


class _TooLong(ValueError):
    """An integer in `where` that Python cannot convert to or from decimal
    text: one of more than sys.get_int_max_str_digits() digits, 4300 by
    default."""

    def __init__(self, where):
        limit = sys.get_int_max_str_digits()
        super().__init__(
            f"{where} has an integer of more than {limit} digits, "
            "beyond Python's limit for decimal text"
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
            raise _TooLong("the report") from None
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
            items = list(map(int.__repr__, value))
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
                raise _TooLong(f"the {what}") from None
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
        raise _TooLong("the report") from None
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
        raise _TooLong(args.strata) from None
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
        # the checked solve of the pair (r, n-r) matched the transform of the
        # signed q_(n,r) with the signed q_(n,n-r); else eu_table_det raised
        outputs[f"duality_{n}_{r}"] = True
    return {"n": n}, outputs, {"systems": table.diagnostics}, pair


def _cmd_quadric(args):
    _at_most("--n + 1", args.n + 1, MAX_AMBIENT)
    spec = qd.QuadricSpec(args.n, args.rank)
    pair = qd.build_pair(spec)
    csm = sum((s.csm for s in pair.primal[1:]), pair.primal[0].csm)
    outputs = {
        "csm": csm,
        "milnor_class": qd.milnor_class(spec),
        "eu_generic": 1,
        "complex_link_chi": -2,  # of the cone at the origin, for every rank >= 3
        "dual_quadric_cm": pair.dual[0].csm,
    }
    diagnostics: dict = {}
    if spec.is_smooth:
        outputs["chern_mather"] = csm
        outputs["eu_singular"] = outputs["milnor_number"] = None
        outputs["dual_singular_cm"] = None
        diagnostics["milnor_note"] = "smooth quadric: Milnor class is zero"
    else:
        table = qd.cross_validate(spec, pair)
        outputs["chern_mather"] = table.chern_mather_primal[0]
        # checked against (-1)^r + 1 by cross_validate
        outputs["eu_singular"] = table.primal[0][1]
        outputs["milnor_number"] = (-1) ** (args.n + args.rank)
        # the dual of S = P^(n-r) is a linear P^(r-1)
        outputs["dual_singular_cm"] = csm_linear_space(args.rank - 1, args.n + 1)
        outputs["cross_validation"] = "ok"
        outputs.update(_table_payload(table))
        diagnostics["systems"] = table.diagnostics
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
    # one product order per multiset: general factors, then sorted Pieri strips
    if args.integrate:
        parts.sort(key=lambda p: (len(p) == 1 or set(p) == {1}, p))
    # sigma of the empty partition is the unit, so it is not multiplied in
    factors = [ChowElement.sigma(p, r, n) for p in parts if p]
    if args.integrate and sum(map(sum, parts)) != r * (n - r):
        return inputs, {"integral": 0}, {}, None  # 0 by degree
    if args.mult:
        elem = lr_multiply(ChowElement.one(r, n), *factors)
        outputs = {
            "product": _render_chow(elem),
            "terms": {_join(p): c for p, c in sorted(elem.terms.items())},
        }
    else:
        # The trailing run of sigma_1 factors is integrated in closed form,
        # not multiplied; every product before it is multiplied as before.
        # This changes no exit code: the terms of a chain's product all have
        # one degree, and a sigma_1 product adds one box to a term in at most
        # r ways, so it makes at most r times as many Pieri strips as the box
        # has partitions of one size (5,448 x 10 on G(10, 20); the most for
        # n <= MAX_CHOW_N is 4,968 x 11 on G(11, 20)), always below
        # MAX_LR_TABLEAUX.
        ones = next((k for k, p in enumerate(reversed(parts)) if p != (1,)), len(parts))
        elem = lr_multiply(ChowElement.one(r, n), *factors[: len(factors) - ones])
        outputs = {"integral": integrate(elem, ones)}
    return inputs, outputs, {}, None


_INT = {"type": int, "required": True}
_EMIT = {"metavar": "FILE"}
# subcommand -> (handler, help, {argument: its add_argument keywords}, the
# options of which a run gives exactly one); every subcommand also takes
# _COMMON.  _build_parser and _plain_args both read their arguments here.
_COMMANDS = {
    "involute": (_cmd_involute, "apply the degree-d duality transform", {
        "--d": _INT, "--poly": {"required": True, "help": "comma list, ascending powers"},
    }, ()),
    "solve": (_cmd_solve, "solve a stratification file", {
        "strata": {"help": "stratification JSON file"},
    }, ()),
    "detvar": (_cmd_detvar, "rank strata of n x n matrices", {
        "--n": _INT, "--emit-strata": _EMIT,
    }, ()),
    "quadric": (_cmd_quadric, "rank-r quadric hypersurface in P^n", {
        "--n": _INT, "--rank": _INT, "--emit-strata": _EMIT,
    }, ()),
    "chow": (_cmd_chow, "Schubert calculus on G(r, n)", {
        "--r": _INT, "--n": _INT,
        "--mult": {"nargs": 2, "metavar": ("LAMBDA", "MU")},
        "--integrate": {"nargs": "+", "metavar": "PARTITION"},
    }, ("--mult", "--integrate")),
}
_COMMON = {
    "--out": {"help": "write the report to a file"},
    "--format": {"choices": ("json", "text"), "default": "json"},
}


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse parses from `argv` if argv[0] names a
    subcommand and every other item is one of its arguments: each option
    spelled out, given once and followed by its number of values, no value
    starting with "-", every value valid and every required argument given.
    None for any other command line."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, arguments, one_of = _COMMANDS[argv[0]]
    arguments = {**arguments, **_COMMON}
    unfilled = [a for a in arguments if not a.startswith("-")]  # positionals
    given, i = {}, 1
    while i < len(argv):
        name, count = argv[i], 1
        if name.startswith("-"):
            if name not in arguments or name in given:
                return None
            count, i = arguments[name].get("nargs", 1), i + 1
        elif unfilled:
            name = unfilled.pop(0)
        else:
            return None
        end = i  # the values run up to the next "-" item or to `count` items
        while end < len(argv) and not argv[end].startswith("-") and end - i != count:
            end += 1
        if end == i or count != "+" and end - i != count:
            return None
        given[name], i = argv[i:end], end
    if unfilled or one_of and sum(o in given for o in one_of) != 1:
        return None
    args = {"command": argv[0], "handler": handler}
    for name, keywords in arguments.items():
        dest = name.lstrip("-").replace("-", "_")
        if name not in given:
            if keywords.get("required"):
                return None
            args[dest] = keywords.get("default")
            continue
        try:
            values = [keywords.get("type", str)(v) for v in given[name]]
        except ValueError:
            return None
        if not set(values) <= set(keywords.get("choices", values)):
            return None
        args[dest] = values if "nargs" in keywords else values[0]
    return SimpleNamespace(**args)


def _build_parser():
    """The argparse parser with all five subcommands."""
    import argparse  # only for command lines that _plain_args does not read

    parser = argparse.ArgumentParser(
        prog="chernmather",
        description=(
            "Exact Euler obstructions, Chern-Mather classes and related "
            "invariants of stratified projective varieties"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, arguments, one_of) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        group = p.add_mutually_exclusive_group(required=True) if one_of else p
        for argument, keywords in {**arguments, **_COMMON}.items():
            (group if argument in one_of else p).add_argument(argument, **keywords)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv) or _build_parser().parse_args(argv)
    created = []  # the files this run writes whose paths did not exist before
    try:
        emit = getattr(args, "emit_strata", None)
        if emit is not None and args.out is not None:
            if os.path.realpath(emit) == os.path.realpath(args.out):
                raise ValueError(
                    f"--out {args.out} and --emit-strata {emit} name one file"
                )
        inputs, outputs, diagnostics, pair = args.handler(args)
        files = []  # (path, text), the report first
        if emit is not None:
            # the solver input of a generated family, ready for `solve`
            strata_text = json.dumps(pair.to_dict(), sort_keys=True, indent=2)
            files.append((emit, strata_text + "\n"))
            diagnostics["emitted"] = emit
        report = {
            "command": args.command,
            "inputs": inputs,
            "outputs": outputs,
            "diagnostics": diagnostics,
        }
        # render both texts before writing either, so that a text that cannot
        # be rendered leaves no file behind
        text = _render(report, args.format)
        if args.out is not None:
            files.insert(0, (args.out, text))
        for path, content in files:
            if not os.path.lexists(path):
                created.append(path)
            _write(path, content)
        if args.out is None:
            if sys.stdout is None:  # descriptor 1 was closed at start-up
                raise ValueError("cannot write the report to stdout: it is closed")
            try:
                sys.stdout.write(text)
                sys.stdout.flush()
            except OSError as exc:
                # point stdout at the null device, so that the flush at exit
                # neither fails nor prints a warning
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                if isinstance(exc, BrokenPipeError):
                    raise  # the reader of stdout has gone
                raise ValueError(f"cannot write the report to stdout: {exc}") from exc
        return 0
    except BrokenPipeError:
        code, error = 1, None
    except (LinearSystemError, ArithmeticError) as exc:
        code, error = 3, exc
    except ValueError as exc:
        code, error = 2, exc
    # a failed run takes back what it wrote, but never a path that existed
    # before it, such as /dev/null
    for path in created:
        if os.path.lexists(path):
            os.remove(path)
    if error is not None and sys.stderr is not None:  # None: closed at start-up
        try:
            print(f"error: {error}", file=sys.stderr)
        except OSError:
            sys.stderr = None  # full or closed: the flush at exit skips None
    return code


if __name__ == "__main__":
    sys.exit(main())
