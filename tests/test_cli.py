import argparse
import errno
import io
import json
import os
import random
import stat
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chernmather
from chernmather import classpoly, cli
from chernmather.classpoly import ClassPoly, involute_all
from chernmather.cli import (
    MAX_CHOW_N,
    MAX_DETVAR_N,
    _build_parser,
    _json,
    _parse_partition,
    _plain_args,
    main,
)
from chernmather.grassmann import MAX_LR_TABLEAUX, ChowElement, integrate, lr_multiply
from chernmather.quadric import QuadricSpec, build_pair
from chernmather.strata import MAX_AMBIENT, MAX_STRATA, euler_table

from oracles import read_strata_text, reference_parser, report_json, report_line
from test_golden import CASES, GOLDEN

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "symmetric_3x3.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# Python 3.11 (and 3.10.7 on) converts an int to or from decimal text only
# up to this many digits; without a limit there is nothing to report
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this Python has no integer digit limit"
)


def too_long(where) -> str:
    return (
        f"error: {where} has an integer of more than {DIGIT_LIMIT} digits, "
        "beyond Python's limit for decimal text\n"
    )


# Report values: integers at and beyond the 64-bit edge, lists of small
# integers (the renderer's fast path), non-ASCII keys and empty containers.
_EDGE = [2**63 - 1, -(2**63 - 1), 2**63, -(2**63), 2**70, 0]
_INTS = st.sampled_from(_EDGE) | st.integers()
_SMALL = st.integers(-(2**63 - 1), 2**63 - 1) | st.booleans()
_LEAVES = (
    st.none()
    | st.booleans()
    | _INTS
    | st.text(max_size=5)
    | st.lists(_SMALL, max_size=6)
    | st.lists(_INTS, min_size=1, max_size=4).map(ClassPoly)
)
REPORT_VALUES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=20,
)


def run_limited(*argv):
    """The CLI in a child process with 1 GB of address space and 30 s, so that
    a size check that does not fire fails the test instead of the machine."""
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from chernmather.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(chernmather.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )


class TestInvolute:
    def test_worked_expansion(self, capsys):
        report = run_json(capsys, "involute", "--d", "5", "--poly", "0,3,9,10,6,3")
        assert report["outputs"]["result"] == [0, 0, 0, 4, 6, 3]
        assert report["command"] == "involute"

    def test_degree_one(self, capsys):
        report = run_json(capsys, "involute", "--d", "1", "--poly", "0,1")
        assert report["outputs"]["result"] == [0, 1]

    def test_degree_two(self, capsys):
        report = run_json(capsys, "involute", "--d", "2", "--poly", "0,1")
        assert report["outputs"]["result"] == [0, 2, 3]

    def test_malformed_poly(self, capsys):
        code, _, err = run(capsys, "involute", "--d", "2", "--poly", "0,x,1")
        assert code == 2
        assert "malformed" in err

    @pytest.mark.parametrize(
        "poly, shown",
        [
            ("0," + "9" * 77 + "x", "'0," + "9" * 77 + "x'"),
            ("0," + "9" * 4301 + "x", "'0," + "9" * 78 + "'..."),
        ],
        ids=["80_characters", "long"],
    )
    def test_malformed_poly_echoes_80_characters(self, capsys, poly, shown):
        code, out, err = run(capsys, "involute", "--d", "3", "--poly", poly)
        assert code == 2 and out == ""
        assert err == f"error: malformed coefficient list {shown}\n"

    @needs_digit_limit
    def test_poly_token_over_digit_limit_exits_2(self, capsys):
        poly = "0," + "9" * (DIGIT_LIMIT + 1)
        code, out, err = run(capsys, "involute", "--d", "3", "--poly", poly)
        assert code == 2 and out == ""
        assert err == too_long("the coefficient list")

    @needs_digit_limit
    def test_signed_poly_token_over_digit_limit_exits_2(self, capsys):
        # the sign is not a digit: "-999..." past the limit is too long, not malformed
        poly = "1,-" + "9" * (DIGIT_LIMIT + 1)
        code, out, err = run(capsys, "involute", "--d", "5", "--poly", poly)
        assert code == 2 and out == ""
        assert err == too_long("the coefficient list")

    @needs_digit_limit
    def test_result_over_digit_limit_exits_2(self, capsys):
        # the input fits the limit; its transform, times binomials up to
        # C(1023, 511), does not
        poly = "0," + "9" * (DIGIT_LIMIT - 100)
        code, out, err = run(capsys, "involute", "--d", "1022", "--poly", poly)
        assert code == 2 and out == ""
        assert err == too_long("the report")

    def test_wrong_transform_exits_3(self, capsys, monkeypatch):
        # one coefficient off in the packed transform: the pointwise check
        # of the defining formula catches it
        def off_by_one(fs, d):
            (g,) = involute_all(fs, d)
            return [ClassPoly([g.coeffs[0], g.coeffs[1] + 1, *g.coeffs[2:]])]

        monkeypatch.setattr(classpoly, "involute_all", off_by_one)
        code, out, err = run(capsys, "involute", "--d", "5", "--poly", "0,3,9,10,6,3")
        assert code == 3 and out == ""
        assert err == (
            "error: the duality transform of degree 5 disagrees with its "
            "defining formula at H = 1\n"
        )


def lose_comma(fixture_text: str) -> str:
    """The fixture's text without the comma that ends its line 10."""
    return fixture_text.replace('},\n    {"name": "sym3_corank2_dual"', '}\n    {"name": "sym3_corank2_dual"', 1)


class TestSolve:
    def test_fixture(self, capsys):
        report = run_json(capsys, "solve", str(FIXTURE))
        outs = report["outputs"]
        assert outs["euler_table_primal"][1] == [0, 1, 0]
        assert outs["origin_column"] == [1, 1, 1]
        assert outs["chern_mather_primal"]["sym3_corank1"] == [0, 3, 9, 10, 6, 3]
        systems = report["diagnostics"]["systems"]
        assert any(s["method"] == "solved" for s in systems)
        assert all(s["residual"] in ("exact", "n/a") for s in systems)

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "/nonexistent/strata.json")
        assert code == 2

    def test_invalid_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 2

    def test_deeply_nested_json(self, capsys, tmp_path):
        # json.load recurses once per bracket and would exhaust the stack
        bad = tmp_path / "nested.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "solve", str(bad))
        assert code == 2 and out == ""
        assert err == f"error: {bad} is nested too deeply to read as JSON\n"

    @needs_digit_limit
    def test_report_integer_over_digit_limit_exits_2(self, capsys, tmp_path):
        # every input integer fits the limit, but the Chern-Mather class
        # open + 2 * singular locus of the rank-4 quadric in P^6 outgrows it
        data = build_pair(QuadricSpec(6, 4)).to_dict()
        classes = [s["csm"] for s in data["primal"] + data["dual"]]
        scale = (10**DIGIT_LIMIT - 1) // max(map(max, classes))
        for csm in classes:
            csm[:] = [scale * c for c in csm]
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(data))
        report = tmp_path / "report.json"
        code, out, err = run(capsys, "solve", str(path), "--out", str(report))
        assert code == 2 and out == ""
        assert err == too_long("the report")
        assert not report.exists()

    @needs_digit_limit
    def test_input_integer_over_digit_limit_exits_2(self, capsys, tmp_path):
        data = {
            "N": 2,
            "primal": [{"name": "p", "dim": 1, "csm": [1, 2]}],
            "dual": [{"name": "d", "dim": 0, "csm": [0, 1]}],
            "pairing": [],
        }
        long_int = "9" * (DIGIT_LIMIT + 1)
        text = json.dumps(data).replace("[1, 2]", f"[1, {long_int}]")
        path = tmp_path / "long.json"
        path.write_text(text)
        report = tmp_path / "report.json"
        code, out, err = run(capsys, "solve", str(path), "--out", str(report))
        assert code == 2 and out == ""
        assert err == too_long(path)
        assert not report.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "stratification data must be a JSON object"),
            (
                '{"N": 2, "primal": [3], "dual": [{"name": "d", "dim": 0, "csm": [0, 1]}],'
                ' "pairing": []}',
                "primal entries must be objects",
            ),
        ],
        ids=["top_level", "stratum"],
    )
    def test_non_object_exits_2(self, capsys, tmp_path, text, message):
        path = tmp_path / "strata.json"
        path.write_text(text)
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_non_utf8_file(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"N": 2, "name": "\xe9"}')
        code, out, err = run(capsys, "solve", str(bad))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad} is not UTF-8 text: ")

    # the fixture's text saved in other ways -> the exit code of `solve` on it
    SAVED = {
        "lf": (lambda text: text.encode(), 0),
        "crlf": (lambda text: text.replace("\n", "\r\n").encode(), 0),
        "cr": (lambda text: text.replace("\n", "\r").encode(), 0),
        "utf8_bom": (lambda text: b"\xef\xbb\xbf" + text.encode(), 2),
        "utf16_bom": (lambda text: text.encode("utf-16"), 2),
        "latin1": (lambda text: text.replace("sym3_corank2", "sym3_cor\xe1nk2").encode("latin-1"), 2),
        # a comma lost at the end of line 10: the error names line 11
        "malformed_crlf": (lambda text: lose_comma(text).replace("\n", "\r\n").encode(), 2),
        "malformed_cr": (lambda text: lose_comma(text).replace("\n", "\r").encode(), 2),
    }

    @pytest.mark.parametrize("saved", SAVED)
    def test_reads_what_text_mode_reads(self, capsys, tmp_path, saved):
        # the same report, or the same error line, as open(path,
        # encoding="utf-8") and json.load give, JSON error positions included
        encode, expected_code = self.SAVED[saved]
        path = tmp_path / f"{saved}.json"
        path.write_bytes(encode(FIXTURE.read_text()))
        code, out, err = run(capsys, "solve", str(path))
        assert code == expected_code
        try:
            data = read_strata_text(str(path))
        except ValueError as exc:
            assert (out, err) == ("", f"error: {exc}\n")
        else:
            plain = tmp_path / "plain.json"
            plain.write_text(json.dumps(data))
            assert (out, err) == run(capsys, "solve", str(plain))[1:]

    def test_empty_strata(self, capsys, tmp_path):
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps({"N": 4, "primal": [], "dual": [], "pairing": []}))
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 2

    @pytest.mark.parametrize(
        "path, message",
        [
            (("N",), "N must be a positive integer"),
            (("primal", 2, "dim"), "dim must be an integer"),
            (("dual", 0, "csm", 0), "csm must be a list of integers"),
            (("pairing", 0, 0), "pairing must be a list"),
        ],
    )
    def test_json_booleans_rejected(self, capsys, tmp_path, path, message):
        # true == 1 in Python, so each of these would otherwise pass as a number
        data = json.loads(FIXTURE.read_text())
        if path == ("N",):
            # true reads as N = 1, which only a one-point file would satisfy
            stratum = {"name": "point", "dim": 0, "csm": [1]}
            data = {"N": 1, "primal": [stratum], "dual": [stratum], "pairing": []}
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = True
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps(data))
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("pairing", [[], [[0, 0]]], ids=["unpaired", "paired"])
    def test_one_point_file(self, capsys, tmp_path, pairing):
        # N = 1 has no duality transform: the point solves alone, and a
        # pairing is malformed input that names N, not the transform's d
        stratum = {"name": "point", "dim": 0, "csm": [1]}
        data = {"N": 1, "primal": [stratum], "dual": [stratum], "pairing": pairing}
        path = tmp_path / "point.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "solve", str(path))
        if pairing:
            assert code == 2 and out == ""
            assert err == (
                "error: pairing [[0, 0]] needs N >= 2 for the duality transform, "
                "got N = 1\n"
            )
        else:
            assert code == 0, err
            assert json.loads(out)["outputs"]["euler_table_primal"] == [[1]]

    @pytest.mark.parametrize(
        "case, message",
        [("ambient", "N must be at most 1024"), ("names", "name 'same' is repeated")],
    )
    def test_hostile_input_rejected(self, capsys, tmp_path, case, message):
        data = json.loads(FIXTURE.read_text())
        if case == "ambient":
            # one coefficient per class, but every class would be padded to N
            stratum = {"name": "point", "dim": 0, "csm": [1]}
            data = {"N": MAX_AMBIENT + 1, "primal": [stratum], "dual": [stratum], "pairing": []}
        else:
            # one report entry per name: three strata would collapse into one
            for stratum in data["primal"]:
                stratum["name"] = "same"
        bad = tmp_path / "hostile.json"
        bad.write_text(json.dumps(data))
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_too_many_strata_rejected(self, capsys, tmp_path, side):
        # the solve grows about as the cube of the number of strata
        data = json.loads(FIXTURE.read_text())
        point = [0, 0, 0, 0, 0, 1]
        extra = MAX_STRATA + 1 - len(data[side])
        data[side] += [{"name": f"extra{i}", "dim": 0, "csm": point} for i in range(extra)]
        bad = tmp_path / "many.json"
        bad.write_text(json.dumps(data))
        code, out, err = run(capsys, "solve", str(bad))
        assert code == 2 and out == ""
        assert err == f"error: need at most {MAX_STRATA} strata per side, got {MAX_STRATA + 1}\n"

    @pytest.mark.parametrize("tail", [0, 1], ids=["zero_tail", "nonzero_tail"])
    def test_class_longer_than_n(self, capsys, tmp_path, tail):
        # coefficients of H^N and beyond are accepted only as zeros, and then
        # the file solves to the fixture's report, byte for byte
        data = json.loads(FIXTURE.read_text())
        data["primal"][2]["csm"] += [0, tail]
        path = tmp_path / "long.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "solve", str(path))
        if tail:
            assert code == 2 and out == ""
            assert err == "error: stratum 'sym3_corank2': class exceeds modulus 6\n"
        else:
            assert code == 0 and err == ""
            assert out.encode() == (GOLDEN / "solve_symmetric_3x3.out").read_bytes()

    def test_inconsistent_names_subsystem(self, capsys, tmp_path):
        data = json.loads(FIXTURE.read_text())
        data["primal"][1]["csm"][5] += 1
        bad = tmp_path / "corrupt.json"
        bad.write_text(json.dumps(data))
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 3
        assert "sym3_corank1" in err

    def test_fractional_solution_exits_3(self, capsys, tmp_path):
        # the rigged pair whose unique rational weight is 1/2
        rigged = tmp_path / "rigged.json"
        rigged.write_text(json.dumps({
            "N": 4,
            "primal": [
                {"name": "open", "dim": 2, "csm": [0, 2, 4, 2]},
                {"name": "fat_point", "dim": 0, "csm": [0, 0, 0, 2]},
            ],
            "dual": [{"name": "rigged", "dim": 2, "csm": [0, 1, 1, 1]}],
            "pairing": [[0, 0]],
        }))
        code, out, err = run(capsys, "solve", str(rigged))
        assert code == 3 and out == ""
        assert err == (
            "error: unknown #0 solves to 1/2, not an integer "
            "[primal[0] 'open' <-> dual[0] 'rigged']\n"
        )

    def test_more_unknowns_than_equations_names_the_system(self, capsys, tmp_path):
        # N = 2 gives two equations; the pair (0, 1) has three unknowns
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({
            "N": 2,
            "primal": [
                {"name": "a", "dim": 1, "csm": [1, 2]},
                {"name": "b", "dim": 1, "csm": [1, 1]},
                {"name": "c", "dim": 0, "csm": [0, 1]},
                {"name": "d", "dim": 0, "csm": [0, 2]},
            ],
            "dual": [
                {"name": "x", "dim": 1, "csm": [1, 2]},
                {"name": "y", "dim": 0, "csm": [0, 1]},
            ],
            "pairing": [[0, 1]],
        }))
        code, out, err = run(capsys, "solve", str(wide))
        assert code == 2 and out == ""
        assert err == (
            "error: need at least as many equations as unknowns "
            "[primal[0] 'a' <-> dual[1] 'y']\n"
        )

    def test_dimension_above_ambient_exits_2(self, capsys, tmp_path):
        # the README's cone pair with the conic declared far beyond P^3,
        # where its class fixes dimension 1
        pair = tmp_path / "cone.json"
        pair.write_text(json.dumps({
            "N": 4,
            "primal": [
                {"name": "cone_open", "dim": 2, "csm": [0, 2, 4, 2]},
                {"name": "vertex", "dim": 0, "csm": [0, 0, 0, 1]},
            ],
            "dual": [{"name": "conic", "dim": 1000001, "csm": [0, 0, 2, 2]}],
            "pairing": [[0, 0]],
        }))
        code, out, err = run(capsys, "solve", str(pair))
        assert code == 2 and out == ""
        assert err == (
            "error: stratum 'conic' declares dimension 1000001, "
            "but its class has dimension 1\n"
        )


class TestDetvar:
    def test_n2_report(self, capsys):
        report = run_json(capsys, "detvar", "--n", "2")
        outs = report["outputs"]
        assert outs["q_2_1"] == [0, 2, 4, 4]
        assert outs["q_2_0"] == [1, 4, 6, 4]
        assert outs["csm_2_0"] == [1, 2, 2, 0]
        assert outs["duality_2_1"] is True
        assert outs["euler_table_primal"] == [[1, 1], [0, 1]]
        assert outs["origin_column"] == [1, 2]

    def test_emit_strata_roundtrip(self, capsys, tmp_path):
        emitted = tmp_path / "det3.json"
        run_json(capsys, "detvar", "--n", "3", "--emit-strata", str(emitted))
        report = run_json(capsys, "solve", str(emitted))
        assert report["outputs"]["euler_table_primal"][1] == [0, 1, 2]
        assert report["outputs"]["origin_column"] == [1, 3, 3]

    def test_bad_n(self, capsys):
        code, _, _ = run(capsys, "detvar", "--n", "1")
        assert code == 2

    @pytest.mark.parametrize("n", [MAX_DETVAR_N + 1, 40])
    def test_n_over_limit_rejected(self, n):
        proc = run_limited("detvar", "--n", str(n))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: need --n at most {MAX_DETVAR_N}, got {n}\n"


class TestQuadric:
    def test_cone_report(self, capsys):
        report = run_json(capsys, "quadric", "--n", "3", "--rank", "3")
        outs = report["outputs"]
        assert outs["milnor_class"] == [0, 0, 0, 1]
        assert outs["csm"] == [0, 2, 4, 3]
        assert outs["eu_singular"] == 0
        assert outs["milnor_number"] == 1
        assert outs["complex_link_chi"] == -2
        assert outs["cross_validation"] == "ok"
        assert outs["dual_quadric_cm"] == [0, 0, 2, 2]
        assert outs["dual_singular_cm"] == [0, 1, 3, 3]

    @pytest.mark.parametrize("rank", ["1", "2"])
    def test_low_ranks_rejected(self, capsys, rank):
        code, _, err = run(capsys, "quadric", "--n", "5", "--rank", rank)
        assert code == 2
        assert "rank" in err

    def test_smooth_zero_milnor(self, capsys):
        report = run_json(capsys, "quadric", "--n", "4", "--rank", "5")
        outs = report["outputs"]
        assert outs["milnor_class"] == [0, 0, 0, 0, 0]
        assert outs["milnor_number"] is None
        assert outs["eu_singular"] is None
        assert report["diagnostics"]["milnor_note"]

    def test_emit_strata_roundtrip(self, capsys, tmp_path):
        emitted = tmp_path / "quad.json"
        run_json(capsys, "quadric", "--n", "5", "--rank", "4", "--emit-strata", str(emitted))
        report = run_json(capsys, "solve", str(emitted))
        assert report["outputs"]["euler_table_primal"][0] == [1, 2]

    @pytest.mark.parametrize("emit", [False, True], ids=["report", "emit"])
    @pytest.mark.parametrize(
        "n,rank,builds,solves", [(4, 5, 1, 0), (5, 4, 1, 1)], ids=["smooth", "singular"]
    )
    def test_one_pair_built_and_solved_at_most_once(
        self, capsys, tmp_path, n, rank, builds, solves, emit
    ):
        watched = {
            build_pair.__code__: "build_pair",
            euler_table.__code__: "euler_table",
        }
        calls = {"build_pair": 0, "euler_table": 0}

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                calls[watched[frame.f_code]] += 1

        argv = ["quadric", "--n", str(n), "--rank", str(rank)]
        if emit:
            argv += ["--emit-strata", str(tmp_path / "quad.json")]
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            code = main(argv)
        finally:
            sys.setprofile(previous)
        capsys.readouterr()
        assert code == 0
        assert calls == {"build_pair": builds, "euler_table": solves}


@st.composite
def top_degree_factors(draw):
    """G(r, n) with an r x (n-r) box of at most 4 x 4, and one to four
    partitions that fit it and whose sizes add up to r(n-r)."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    count, left, factors = draw(st.integers(1, 4)), rows * cols, []
    for i in range(count):
        size = left if i == count - 1 else draw(st.integers(0, left))
        left -= size
        parts = []
        # each part at least the average the rows left need, so the rest fits
        while size:
            low = -(-size // (rows - len(parts)))
            parts.append(draw(st.integers(low, min(size, parts[-1] if parts else cols))))
            size -= parts[-1]
        factors.append(",".join(map(str, parts)))
    return rows, rows + cols, factors


class TestChow:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(top_degree_factors())
    @example((3, 6, ["1", "2", "2,2", "1,1"]))  # sigma_1 among every kind of factor
    def test_integrate_ignores_factor_order(self, case):
        r, n, factors = case
        outcomes = set()
        for order in set(permutations(factors)):
            out = io.StringIO()
            with redirect_stdout(out):
                code = main(["chow", "--r", str(r), "--n", str(n), "--integrate", *order])
            report = json.loads(out.getvalue())
            assert report.pop("inputs")["integrate"] == list(order)
            outcomes.add((code, json.dumps(report)))
        assert len(outcomes) == 1
        (code, report), = outcomes
        # against the chain multiplied in the given order and integrated
        # with no sigma_1 left over, so with no closed form
        sigmas = [ChowElement.sigma(_parse_partition(f), r, n) for f in factors]
        want = integrate(lr_multiply(ChowElement.one(r, n), *sigmas))
        assert code == 0 and json.loads(report)["outputs"] == {"integral": want}

    def test_mult_render(self, capsys):
        report = run_json(capsys, "chow", "--r", "2", "--n", "4", "--mult", "1", "1")
        assert report["outputs"]["product"] == "sigma_2 + sigma_1_1"
        assert report["outputs"]["terms"] == {"1,1": 1, "2": 1}

    def test_integrate(self, capsys):
        report = run_json(capsys, "chow", "--r", "2", "--n", "4", "--integrate", "2", "2")
        assert report["outputs"]["integral"] == 1

    def test_bad_partition(self, capsys):
        code, _, _ = run(capsys, "chow", "--r", "2", "--n", "4", "--mult", "1", "x")
        assert code == 2

    def test_malformed_partition_echoes_80_characters(self, capsys):
        partition = "2," + "1" * 200 + "x"
        code, out, err = run(capsys, "chow", "--r", "2", "--n", "4", "--mult", "1", partition)
        assert code == 2 and out == ""
        assert err == "error: malformed partition '2," + "1" * 78 + "'...\n"

    @needs_digit_limit
    def test_partition_token_over_digit_limit_exits_2(self, capsys):
        partition = "2," + "9" * (DIGIT_LIMIT + 1)
        code, out, err = run(capsys, "chow", "--r", "2", "--n", "4", "--mult", "1", partition)
        assert code == 2 and out == ""
        assert err == too_long("the partition")

    @pytest.mark.parametrize("partition", ["2,0,1", "2,,1"], ids=["inner_zero", "empty_part"])
    def test_gap_in_partition_rejected(self, capsys, partition):
        code, out, err = run(capsys, "chow", "--r", "3", "--n", "6", "--mult", partition, "1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_negative_part_rejected(self, capsys):
        code, out, err = run(capsys, "chow", "--r", "2", "--n", "4", "--integrate", "1,-1", "2")
        assert code == 2 and out == ""
        assert err == "error: partition parts must be nonnegative\n"

    def test_bad_box(self, capsys):
        code, _, _ = run(capsys, "chow", "--r", "5", "--n", "4", "--integrate", "1")
        assert code == 2

    @pytest.mark.parametrize("r, n", [(2, 2), (0, 3)])
    def test_sigma1_factors_not_multiplied_keep_their_box_check(self, capsys, r, n):
        # sigma_1 on G(2, 2) or G(0, 3), whose boxes hold no box: the
        # sigma_1 factors are integrated with no product, but each factor
        # is still built and checked
        code, out, err = run(capsys, "chow", "--r", str(r), "--n", str(n), "--integrate", "1")
        assert code == 2 and out == ""
        assert err == f"error: partition (1,) does not fit the {r}x{n - r} box\n"

    @pytest.fixture
    def sigma_calls(self, monkeypatch):
        """The partitions ChowElement.sigma is called with, in call order."""
        calls, sigma = [], ChowElement.sigma
        monkeypatch.setattr(
            ChowElement, "sigma", staticmethod(lambda p, r, n: calls.append(p) or sigma(p, r, n))
        )
        return calls

    def test_repeated_factor_built_once(self, capsys, sigma_calls):
        report = run_json(capsys, "chow", "--r", "3", "--n", "6", "--integrate", *["1"] * 9)
        assert report["outputs"]["integral"] == 42
        assert sigma_calls == [(1,)]

    def test_one_sigma_per_distinct_factor(self, capsys, sigma_calls):
        # built in product order: the general factor first, then the strip
        argv = ["--integrate", "1", "2,1", "1", "2,1", "1", "2,1"]
        run_json(capsys, "chow", "--r", "3", "--n", "7", *argv)
        assert sigma_calls == [(2, 1), (1,)]

    def test_spellings_of_one_partition_give_one_report(self, capsys):
        chow = ["chow", "--r", "3", "--n", "6", "--integrate"]
        _, same, _ = run(capsys, *chow, "2,1", "2,1", "2,1")
        _, spelled, _ = run(capsys, *chow, "2,1", "2,1,0", "02,1")
        assert spelled == same
        assert json.loads(same)["inputs"]["integrate"] == ["2,1"] * 3

    def test_first_malformed_token_named_after_repeats(self, capsys):
        argv = ["--integrate", "1", "1", "3", "1", "2,x", "1", "4,y", "2,x"]
        code, out, err = run(capsys, "chow", "--r", "2", "--n", "4", *argv)
        assert code == 2 and out == ""
        assert err == "error: malformed partition '2,x'\n"

    def test_first_misfit_in_product_order_named(self, capsys):
        # no factor fits sigma_1 on G(2, 2); on G(2, 4) the strips sort as
        # 1,1,1 < 3 < 1, so the column is the first misfit of the product
        argv = ["--integrate", "1", "1", "1"]
        code, out, err = run(capsys, "chow", "--r", "2", "--n", "2", *argv)
        assert code == 2 and out == ""
        assert err == "error: partition (1,) does not fit the 2x0 box\n"
        argv = ["--integrate", "3", "1", "1,1,1", "1", "3"]
        code, out, err = run(capsys, "chow", "--r", "2", "--n", "4", *argv)
        assert code == 2 and out == ""
        assert err == "error: partition (1, 1, 1) does not fit the 2x2 box\n"
        # sigma_1 sorts after every other strip, so on G(2, 2) it is not
        # the first misfit once another factor is given
        code, out, err = run(capsys, "chow", "--r", "2", "--n", "2", "--integrate", "1", "2")
        assert code == 2 and out == ""
        assert err == "error: partition (2,) does not fit the 2x0 box\n"

    def test_sigma1_factors_not_multiplied(self, capsys, monkeypatch):
        # nine sigma_1 factors among a general factor, a row and a column:
        # the product takes the general factor, then the other strips, and
        # the closed form does the rest.  2124 is the integral of the whole
        # chain multiplied in the given order.
        multiplied = []

        def spy(a, *factors):
            multiplied.extend(tuple(f.terms) for f in factors)
            return lr_multiply(a, *factors)

        monkeypatch.setattr("chernmather.grassmann.lr_multiply", spy)
        argv = ["1"] * 4 + ["2", "1", "1", "2,1", "1,1"] + ["1"] * 3
        report = run_json(capsys, "chow", "--r", "4", "--n", "8", "--integrate", *argv)
        assert report["outputs"]["integral"] == 2124
        assert multiplied == [((2, 1),), ((1, 1),), ((2,),)]

    def test_sigma1_multiplied_first_where_a_strip_could_reach_the_limit(self, monkeypatch):
        # on G(10, 20) a (1,1) product could exceed MAX_LR_TABLEAUX, so the
        # order stays general, sigma_1, other strips: those then run at the
        # top degrees, and every chain reaches the limit as it did before
        # sigma_1 could sort last
        multiplied = []

        def spy(a, *factors):
            multiplied.extend(tuple(f.terms) for f in factors)
            return a

        monkeypatch.setattr("chernmather.grassmann.lr_multiply", spy)
        argv = ["1,1"] * 30 + ["1"] * 37 + ["2,1"]
        with redirect_stdout(io.StringIO()):
            assert main(["chow", "--r", "10", "--n", "20", "--integrate", *argv]) == 0
        assert multiplied == [((2, 1),)] + [((1,),)] * 37 + [((1, 1),)] * 30

    def test_box_over_limit_rejected(self):
        # G(20, 40) has C(40, 20), about 1.4e11, Schubert classes
        proc = run_limited("chow", "--r", "20", "--n", "40", "--integrate", "1")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: need --n at most {MAX_CHOW_N}, got 40\n"

    # On G(10, 20) the staircases delta_k = (k, k-1, ..., 1) make LR products
    # whose tableaux grow about 40-fold with each step of k.
    DELTA5, DELTA6 = "5,4,3,2,1", "6,5,4,3,2,1"

    def test_tableaux_over_limit_rejected(self):
        # delta_6 * delta_6 generates 1,095,308 tableaux, about 15 s of work
        proc = run_limited("chow", "--r", "10", "--n", "20", "--mult", self.DELTA6, self.DELTA6)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            f"error: the product needs more than {MAX_LR_TABLEAUX} "
            "Littlewood-Richardson tableaux\n"
        )

    def test_identity_factors_are_not_multiplied(self):
        # delta_5^2 has 1,433 terms; multiplying each of them by sigma_() again
        # for 20,000 empty partitions would take about a minute.  The last
        # factor is the box complement of 2 * delta_5 = (10, 8, 6, 4, 2), whose
        # LR coefficient in delta_5^2 is 1.
        last = "10,10,10,10,10,8,6,4,2"
        argv = [self.DELTA5, self.DELTA5, *["0"] * 20_000, last]
        proc = run_limited("chow", "--r", "10", "--n", "20", "--integrate", *argv)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["outputs"]["integral"] == 1
        assert len(report["inputs"]["integrate"]) == 20_003

    def test_integral_off_top_degree_is_zero_without_products(self):
        # delta_5^4 has degree 60 < 100, and its last product alone would
        # take minutes
        proc = run_limited("chow", "--r", "10", "--n", "20", "--integrate", *[self.DELTA5] * 4)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["outputs"]["integral"] == 0


class TestReportPlumbing:
    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "detvar", "--n", "2")
        _, out2, _ = run(capsys, "detvar", "--n", "2")
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "involute", "--d", "1", "--poly", "0,1", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["outputs"]["result"] == [0, 1]

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "involute", "--d", "2", "--poly", "0,1", "--format", "text")
        assert code == 0
        assert "outputs.result = [0, 2, 3]" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["involute", "--d", "1", "--poly", "0,1", "--out"],
            ["detvar", "--n", "2", "--emit-strata"],
        ],
        ids=["out", "emit-strata"],
    )
    def test_unwritable_file_exits_2(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "report.json"
        code, _, err = run(capsys, *argv, str(target))
        assert code == 2
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["involute", "--d", "1", "--poly", "0,1", "--out", ""],
            ["detvar", "--n", "2", "--emit-strata", ""],
        ],
        ids=["out", "emit-strata"],
    )
    def test_empty_path_exits_2(self, capsys, argv):
        # an empty path is a path that cannot be written, not a missing one
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write : ")

    def test_unwritable_report_leaves_no_strata_file(self, capsys, tmp_path):
        # both texts are rendered first, and the report is written first
        emitted, target = tmp_path / "s.json", tmp_path / "missing" / "r.json"
        argv = ["detvar", "--n", "2", "--emit-strata", str(emitted), "--out"]
        code, out, err = run(capsys, *argv, str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert not emitted.exists()
        target = tmp_path / "r.json"
        code, out, _ = run(capsys, *argv, str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["diagnostics"]["emitted"] == str(emitted)
        assert json.loads(emitted.read_text())["N"] == 4

    @pytest.mark.parametrize("existed", [False, True], ids=["created", "existing"])
    def test_unwritable_strata_file_takes_back_the_report(self, capsys, tmp_path, existed):
        # the report names a strata file that was never written, so it is
        # removed, but only if this run created it: a path that existed
        # before (such as /dev/null) is kept
        target, emitted = tmp_path / "r.json", tmp_path / "missing" / "s.json"
        if existed:
            target.write_text("kept\n")
        argv = ["detvar", "--n", "2", "--out", str(target), "--emit-strata"]
        code, out, err = run(capsys, *argv, str(emitted))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {emitted}: ")
        assert target.exists() == existed
        assert os.listdir(tmp_path) == (["r.json"] if existed else [])
        if existed:
            assert target.read_text() == "kept\n"

    @staticmethod
    def short_writes(monkeypatch, fail_after=None):
        """Make os.write write at most 7 bytes a call, and raise ENOSPC on
        call `fail_after` + 1; the list of the sizes written."""
        write, sizes = os.write, []

        def short_write(fd, data):
            if len(sizes) == fail_after:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            sizes.append(write(fd, data[:7]))
            return sizes[-1]

        monkeypatch.setattr(cli.os, "write", short_write)
        return sizes

    def test_short_writes_complete_both_files(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        sizes = self.short_writes(monkeypatch)
        argv, emitted = CASES["detvar_n3_emit"]
        code, out, err = run(capsys, *argv, "--out", "r.json")
        assert (code, out, err) == (0, "", "")
        report, strata = Path("r.json").read_bytes(), Path(emitted).read_bytes()
        assert report == (GOLDEN / "detvar_n3_emit.out").read_bytes()
        assert strata == (GOLDEN / "detvar_n3_emit.strata.json").read_bytes()
        assert max(sizes) == 7 and sum(sizes) == len(report) + len(strata)

    @pytest.mark.parametrize("existed", [False, True], ids=["created", "existing"])
    def test_failed_write_exits_2(self, capsys, tmp_path, monkeypatch, existed):
        # a disk that fills after the first chunk: one error line, and the
        # file is removed unless its path existed before the run
        target = tmp_path / "r.json"
        if existed:
            target.write_text("kept\n")
        self.short_writes(monkeypatch, fail_after=1)
        code, out, err = run(capsys, "detvar", "--n", "3", "--out", str(target))
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {target}: [Errno 28] No space left on device\n"
        assert target.exists() == existed
        assert os.listdir(tmp_path) == (["r.json"] if existed else [])
        if existed:
            assert target.read_text() == "kept\n"

    def test_failed_emit_keeps_an_existing_report(self, capsys, tmp_path, monkeypatch):
        # the report is written before the strata file, whose directory is
        # missing: the report that existed keeps its bytes, its mode and
        # its inode, and no temporary file is left
        monkeypatch.chdir(tmp_path)
        Path("r.json").write_text("kept\n")
        os.chmod("r.json", 0o640)
        before = os.stat("r.json")
        argv = ["detvar", "--n", "3", "--out", "r.json", "--emit-strata", "missing/s.json"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write missing/s.json: ")
        assert Path("r.json").read_bytes() == b"kept\n"
        after = os.stat("r.json")
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert os.listdir() == ["r.json"]

    def test_symlinked_out_written_in_place(self, capsys, tmp_path, monkeypatch):
        # a symlink stays a symlink: the file it points to takes the report,
        # and a failed run leaves it there, since the path existed before
        monkeypatch.chdir(tmp_path)
        Path("target.json").write_text("old\n")
        os.symlink("target.json", "link.json")
        code, out, _ = run(capsys, "detvar", "--n", "2", "--out", "link.json")
        assert (code, out) == (0, "")
        assert os.path.islink("link.json")
        assert json.loads(Path("target.json").read_text())["inputs"] == {"n": 2}
        argv = ["detvar", "--n", "3", "--out", "link.json", "--emit-strata", "missing/s.json"]
        assert run(capsys, *argv)[0] == 2
        assert os.path.islink("link.json")
        assert json.loads(Path("target.json").read_text())["inputs"] == {"n": 3}
        assert sorted(os.listdir()) == ["link.json", "target.json"]

    def test_dev_null_out_written_in_place(self, capsys):
        code, out, err = run(capsys, "detvar", "--n", "2", "--out", os.devnull)
        assert (code, out, err) == (0, "", "")
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_new_files_take_the_umask(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        umask = os.umask(0o027)
        try:
            code, _, _ = run(capsys, "detvar", "--n", "2", "--out", "r.json", "--emit-strata", "s.json")
        finally:
            os.umask(umask)
        assert code == 0
        for name in ("r.json", "s.json"):
            assert stat.S_IMODE(os.stat(name).st_mode) == 0o666 & ~0o027

    def test_longer_files_are_truncated(self, capsys, tmp_path, monkeypatch):
        # each existing file is replaced, keeping its permission bits
        monkeypatch.chdir(tmp_path)
        argv, emitted = CASES["quadric_n5_r4_emit"]
        for name in ("r.json", emitted):
            Path(name).write_bytes(b"x" * 100_000)
            os.chmod(name, 0o640)
        umask = os.umask(0o077)
        try:
            assert run(capsys, *argv, "--out", "r.json")[0] == 0
        finally:
            os.umask(umask)
        assert Path("r.json").read_bytes() == (GOLDEN / "quadric_n5_r4_emit.out").read_bytes()
        strata = (GOLDEN / "quadric_n5_r4_emit.strata.json").read_bytes()
        assert Path(emitted).read_bytes() == strata
        for name in ("r.json", emitted):
            assert stat.S_IMODE(os.stat(name).st_mode) == 0o640
        assert sorted(os.listdir()) == sorted(["r.json", emitted])

    @pytest.mark.parametrize(
        "what, argv",
        [
            (
                "--d + 2 and the --poly length",
                ["involute", "--d", str(MAX_AMBIENT - 1), "--poly", "0,1"],
            ),
            ("--n + 1", ["quadric", "--n", str(MAX_AMBIENT), "--rank", "5"]),
        ],
        ids=["involute", "quadric"],
    )
    def test_sizes_over_limit_rejected(self, capsys, what, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        limit = f"at most {MAX_AMBIENT}, got {MAX_AMBIENT + 1}"
        assert err == f"error: need {what} {limit}\n"

    def test_big_integer_stringification(self):
        small = 2**63 - 1
        big = 2**63
        payload = {
            "a": [small, big, -big],
            "b": {"c": True, "d": -small},
            "e": (big, (small,)),
            "f": ClassPoly([1, -big, 0]),
        }
        out = json.loads(_json(payload, ""))
        assert out["a"] == [small, str(big), str(-big)]
        assert out["b"]["c"] is True
        assert out["b"]["d"] == -small
        assert out["e"] == [str(big), [small]]
        assert out["f"] == [1, str(-big), 0]

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(REPORT_VALUES)
    @example({"é": _EDGE, "ü": [2**63 - 1, -(2**63 - 1), True], "c": (), "d": {}})
    @example([None, False, [], ClassPoly([0, -(2**63), 2**70])])
    def test_renderer_matches_json_dumps(self, value):
        assert _json(value, "") == report_json(value)
        assert _json(value) == report_line(value)

    @needs_digit_limit
    def test_renderer_over_digit_limit(self):
        with pytest.raises(ValueError) as exc:
            _json({"a": [1, ClassPoly([0, 10**DIGIT_LIMIT])]}, "")
        assert f"error: {exc.value}\n" == too_long("the report")

    def test_renderer_rejects_value_classes(self):
        # json.dumps refused the dataclasses these were; a namedtuple must
        # not slip into a report as a list either
        spec = QuadricSpec(4, 3)
        for value in (spec, build_pair(spec).primal[0], [1, euler_table(build_pair(spec))]):
            with pytest.raises(TypeError):
                _json({"a": value}, "")

    @staticmethod
    def child(argv, cwd, stdout, stderr):
        """`main(argv)` in a child process in `cwd` with the given stdout and
        stderr, buffered as by default; stdout or stderr "closed" starts the
        child with file descriptor 1 or 2 closed, so Python sets sys.stdout
        or sys.stderr to None."""
        script = "import sys\nfrom chernmather.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        env = {**os.environ, "PYTHONPATH": str(Path(chernmather.__file__).parents[1])}
        env.pop("PYTHONUNBUFFERED", None)
        command = [sys.executable, "-c", script, *argv]
        if stderr == "closed":
            command, stderr = ["sh", "-c", '"$@" 2>&-', "sh", *command], None
        if stdout == "closed":
            command, stdout = ["sh", "-c", '"$@" >&-', "sh", *command], None
        return subprocess.run(
            command, cwd=cwd, env=env, stdout=stdout, stderr=stderr, timeout=60
        )

    @staticmethod
    def detvar_to(stdout, tmp_path, n, strata):
        """`detvar --n n` in a child process writing its report to the file
        descriptor or file `stdout`, or with it "closed", buffered as by default: the report of
        n = 2 fits the buffer and fails at its flush, that of n = 6 fails in
        the write.  With `strata`, `--emit-strata s.json` in tmp_path, where
        an "existing" s.json is there before the run.  Returns the process
        and whether s.json is there after it."""
        emitted = tmp_path / "s.json"
        if strata == "existing":
            emitted.write_text("kept\n")
        emit = ["--emit-strata", "s.json"] if strata else []
        proc = TestReportPlumbing.child(
            ["detvar", "--n", str(n), *emit], tmp_path, stdout, subprocess.PIPE
        )
        return proc, emitted.exists()

    STDOUT_CASES = pytest.mark.parametrize(
        "n, strata",
        [(n, strata) for strata in (None, "created", "existing") for n in (2, 6)],
        ids=["2", "6", "2-strata", "6-strata", "2-existing-strata", "6-existing-strata"],
    )

    @STDOUT_CASES
    def test_closed_stdout_exits_1_quietly(self, tmp_path, n, strata):
        # stdout is a pipe whose reader has already gone.  The strata file,
        # written before the report, goes again unless it existed.
        read, write = os.pipe()
        os.close(read)
        try:
            proc, emitted = self.detvar_to(write, tmp_path, n, strata)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")
        assert emitted == (strata == "existing")

    @pytest.mark.parametrize("strata", [None, "created", "existing"])
    def test_stdout_closed_at_start_exits_2(self, tmp_path, strata):
        # descriptor 1 closed when the run starts, so sys.stdout is None: one
        # error line, no traceback, and the strata file goes again unless it
        # existed
        proc, emitted = self.detvar_to("closed", tmp_path, 2, strata)
        assert proc.returncode == 2
        assert proc.stderr == b"error: cannot write the report to stdout: it is closed\n"
        assert emitted == (strata == "existing")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @STDOUT_CASES
    def test_full_stdout_exits_2(self, tmp_path, n, strata):
        # every write to /dev/full fails with ENOSPC: one error line, no
        # traceback, and the strata file goes again unless it existed
        with open("/dev/full", "w") as full:
            proc, emitted = self.detvar_to(full, tmp_path, n, strata)
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error: cannot write the report to stdout: [Errno 28] ")
        assert proc.stderr.count(b"\n") == 1
        assert emitted == (strata == "existing")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("stderr", ["full", "closed", "read-only"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["detvar", "--n", "2", "--emit-strata", "s.json"], 2),
            (["solve", "missing.json"], 2),
            (["solve", "inconsistent.json"], 3),
        ],
        ids=["full-stdout", "missing-file", "inconsistent"],
    )
    def test_unwritable_stderr_keeps_exit_code(self, tmp_path, argv, code, stderr):
        # the error line cannot be written either: the exit code stays, and
        # the strata file written before the report goes again
        data = json.loads(FIXTURE.read_text())
        data["primal"][1]["csm"][-1] += 1
        (tmp_path / "inconsistent.json").write_text(json.dumps(data))
        # descriptor 2 read-only: the child's writes fail with EBADF
        with open("/dev/full", "w") as full, open(FIXTURE) as read_only:
            err = {"full": full, "closed": "closed", "read-only": read_only}[stderr]
            proc = self.child(argv, tmp_path, full, err)
        assert proc.returncode == code
        assert not (tmp_path / "s.json").exists()

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command",
        [["detvar", "--n", "3"], ["quadric", "--n", "3", "--rank", "3"]],
        ids=["detvar", "quadric"],
    )
    @pytest.mark.parametrize("out", ["X", "./X"], ids=["plain", "dot"])
    def test_report_and_strata_on_one_file_exit_2(
        self, capsys, tmp_path, monkeypatch, command, out
    ):
        # the strata file would overwrite the report; nothing is written
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(capsys, *command, "--emit-strata", "X", "--out", out)
        assert code == 2 and stdout == ""
        assert err == f"error: --out {out} and --emit-strata X name one file\n"
        assert list(tmp_path.iterdir()) == []


def parse_outcome(parser, argv, capsys):
    """(the parsed vars() or the exit code, stdout, stderr) of parsing argv."""
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    out = capsys.readouterr()
    return outcome, out.out, out.err


CHOW_G24 = ["chow", "--r", "2", "--n", "4"]
# help, the missing and the unknown subcommand, options before the command,
# bad values, extra and unknown arguments, abbreviations and --opt=value
PARSER_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["--", "detvar", "--n", "3"],
    ["--format", "json", "detvar", "--n", "3"],
    ["--format", "xml"],
    ["detvar"],
    ["detvar", "-h"],
    ["detvar", "--n", "x"],
    ["detvar", "--n", "3", "--bogus"],
    ["detvar", "--n", "3", "solve"],
    ["detvar", "--n", "3", "--out"],
    ["detvar", "--n", "3", "--format", "xml"],
    ["detvar", "--n=3", "--e", "s.json", "--fo", "text"],
    [*CHOW_G24, "--mult", "1", "1", "--integrate", "1"],
    [*CHOW_G24, "--integrate", "1", "1", "1", "1", "--out", "r.json"],
    [*CHOW_G24, "--mult", "1"],
    CHOW_G24,
    ["chow", "-h"],
    ["involute", "-h"],
    ["involute", "--d", "1", "--poly", "0,1"],
    ["quadric", "--n", "3"],
    ["quadric", "--n", "3", "--rank", "3", "--emit", "s.json"],
    ["quadric", "-h"],
    ["solve"],
    ["solve", "a", "b"],
    ["solve", "-h"],
    ["solve", "a.json", "--format", "text"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "none")
def test_parser_matches_reference(capsys, argv):
    # the parser built from the option table parses, helps and fails
    # exactly as the parser built by hand does
    expected = parse_outcome(reference_parser(), argv, capsys)
    assert parse_outcome(_build_parser(), argv, capsys) == expected


def reference_vars(argv):
    return vars(reference_parser().parse_args(argv))


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "none")
def test_plain_reader_matches_reference(argv):
    plain = _plain_args(argv)
    assert plain is None or vars(plain) == reference_vars(argv)


@pytest.mark.parametrize("name", sorted(CASES))
def test_plain_reader_reads_golden_lines(name):
    # all but the cases kept to reach argparse
    argv = CASES[name][0]
    plain = _plain_args(argv)
    if name.startswith("argparse_"):
        assert plain is None
    else:
        assert plain is not None and vars(plain) == reference_vars(argv)


# Items of random command lines: every option, abbreviations, --opt=value,
# "--", help, negative and signed numbers, empty and spaced values, integer
# text beyond Python's digit limit, and values that name subcommands.
_OPTIONS = [
    "--d", "--poly", "--n", "--rank", "--r", "--mult", "--integrate",
    "--emit-strata", "--out", "--format",
    "--e", "--fo", "--po", "--int", "--m", "--ra", "--emit", "--n=3", "--format=text",
    "--", "-h", "--help", "-1", "-", "--bogus",
]
_VALUES = [
    "3", "2", "0", "1", "+3", " 4", "1_0", "", "x", "1,1", "2,1", "9" * 5000,
    "json", "text", "xml", "a.json", "solve", "detvar",
]
_INTS = ["3", "2", "1", "+3", " 4", "1_0"]
# each subcommand's arguments and their number of values ("" is the
# positional argument of solve; chow takes one of --mult and --integrate)
_ARGUMENTS = {
    "involute": {"--d": 1, "--poly": 1},
    "solve": {"": 1},
    "detvar": {"--n": 1, "--emit-strata": 1},
    "quadric": {"--n": 1, "--rank": 1, "--emit-strata": 1},
    "chow": {"--r": 1, "--n": 1, "--mult": 2, "--integrate": 3},
}


@st.composite
def command_lines(draw):
    """A well-formed line of one subcommand, its arguments in any order, with
    up to two arguments left out or repeated, and then up to two items of the
    vocabulary above put in or put in place of an item, the first included."""
    command = draw(st.sampled_from(sorted(_ARGUMENTS)))
    arguments = {**_ARGUMENTS[command], "--out": 1, "--format": 1}
    if command == "chow":
        del arguments[draw(st.sampled_from(["--mult", "--integrate"]))]
    chunks = []
    for name in draw(st.permutations(sorted(arguments))):
        pool = _INTS if name in ("--d", "--n", "--rank", "--r") else _VALUES
        pool = ["json", "text"] if name == "--format" else pool
        count = arguments[name]
        values = draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count))
        chunks.append([name] * (name != "") + values)
    for _ in range(draw(st.integers(0, 2))):
        chunk = draw(st.integers(0, len(chunks) - 1))
        if draw(st.booleans()):
            chunks.append(chunks[chunk])
        else:
            del chunks[chunk]
    argv = [command, *(item for chunk in chunks for item in chunk)]
    for _ in range(draw(st.integers(0, 2))):
        item = draw(st.sampled_from(_OPTIONS + _VALUES + sorted(_ARGUMENTS)))
        where = draw(st.integers(0, len(argv)))
        if draw(st.booleans()):
            argv.insert(where, item)
        else:
            argv[min(where, len(argv) - 1)] = item
    return argv


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(command_lines())
@example(["chow", "--r", "2", "--n", "4", "--mult", "1", "1", "--out", "r.json"])
@example(["solve", "--format", "text", "a.json"])
@example(["quadric", "--rank", " 4", "--emit-strata", "", "--n", "+3"])
def test_plain_reader_matches_reference_on_random_lines(argv):
    # argparse reads every line; whatever the plain reader reads, it reads alike
    plain = _plain_args(argv)
    assert plain is None or vars(plain) == reference_vars(argv)


@pytest.mark.parametrize(
    "argv, built",
    [
        *(
            (CASES[name][0], 0)
            for name in (
                "involute_d5",
                "solve_symmetric_3x3",
                "detvar_n2",
                "quadric_n3_r3",
                "chow_integrate_g24",
            )
        ),
        (["detvar", "--n=3"], 6),
        (["-h"], 6),
        (["bogus"], 6),
    ],
    ids=["involute", "solve", "detvar", "quadric", "chow", "detvar --n=3", "help", "bogus"],
)
def test_parsers_built_per_run(capsys, monkeypatch, argv, built):
    # none for a line the plain reader reads; else the top level and all
    # five subcommands
    count = 0
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal count
        count += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    try:
        main(argv)
    except SystemExit:
        pass
    assert count == built


# Values a hostile or careless stratification file may hold in place of a leaf.
_LEAF_MUTANTS = (True, False, None, "x", -1, 2**70, 1.5, [], {})


def _leaf_paths(data, path=()):
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return [path]
    return [p for key, value in items for p in _leaf_paths(value, path + (key,))]


def _mutant(rng, data):
    """A copy of data with one to three leaves replaced or deleted."""
    data = json.loads(json.dumps(data))
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(_leaf_paths(data))
        target = data
        for key in path[:-1]:
            target = target[key]
        if rng.random() < 0.2:
            del target[path[-1]]
        else:
            old = target[path[-1]]
            negative = -abs(old) - 1 if type(old) is int else -1
            target[path[-1]] = rng.choice(_LEAF_MUTANTS + (negative,))
    return data


def _partition_arg(rng):
    if rng.random() < 0.3:
        return rng.choice(["", "x", "2,,1", "2,0,1", "-1"])
    return ",".join(str(rng.randint(0, 4)) for _ in range(rng.randint(1, 4)))


def _random_argv(rng, tmp_path):
    """A small command line of one of the five subcommands, often malformed."""
    num = lambda hi: str(rng.randint(-1, hi))  # noqa: E731
    command = rng.choice(["involute", "solve", "detvar", "quadric", "chow"])
    if command == "involute":
        poly = [rng.choice([0, 1, -3, 7, 2**70]) for _ in range(rng.randint(1, 14))]
        argv = ["--d", num(12), "--poly", rng.choice([",".join(map(str, poly)), "1,,2"])]
    elif command == "solve":
        argv = [rng.choice([str(FIXTURE), str(tmp_path / "missing.json"), str(tmp_path)])]
    elif command == "detvar":
        argv = ["--n", num(6)]
    elif command == "quadric":
        argv = ["--n", num(12), "--rank", num(14)]
    else:
        argv = ["--r", num(9), "--n", num(8)]
        if rng.random() < 0.5:
            argv += ["--mult", _partition_arg(rng), _partition_arg(rng)]
        else:
            argv += ["--integrate"] + [_partition_arg(rng) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.1:
        del argv[rng.randrange(len(argv))]
    if rng.random() < 0.2:
        argv += ["--format", rng.choice(["text", "json", "xml"])]
    if rng.random() < 0.3:
        emits = command in ("detvar", "quadric") or rng.random() < 0.1
        flag = "--emit-strata" if emits and rng.random() < 0.7 else "--out"
        argv += [flag, str(rng.choice([tmp_path, tmp_path / "missing"]) / "file.json")]
    return [command] + argv


def test_cli_fuzz(capsys, tmp_path):
    """Seeded mutants of the fixture file and random command lines: every
    call exits 0, 2 or 3, or argparse exits 2, and raises nothing else; a
    nonzero exit writes exactly one line to stderr."""

    def check(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            capsys.readouterr()
            return
        except Exception as exc:
            raise AssertionError(f"{argv} raised {exc!r}") from exc
        err = capsys.readouterr().err
        assert code in (0, 2, 3), argv
        if code:
            assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)
        else:
            assert err == "", argv

    rng = random.Random(0)
    data = json.loads(FIXTURE.read_text())
    mutant = tmp_path / "mutant.json"
    for _ in range(120):
        mutant.write_text(json.dumps(_mutant(rng, data)))
        check(["solve", str(mutant)])
        check(_random_argv(rng, tmp_path))
