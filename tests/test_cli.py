import json
from pathlib import Path

import pytest

from chernmather.cli import _stringify_big, main

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

    def test_inconsistent_names_subsystem(self, capsys, tmp_path):
        data = json.loads(FIXTURE.read_text())
        data["primal"][1]["csm"][5] += 1
        bad = tmp_path / "corrupt.json"
        bad.write_text(json.dumps(data))
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 3
        assert "sym3_corank1" in err


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


class TestChow:
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

    def test_bad_box(self, capsys):
        code, _, _ = run(capsys, "chow", "--r", "5", "--n", "4", "--integrate", "1")
        assert code == 2


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

    def test_big_integer_stringification(self):
        small = 2**63 - 1
        big = 2**63
        payload = {"a": [small, big, -big], "b": {"c": True, "d": -small}}
        out = _stringify_big(payload)
        assert out["a"] == [small, str(big), str(-big)]
        assert out["b"]["c"] is True
        assert out["b"]["d"] == -small

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
