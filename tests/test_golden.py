"""Golden reports: the CLI output of a fixed command matrix, byte for byte.

Every report is exact and deterministic, so a refactor that keeps the
mathematics must keep these files identical.  After a deliberate change of
output, rewrite them with `PYTHONPATH=src python tests/test_golden.py`.
"""

from pathlib import Path

import pytest

from chernmather.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
FIXTURE = str(DATA / "symmetric_3x3.json")
CHOW_MULT = ["chow", "--r", "3", "--n", "6", "--mult", "2,1", "2,1"]

# name -> (argv, file written by --emit-strata or None)
CASES = {
    "involute_d5": (["involute", "--d", "5", "--poly", "0,3,9,10,6,3"], None),
    "involute_d7": (["involute", "--d", "7", "--poly", "0,0,-2,5,0,1,0,3"], None),
    # 82 coefficients (k+1)(-1)^k: degree d+1, results well past 64 bits
    "involute_d80": (
        ["involute", "--d", "80", "--poly", ",".join(str((k + 1) * (-1) ** k) for k in range(82))],
        None,
    ),
    "solve_symmetric_3x3": (["solve", FIXTURE], None),
    # the rank-4 quadric in P^5 with its singular line split at a point:
    # not a chain pairing, and two unknowns in each of its two systems
    "solve_quadric_split_locus": (["solve", str(DATA / "quadric_split_locus.json")], None),
    **{f"detvar_n{n}": (["detvar", "--n", str(n)], None) for n in range(2, 7)},
    "detvar_n3_emit": (["detvar", "--n", "3", "--emit-strata", "strata.json"], "strata.json"),
    **{
        f"quadric_n{n}_r{r}": (["quadric", "--n", str(n), "--rank", str(r)], None)
        for n in range(2, 11)
        for r in range(3, n + 2)
    },
    "quadric_n80_r5": (["quadric", "--n", "80", "--rank", "5"], None),
    "quadric_n5_r4_emit": (
        ["quadric", "--n", "5", "--rank", "4", "--emit-strata", "strata.json"],
        "strata.json",
    ),
    "chow_mult_g24": (["chow", "--r", "2", "--n", "4", "--mult", "1", "1"], None),
    "chow_mult_g36": (CHOW_MULT, None),
    "chow_mult_g25_zero": (["chow", "--r", "2", "--n", "5", "--mult", "3", "3"], None),
    "chow_integrate_g24": (["chow", "--r", "2", "--n", "4", "--integrate", "2", "2"], None),
    "chow_integrate_g36": (["chow", "--r", "3", "--n", "6", "--integrate"] + ["1"] * 9, None),
    "chow_integrate_g48_zero": (["chow", "--r", "4", "--n", "8", "--integrate", "2,1"], None),
    # a general factor, then a trailing run of sigma_1 factors
    "chow_integrate_g37_tail": (["chow", "--r", "3", "--n", "7", "--integrate", "2,1"] + ["1"] * 9, None),
    # a row strip among sigma_1 factors, which all trail it and are
    # integrated in closed form: the shape of the benchmark's hook jobs
    "chow_integrate_g69_row_then_ones": (
        ["chow", "--r", "6", "--n", "9", "--integrate", "3"] + ["1"] * 15,
        None,
    ),
    "chow_mult_g49": (["chow", "--r", "4", "--n", "9", "--mult", "3,2,1", "2,2,1"], None),
    "chow_mult_g510": (["chow", "--r", "5", "--n", "10", "--mult", "3,2,1", "3,2,1"], None),
    "chow_integrate_g49": (
        ["chow", "--r", "4", "--n", "9", "--integrate", "2,1", "2,1", "3,1", "2,2", "1,1", "3", "1"],
        None,
    ),
    # a tall box, repeated factors and two spellings of one partition
    "chow_integrate_g47_repeats": (
        ["chow", "--r", "4", "--n", "7", "--integrate", "2,1", "2,1,0", "1,1", "1,1", "1", "1"],
        None,
    ),
    "text_involute": (["involute", "--d", "2", "--poly", "0,1", "--format", "text"], None),
    "text_solve": (["solve", FIXTURE, "--format", "text"], None),
    "text_detvar_n3": (["detvar", "--n", "3", "--format", "text"], None),
    "text_quadric_n4_r3": (["quadric", "--n", "4", "--rank", "3", "--format", "text"], None),
    "text_chow_mult_g36": (CHOW_MULT + ["--format", "text"], None),
    # command lines that only argparse reads: the reports of detvar_n2 and
    # text_quadric_n4_r3, byte for byte
    "argparse_detvar_n2": (["detvar", "--n=2"], None),
    "argparse_text_quadric_n4_r3": (["quadric", "--n", "4", "--rank", "3", "--fo", "text"], None),
}


def _run(name, read_report, extra=()):
    """(file name, bytes) of the report of one case run with the arguments
    `extra` added, then of its emitted strata file."""
    argv, emitted = CASES[name]
    assert main([*argv, *extra]) == 0
    outputs = [(f"{name}.out", read_report())]
    if emitted:
        outputs.append((f"{name}.strata.json", Path(emitted).read_bytes()))
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for filename, data in _run(name, lambda: capsys.readouterr().out.encode()):
        assert data == (GOLDEN / filename).read_bytes(), filename


@pytest.mark.parametrize("name", sorted(CASES))
def test_out_file_is_byte_identical(name, capsys, tmp_path, monkeypatch):
    # the report written by --out, as every benchmark job writes it
    monkeypatch.chdir(tmp_path)
    for filename, data in _run(name, Path("report.out").read_bytes, ["--out", "report.out"]):
        assert data == (GOLDEN / filename).read_bytes(), filename
    assert capsys.readouterr().out == ""


if __name__ == "__main__":
    import contextlib
    import io
    import os
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name in sorted(CASES):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                files = _run(name, lambda: buf.getvalue().encode())
            for filename, data in files:
                (GOLDEN / filename).write_bytes(data)
    print(f"wrote the reports of {len(CASES)} cases to {GOLDEN}")
