"""Seeded job lists and report checks for the benchmark workloads.

A job is one `chernmather` command line plus the facts its report must
satisfy.  The references are computed here from closed forms, not by the
package under test: binomial obstruction tables, the class of projective
space, the all-ones table of a linear flag, the quadric value (-1)^r + 1,
the hook-length formula, and the agreement of conjugate twins on G(r, n)
and G(n - r, n).

Sizes are drawn stratified: the i-th job of a kind draws from the i-th
slice of its size range.  Inputs still change with the seed, but every seed
covers the whole range, so pass times and tails stay comparable across
seeds.
"""

from __future__ import annotations

import json
import os
import random
from math import comb, factorial

WORKLOADS = ("detvar-sweep", "strata-solve", "schubert-chow")

FIXTURE = os.path.join("tests", "data", "symmetric_3x3.json")

DETVAR_SIZES = range(2, 8)  # n = 8 takes about 30 s per job
FLAG_JOBS, FLAG_N, FLAG_M = 40, (10, 70), (2, 16)
QUADRIC_JOBS, QUADRIC_N = 24, (3, 60)
EMIT_SIZES = range(3, 7)
# Every box G(r, n) from G(3, 8) to G(9, 12) with both sides at least 3, so
# job sizes spread without gaps; twins on those with r <= n - r, n <= 11.
HOOK_BOXES = tuple((r, n) for n in range(8, 13) for r in range(3, n - 2))
TWIN_BOXES = tuple((r, n) for n in range(8, 12) for r in range(3, n // 2 + 1))

# The highest percentile of job time with at least 10 jobs beyond it in a
# 30 s run on every seed.  It is fixed per workload because a percentile
# that followed the run's job count would jump between job sizes (the
# n = 6 and n = 7 jobs of detvar-sweep) from one run to the next.
TAIL_PERCENTILE = {"detvar-sweep": 75, "strata-solve": 95, "schubert-chow": 95}


class CheckFailed(Exception):
    """A report disagrees with its reference."""


def _job(job_id: str, argv: list[str], kind: str, **expect) -> dict:
    return {"id": job_id, "argv": argv, "kind": kind, "expect": expect}


def _slice(rng: random.Random, i: int, count: int, lo: int, hi: int) -> int:
    """A value in the i-th of `count` equal slices of lo..hi."""
    width = hi - lo + 1
    return lo + (width * i + rng.randrange(width)) // count


# -- generation ---------------------------------------------------------


def make_jobs(workload: str, seed: int, work: str) -> list[dict]:
    """The job list of one pass, in the order the seed gives it.

    Input files are written into `work`.  Runs in a throwaway process,
    because the quadric and detvar generators fill the package's caches.
    """
    rng = random.Random(f"{workload}/{seed}")
    if workload == "detvar-sweep":
        jobs = [_job(f"detvar-n{n}", ["detvar", "--n", str(n)], "detvar", n=n)
                for n in DETVAR_SIZES]
    elif workload == "strata-solve":
        jobs = _strata_jobs(rng, work)
    elif workload == "schubert-chow":
        jobs = _chow_jobs(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def _csm_linear(k: int, modulus: int) -> list[int]:
    """Class of P^k in P^(modulus-1): H^(modulus-1-k) (1+H)^(k+1)."""
    shift = modulus - 1 - k
    return [comb(k + 1, j - shift) if j >= shift else 0 for j in range(modulus)]


def _flag_side(modulus: int, dims: list[int], prefix: str) -> list[dict]:
    """Open strata of a flag of linear spaces, largest first."""
    closures = [_csm_linear(d, modulus) for d in dims] + [[0] * modulus]
    return [
        {"name": f"{prefix}{i}", "dim": d,
         "csm": [a - b for a, b in zip(closures[i], closures[i + 1])]}
        for i, d in enumerate(dims)
    ]


def flag_pair(modulus: int, dims: list[int]) -> dict:
    """A flag of linear spaces in P^(N-1) against the flag of their duals.

    The dual of P^d is P^(N-2-d), so the deepest primal closure pairs with
    the largest dual one.
    """
    dims = sorted(dims, reverse=True)
    m = len(dims)
    return {
        "N": modulus,
        "primal": _flag_side(modulus, dims, "flag"),
        "dual": _flag_side(modulus, [modulus - 2 - d for d in reversed(dims)], "coflag"),
        "pairing": [[r, m - 1 - r] for r in range(m)],
    }


def _write(work: str, name: str, data: dict) -> str:
    path = os.path.join(work, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _strata_jobs(rng: random.Random, work: str) -> list[dict]:
    from chernmather import cli, quadric

    jobs = []
    for i in range(FLAG_JOBS):
        modulus = _slice(rng, i, FLAG_JOBS, *FLAG_N)
        m = _slice(rng, i, FLAG_JOBS, *FLAG_M)
        dims = rng.sample(range(modulus - 1), m)
        path = _write(work, f"flag{i:02d}.json", flag_pair(modulus, dims))
        jobs.append(_job(f"flag-{i:02d}", ["solve", path], "ones", strata=m))
    for i in range(QUADRIC_JOBS):
        n = _slice(rng, i, QUADRIC_JOBS, *QUADRIC_N)
        r = rng.randint(3, n)
        pair = quadric.build_pair(quadric.QuadricSpec(n, r))
        path = _write(work, f"quadric{i:02d}.json", pair.to_dict())
        jobs.append(_job(f"quadric-{i:02d}", ["solve", path], "quadric", rank=r))
    for n in EMIT_SIZES:
        path = os.path.join(work, f"detvar{n}.json")
        code = cli.main(["detvar", "--n", str(n), "--emit-strata", path,
                         "--out", os.devnull])
        if code != 0:
            raise RuntimeError(f"detvar --n {n} --emit-strata exited {code}")
        jobs.append(_job(f"emit-n{n}", ["solve", path], "binomial", n=n))
    jobs.append(_job("fixture", ["solve", FIXTURE], "fixture"))
    return jobs


def _random_partition(rng: random.Random, size: int, rows: int, cols: int) -> list[int]:
    """Grow a partition inside the rows x cols box one random cell at a time."""
    parts = [0] * rows
    for _ in range(size):
        corners = [i for i in range(rows)
                   if parts[i] < cols and (i == 0 or parts[i] < parts[i - 1])]
        parts[rng.choice(corners)] += 1
    return [p for p in parts if p]


def _arg(parts: list[int]) -> str:
    return ",".join(map(str, parts))


def _conjugate(parts: list[int]) -> list[int]:
    return [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []


def _chow_argv(r: int, n: int, factors: list[list[int]]) -> list[str]:
    return ["chow", "--r", str(r), "--n", str(n), "--integrate",
            *(_arg(f) for f in factors)]


def _chow_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for i, (r, n) in enumerate(HOOK_BOXES):
        dim = r * (n - r)
        # |lam| is fixed per box and a single row or column is redrawn: both
        # change the job's cost several-fold, and these jobs set the tail.
        lam = _random_partition(rng, dim // 6, r, n - r)
        while dim // 6 >= 4 and (len(lam) < 2 or lam[0] < 2):
            lam = _random_partition(rng, dim // 6, r, n - r)
        factors = ([lam] if lam else []) + [[1]] * (dim - sum(lam))
        jobs.append(_job(f"hook-{i:02d}", _chow_argv(r, n, factors), "hook",
                         rows=r, cols=n - r, lam=lam))
    for i, (r, n) in enumerate(TWIN_BOXES):
        left = r * (n - r)
        factors = []
        while left:  # sizes 3, 2, 1, 3, 2, 1, ...: only the shapes are drawn
            size = min(left, 3 - len(factors) % 3)
            factors.append(_random_partition(rng, size, r, n - r))
            left -= size
        twins = [_chow_argv(r, n, factors),
                 _chow_argv(n - r, n, [_conjugate(f) for f in factors])]
        for side, argv in zip("ab", twins):
            jobs.append(_job(f"twin-{i:02d}{side}", argv, "twin", group=f"twin-{i:02d}"))
    return jobs


# -- checks ---------------------------------------------------------------


def _ints(values) -> list[int]:
    """Report integers; those beyond 64 bits arrive as decimal strings."""
    return [int(v) for v in values]


def _expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got}, expected {want}")


def _binomial_tables(out: dict, n: int) -> None:
    want = [[comb(r, k) if r >= k else 0 for r in range(n)] for k in range(n)]
    _expect("primal table", [_ints(row) for row in out["euler_table_primal"]], want)
    _expect("dual table", [_ints(row) for row in out["euler_table_dual"]], want)
    _expect("origin column", _ints(out["origin_column"]), [comb(n, k) for k in range(n)])


def _triangle_of_ones(m: int) -> list[list[int]]:
    return [[1 if j >= i else 0 for j in range(m)] for i in range(m)]


def hook_count(rows: int, cols: int, lam: list[int]) -> int:
    """Standard Young tableaux on the box minus lam, by the hook-length
    formula: the degree of sigma_lam * sigma_1^(dim - |lam|)."""
    padded = lam + [0] * (rows - len(lam))
    shape = [cols - padded[rows - 1 - i] for i in range(rows)]
    shape = [p for p in shape if p]
    cols_of = _conjugate(shape)
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j) + (cols_of[j] - i) - 1
    return factorial(sum(shape)) // hooks


def check(job: dict, report: dict):
    """Raise CheckFailed unless the report matches the job's reference.

    Returns the value that group checks compare (the integral for chow
    jobs), or None.
    """
    out = report["outputs"]
    kind, expect = job["kind"], job["expect"]
    if kind == "detvar":
        n = expect["n"]
        _binomial_tables(out, n)
        for r in range(1, n):
            _expect(f"duality_{n}_{r}", out[f"duality_{n}_{r}"], True)
        total = [sum(c) for c in zip(*(_ints(out[f"csm_{n}_{k}"]) for k in range(n)))]
        _expect("sum of open-stratum classes", total, [comb(n * n, j) for j in range(n * n)])
        for k in range(n):
            _expect(f"chern_mather_primal[tau_{n}_{k}]",
                    _ints(out["chern_mather_primal"][f"tau_{n}_{k}"]), _ints(out[f"q_{n}_{k}"]))
    elif kind == "ones":
        m = expect["strata"]
        _expect("primal table", out["euler_table_primal"], _triangle_of_ones(m))
        _expect("dual table", out["euler_table_dual"], _triangle_of_ones(m))
        _expect("origin column", out["origin_column"], [1] * m)
    elif kind == "quadric":
        _expect("primal table", out["euler_table_primal"],
                [[1, (-1) ** expect["rank"] + 1], [0, 1]])
        _expect("dual table", out["euler_table_dual"], [[1]])
    elif kind == "binomial":
        _binomial_tables(out, expect["n"])
    elif kind == "fixture":
        _expect("primal row 1", out["euler_table_primal"][1], [0, 1, 0])
        _expect("origin column", out["origin_column"], [1, 1, 1])
    elif kind == "hook":
        _expect("integral", int(out["integral"]),
                hook_count(expect["rows"], expect["cols"], expect["lam"]))
    elif kind == "twin":
        value = int(out["integral"])
        if value < 0:
            raise CheckFailed(f"integral {value} is negative")
        return value
    else:
        raise ValueError(f"unknown check kind {kind!r}")
    return None


def check_groups(jobs: list[dict], values: dict) -> dict:
    """Twin integrals must agree.  Returns {job id: reason} for failures;
    a twin whose partner failed its own check fails too."""
    groups: dict[str, list[str]] = {}
    for job in jobs:
        if "group" in job["expect"]:
            groups.setdefault(job["expect"]["group"], []).append(job["id"])
    failed = {}
    for ids in groups.values():
        got = [values.get(i) for i in ids]
        if None in got or len(set(got)) != 1:
            for i in ids:
                failed[i] = f"twin integrals disagree: {dict(zip(ids, got))}"
    return failed
