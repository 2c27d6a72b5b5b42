"""Benchmark runner for chernmather.

    python3 perfbench/run.py --workload detvar-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a chernmather checkout; it imports the package from
`src/`.  One client runs a workload's jobs one at a time in a closed loop.
Each job is one call to `chernmather.cli.main(argv)` in a process forked
from this runner, which has imported the package but computed nothing, so
every job starts with cold caches, as a fresh `chernmather` process does.
Every report is checked against the references in `workloads.py`.

With `--trace 0` the runner repeats passes over the job list for
`--seconds` and prints the end-to-end metrics.  With `--trace 1` it
alternates untraced and traced passes and prints the per-layer metrics;
the spans of the first traced pass go to `.bench_out/`.  The last line of
standard output is one JSON object; the lines before it name every metric
with its unit.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 21
JOB_TIMEOUT_S = 60
MIN_TRACED_PASSES = 2

# Every time the benchmark reports is scaled by the speed of a fixed
# calibration loop run in the same process: a scaled second is what the
# call would take if the loop took CAL_REF_S.  Shared hosts drift in speed
# by a third over minutes, which no median over one run can remove; the
# loop drifts with them.  The loop runs before and after the call and every
# SAMPLE_EVERY_S of CPU time during it, from a SIGPROF handler whose time
# is taken out of the call's time.
CAL_REF_S = 0.001
CAL_ROUNDS = 1500
SAMPLE_EVERY_S = 0.1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- timing ------------------------------------------------------------------


def _step(i: int) -> tuple:
    return (i & 63, i >> 6), i * i


def loop_time() -> float:
    """Seconds for a fixed loop of calls, tuples, dict updates, a sort and
    big-integer arithmetic, the operations the package spends its time on.
    It took 0.9 to 1.6 ms on a 2-core Intel Xeon virtual machine under
    CPython 3.11."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(CAL_ROUNDS):
        key, value = _step(i)
        table[key] = table.get(key, 0) + value
    big = 3 ** 64
    for key in sorted(table):
        table[key] = table[key] * big // 7
    return time.perf_counter() - start


def timed(call):
    """(result, raw seconds, scale) of call(); scaled seconds = raw * scale."""
    samples = [loop_time()]
    paused = 0.0

    def sample(_signum, _frame):
        nonlocal paused
        start = time.perf_counter()
        samples.append(loop_time())
        paused += time.perf_counter() - start

    previous = signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    start = time.perf_counter()
    try:
        result = call()
    finally:
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    samples.append(loop_time())
    return result, seconds - paused, CAL_REF_S / statistics.mean(samples)


# -- processes ---------------------------------------------------------------


def in_child(fn, *args):
    """Run fn(*args) in a forked process.

    Returns (result, exit code, peak RSS in KiB).  The result travels back
    pickled through a pipe; it is None unless the child exited with 0.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            os.close(rfd)
            signal.alarm(JOB_TIMEOUT_S)
            data = pickle.dumps(fn(*args))
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(wfd)
    try:
        with os.fdopen(rfd, "rb") as fh:
            data = fh.read()
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(status)
    return (pickle.loads(data) if code == 0 else None), code, usage.ru_maxrss


def _job(argv: list[str], out: str, traced: bool) -> dict:
    """Child side of one job: time cli.main from the call to the rendered report."""
    from chernmather import cli

    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
    call = lambda: cli.main(argv + ["--out", out])  # noqa: E731
    code, seconds, scale = timed((lambda: tracer.run(call)) if tracer else call)
    return {"code": code, "seconds": seconds, "scale": scale,
            "trace": tracer.finish() if tracer else None}


def _generate(workload: str, seed: int, work: str, traced: bool):
    """Child side of set-up: the job list, and the set-up's spans if traced."""
    tracer = tracing.Tracer() if traced else None
    if tracer:
        tracer.install()
    jobs, _, scale = timed(lambda: workloads.make_jobs(workload, seed, work))
    return jobs, (tracer.finish()["spans"] if tracer else []), scale


def warm_caches() -> list[str]:
    """Package functions whose cache holds entries in this process."""
    warm = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("chernmather"):
            continue
        for attr, value in vars(module).items():
            info = getattr(value, "cache_info", None)
            if callable(info) and info().currsize:
                warm.append(f"{name}.{attr}")
    return warm


def measure_setup() -> list[float]:
    """Start-up of a fresh interpreter plus `import chernmather.cli`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        _, seconds, scale = timed(lambda: subprocess.run(
            [sys.executable, "-c", "import chernmather.cli"], env=env, check=True))
        times.append(seconds * scale)
    return times


# -- passes ------------------------------------------------------------------


def run_pass(jobs: list[dict], work: str, traced: bool = False) -> list[dict]:
    """Run every job once, in order, and check its report."""
    warm = warm_caches()
    if warm:
        raise RuntimeError(f"runner caches are not cold: {warm}")
    out = os.path.join(work, "report.json")
    results, values = [], {}
    for job in jobs:
        start = time.perf_counter()
        child, code, rss_kb = in_child(_job, job["argv"], out, traced)
        raw = child["seconds"] if child else time.perf_counter() - start
        scale = child["scale"] if child else 1.0
        res = {"id": job["id"], "rss_kb": rss_kb, "error": None,
               "raw_s": raw, "scale": scale, "seconds": raw * scale}
        if child is None or child["code"] != 0:
            res["error"] = f"exit code {code if child is None else child['code']}"
        else:
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
            try:
                values[job["id"]] = workloads.check(job, json.loads(text))
            except (workloads.CheckFailed, KeyError, IndexError, TypeError, ValueError) as exc:
                res["error"] = f"{type(exc).__name__}: {exc}"
            if traced and not res["error"]:
                times, calls = tracing.summarize(child["trace"]["spans"])
                res["times"] = {key: value * scale for key, value in times.items()}
                res["counts"] = {**calls, **child["trace"]["counts"],
                                 **tracing.report_counts(text)}
                res["spans"] = child["trace"]["spans"]
        if os.path.exists(out):
            os.remove(out)
        results.append(res)
    group_failures = workloads.check_groups(jobs, values)
    for res in results:
        reason = group_failures.get(res["id"])
        if reason and not res["error"]:
            res["error"] = reason
    for res in results:
        if res["error"]:
            print(f"job {res['id']} failed: {res['error']}", file=sys.stderr)
    return results


# -- metrics -----------------------------------------------------------------


def percentile(ordered: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks of sorted samples."""
    pos = pct / 100 * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail(samples: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile of the samples and how many lie beyond it."""
    ordered = sorted(samples)
    value = percentile(ordered, pct)
    return value, sum(1 for s in ordered if s > value)


def end_to_end(workload: str, passes: list[list[dict]], setup: list[float]) -> tuple[dict, dict]:
    times = [[r["seconds"] for r in p] for p in passes]
    pooled = [t for p in times for t in p]
    pct = workloads.TAIL_PERCENTILE[workload]
    tail_value, beyond = tail(pooled, pct)
    values = {
        "wall_s": statistics.median(sum(p) for p in times),
        "job_p50_s": statistics.median(statistics.median(p) for p in times),
        "job_tail_s": tail_value,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["rss_kb"] for p in passes for r in p) / 1024,
    }
    raw_wall = statistics.median(sum(r["raw_s"] for r in p) for p in passes)
    scale = statistics.median(r["scale"] for p in passes for r in p)
    notes = {
        "wall_s": f"median of {len(passes)} passes; unscaled {raw_wall:.4g} s, "
                  f"median scale {scale:.4g}",
        "job_p50_s": "median over passes of the pass median",
        "job_tail_s": f"p{pct:g} of {len(pooled)} jobs, {beyond} beyond it",
        "setup_s": f"median of {len(setup)} interpreter starts",
        "peak_rss_mb": "largest job peak RSS, runner pages included",
    }
    return values, notes


def per_layer(names: list[str], untraced: list[list[dict]], traced: list[list[dict]],
              setup_quadric_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from traced passes; counts are pass totals, times
    are the median over traced passes of pass totals.  Everything a job
    counts must repeat exactly, for the repeated job and across passes."""
    problems = []
    pass_times, pass_counts = [], []
    for results in traced:
        times: dict = {}
        counts: dict = {}
        seen: dict = {}
        for res in results:
            if res["error"]:
                continue
            job_id = res["id"].split("#")[0]
            if job_id in seen:
                if res["counts"] != seen[job_id]:
                    problems.append(f"repeated job {job_id} counted differently")
                continue
            seen[job_id] = res["counts"]
            for key, value in res["times"].items():
                times[key] = times.get(key, 0.0) + value
            for key, value in res["counts"].items():
                counts[key] = max(counts.get(key, 0), value) if key == "cli.max_int_bits" \
                    else counts.get(key, 0) + value
        pass_times.append(times)
        pass_counts.append(counts)
    if any(c != pass_counts[0] for c in pass_counts):
        problems.append("counts differ between traced passes")

    counts = pass_counts[0]

    def time_of(key):
        return statistics.median(t.get(key, 0.0) for t in pass_times)

    def ratio(num, den):
        return num / den if den else 0.0

    walls = {kind: statistics.median(sum(r["seconds"] for r in p if "#" not in r["id"])
                                     for p in passes)
             for kind, passes in (("traced", traced), ("untraced", untraced))}
    values = {}
    for name in names:
        base, _, leaf = name.rpartition(".")
        if name == "trace.overhead_s":
            values[name] = walls["traced"] - walls["untraced"]
        elif name == "quadric.s":
            # The solve jobs never call quadric; its pairs are built in set-up.
            values[name] = time_of(name) + setup_quadric_s
        elif leaf in ("s", "self_s"):
            values[name] = time_of(name)
        elif leaf == "hit_ratio":
            hits = counts.get(f"{base}.hits", 0)
            values[name] = ratio(hits, hits + counts.get(f"{base}.misses", 0))
        elif leaf == "per_stratum":
            values[name] = ratio(counts.get(f"{base}.calls", 0), counts.get(f"{base}.inputs", 0))
        else:
            values[name] = counts.get(name, 0)
    return values, problems


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running job process is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(SRC, "chernmather", "cli.py")):
        print(f"error: no chernmather sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from chernmather import cli  # noqa: F401  imported once, before any fork

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        setup = [] if args.trace else measure_setup()
        generated, code, _ = in_child(_generate, args.workload, args.seed, work, bool(args.trace))
        if generated is None:
            raise RuntimeError(f"input generation exited with code {code}")
        jobs, setup_spans, setup_scale = generated

        untraced, traced = [], []
        start = time.perf_counter()
        if args.trace:
            again = random.Random(args.seed).choice(jobs)
            repeat = {**again, "id": again["id"] + "#again"}
            while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - start < args.seconds:
                untraced.append(run_pass(jobs, work))
                traced.append(run_pass(jobs + [repeat], work, traced=True))
                if len(traced) > 1:  # only the first traced pass is written out
                    for res in traced[-1]:
                        res.pop("spans", None)
        else:
            while not untraced or time.perf_counter() - start < args.seconds:
                untraced.append(run_pass(jobs, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = [r for p in untraced + traced for r in p]
    failed = sum(1 for r in results if r["error"])
    problems = []
    names = [m["name"] for m in wanted]
    if args.trace:
        setup_quadric_s = tracing.summarize(setup_spans)[0].get("quadric.s", 0.0) * setup_scale
        values, problems = per_layer(names, untraced, traced, setup_quadric_s)
        notes = {}
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        span_file = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracing.write_spans(span_file, [("setup", setup_spans)] + [
            (r["id"], r["spans"]) for r in traced[0] if "spans" in r])
    else:
        values, notes = end_to_end(args.workload, untraced, setup)

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)}+{len(traced)} jobs={len(results)}")
    for m in wanted:
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}{note}")
    print(f"failed_frac = {failed / len(results):.6g} ratio  ({failed} of {len(results)} jobs)")
    for problem in problems:
        print(f"isolation check failed: {problem}", file=sys.stderr)
    if args.trace:
        print(f"spans written to {os.path.relpath(span_file, ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
