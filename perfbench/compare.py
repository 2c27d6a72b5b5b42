"""Compare benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py --parent runs/parent/*.out --change runs/change/*.out

Each file holds the standard output of one `perfbench/run.py --trace 0`
run.  Runs are paired by workload and seed.  For every workload and
end-to-end metric the tool prints each side's median and quartiles, the
ratio of the medians with its base, the pairs the change won, and a
verdict:

  improved    the change won at least 9 of 10 pairs (ties count for
              neither), there are at least 10 pairs, its median is better
              by more than the parent's quartile distance, and no more
              jobs failed than at the parent;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's own quartile distance exceeds the bound, so a
              regression of that size could not be seen, and the change
              did not beat every parent run;
  no worse    otherwise.

With --parent alone it prints each metric's spread (quartile distance over
median) against its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_run(path: str) -> tuple[str, int, dict]:
    """(workload, seed, result) from the captured output of one run."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    header = next((line for line in lines if line.startswith("perfbench ")), None)
    if header is None or not lines[-1].startswith("{"):
        raise ValueError(f"{path}: not the output of perfbench/run.py")
    fields = dict(tok.split("=", 1) for tok in header.split()[1:])
    if fields.get("trace") != "0":
        raise ValueError(f"{path}: a traced run has no end-to-end metrics")
    return fields["workload"], int(fields["seed"]), json.loads(lines[-1])


def load_side(paths: list[str]) -> dict:
    """{workload: {seed: result}}."""
    side: dict = {}
    for path in paths:
        workload, seed, result = load_run(path)
        side.setdefault(workload, {})[seed] = result
    return side


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], wins: int, pairs: int,
            sign: int, bound: float, more_failures: bool) -> str:
    """sign is +1 where higher is better, -1 where lower is."""
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and sign * (cm - pm) > 0
            and abs(cm - pm) > p3 - p1 and not more_failures):
        return "improved"
    if all(sign * (c - p) > 0 for c in change for p in parent):
        return "no worse"
    if (p3 - p1) > bound * abs(pm):
        return "unresolved"
    if -sign * (cm - pm) > bound * abs(pm):
        return "worse"
    return "no worse"


def _fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, help="outputs of parent runs")
    parser.add_argument("--change", nargs="+", default=[], help="outputs of change runs")
    args = parser.parse_args(argv)
    with open(SPEC, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent = load_side(args.parent)
    change = load_side(args.change)

    for workload in sorted(parent):
        p_runs = parent[workload]
        c_runs = change.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        p_failed = sum(r["failed"] for r in p_runs.values())
        c_failed = sum(r["failed"] for r in c_runs.values())
        print(f"== {workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs, "
              f"{len(seeds)} pairs; failed jobs: parent {p_failed}, change {c_failed}")
        for m in metrics:
            name, unit, bound = m["name"], m["unit"], m["bound"]
            pv = [r["metrics"][name]["value"] for r in p_runs.values()]
            q1, pm, q3 = quartiles(pv)
            if not c_runs:
                print(f"{name} ({unit}): median [q1, q3] {_fmt(pv)}; spread "
                      f"{(q3 - q1) / pm:.4f} of the median, bound {bound}")
                continue
            cv = [r["metrics"][name]["value"] for r in c_runs.values()]
            pairs = [(p_runs[s]["metrics"][name]["value"], c_runs[s]["metrics"][name]["value"])
                     for s in seeds]
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
            cm = statistics.median(cv)
            print(f"{name} ({unit}): parent {_fmt(pv)}  change {_fmt(cv)}  "
                  f"change/parent {cm / pm:.4f} (base: parent median {pm:.5g} {unit})  "
                  f"change won {wins}/{len(pairs)} pairs  -> "
                  f"{verdict(pv, cv, wins, len(pairs), sign, bound, c_failed > p_failed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
