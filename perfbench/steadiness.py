"""Steadiness report: run one workload as two sets of runs and compare.

From the repository root::

    python3 perfbench/steadiness.py --workload serve --runs 10

Each set runs ``perfbench/run.py`` once per seed, seeds 1 to ``--runs``,
one run at a time, for ``run_seconds`` from ``BENCHMARK.json``.  For
every end-to-end metric the report prints each set's median and
quartiles, the spread (interquartile range over the median) and the gap
between the two sets' medians, signed so that a positive gap means the
second set is worse, against the metric's bound from
``BENCHMARK.json``.  Every metric, ``setup_s`` too, is held to its
bound on both.  It also compares the share of failed operations
between the sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}):\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set, one seed each (at least 2)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    seeds = range(1, args.runs + 1)
    seconds = spec["run_seconds"]
    sets = []
    for number in range(2):
        results = []
        for seed in seeds:
            result = run_once(args.workload, seed, seconds)
            results.append(result)
            values = " ".join(f"{name}={m['value']:.5g}" for name, m
                              in result["metrics"].items())
            print(f"set {number + 1} seed {seed}: correct="
                  f"{result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} {values}", flush=True)
        sets.append(results)

    print(f"\n{args.workload}: {args.runs} runs per set, "
          f"{seconds} s each")
    header = f"{'metric':<22}{'bound':>7}"
    for number in range(len(sets)):
        header += f"{f'median{number + 1}':>13}{'q1':>11}{'q3':>11}" \
                  f"{'spread':>8}"
    print(header + f"{'gap':>8}")
    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        line = f"{name:<22}{bound:>7.3f}"
        medians = []
        for results in sets:
            med, q1, q3, spread = summary(
                [r["metrics"][name]["value"] for r in results])
            medians.append(med)
            line += f"{med:>13.5g}{q1:>11.5g}{q3:>11.5g}{spread:>8.3f}"
            if spread > bound:
                ok = False
        sign = 1 if metric["better"] == "lower" else -1
        gap = sign * (medians[1] - medians[0]) / medians[0]
        line += f"{gap:>8.3f}"
        if gap > bound:
            ok = False
        print(line)
    shares = [[r["failed"] / r["attempted"] for r in results]
              for results in sets]
    print("failed share per run:", shares)
    if sorted(shares[0]) != sorted(shares[1]):
        ok = False
    if not all(r["correct"] for results in sets for r in results):
        ok = False
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
