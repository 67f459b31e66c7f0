"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload reach --seed 1 --seconds 15 --trace 0

The run repeats whole rounds of the workload, each on fresh managers (or
a fresh daemon), until the timed work adds up to ``--seconds``.  Every
round checks the program's outputs.  With ``--trace 0`` the last line
of standard output holds the end-to-end metrics; with ``--trace 1``
each untraced round is followed by a traced one, the last line holds
the per-layer metrics of the traced rounds, and the spans are written
to ``.perfbench/trace-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("reach", "population", "serve")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.metrics import (END_TO_END, PER_LAYER, end_to_end,
                                   ops_per_s, per_layer)
    from perfbench.spans import Tracer

    workload = importlib.import_module(f"perfbench.{args.workload}_workload")
    context = workload.prepare(args.seed)
    tracer = Tracer() if args.trace else None
    rounds, traced, layers = [], [], []
    measured = 0.0
    while measured < args.seconds or not rounds:
        # Collect the last round's garbage now, not inside a timed phase.
        gc.collect()
        rounds.append(workload.run_round(args.seed, None, context))
        measured += rounds[-1].timed_s
        if tracer is not None:
            gc.collect()
            since = tracer.mark()
            traced.append(workload.run_round(args.seed, tracer, context))
            measured += traced[-1].timed_s
            layers.append(per_layer(traced[-1], tracer, since))

    everything = rounds + traced
    errors = [e for r in everything for e in r.errors]
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    if tracer is None:
        values = end_to_end(rounds)
        units = {name: unit for name, unit, _ in END_TO_END}
    else:
        values = {name: statistics.median([layer[name] for layer in layers])
                  for name, _, _ in PER_LAYER if name in layers[0]}
        values["trace.overhead_pct"] = (
            ops_per_s(rounds) / ops_per_s(traced) - 1) * 100
        units = {name: unit for name, unit, _ in PER_LAYER}
        tracer.dump(ROOT / ".perfbench"
                    / f"trace-{args.workload}-{args.seed}.jsonl")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in everything),
        "failed": sum(r.failed for r in everything),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
