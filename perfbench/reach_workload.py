"""The ``reach`` workload: the paper's Table 1.

On each circuit one exact BFS and one high-density traversal run, each
on its own freshly encoded circuit, so neither reuses the other's
computed table.  An operation is one row of Table 1: a circuit's BFS
and its high-density traversal.  A round has three, however many
iterations the traversals take, so operations per second are
proportional to 1/(bfs_s + hd_s).  An operation fails if either of its
traversals raises.

Circuits (fixed; the seed draws only the simulation traces):

* ``serial_multiplier(7)`` with RUA: deep and narrow, 129 iterations;
* ``pipeline_controller(3,3)`` with RUA, which also has an
  explicit-state reference;
* ``shift_queue(5,3)`` with SP, the s5378opt stand-in where SP beats
  RUA.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
from pathlib import Path

from repro.core.approx import UNDER_APPROXIMATORS
from repro.core.decomp import DECOMPOSERS, decompose
from repro.fsm import encode
from repro.fsm.benchmarks import (pipeline_controller, serial_multiplier,
                                  shift_queue)
from repro.reach import (TransitionRelation, bfs_reachability,
                         high_density_reachability)

from . import checks
from .common import Round, cache_counters, counter_delta, vm_hwm_mb
from .inputs import simulation_traces
from .spans import Tracer, call, traced_sizes

#: (factory, arguments, subsetting method of the high-density run)
CIRCUITS = (
    (serial_multiplier, (7,), "rua"),
    (pipeline_controller, (3, 3), "rua"),
    (shift_queue, (5, 3), "sp"),
)

#: Explicit-state reference of pipeline_controller(3,3); regenerate with
#: ``PYTHONPATH=src python3 -m perfbench.reference`` from the repository
#: root.
REFERENCE = (Path(__file__).parent / "reference"
             / "pipeline_controller_3x3.json")

#: Set-ups of each traversal in an untraced round, made right before
#: it: the traversal runs on the last, and the round's ``setup_s`` is the
#: sum over its six traversals of the median set-up.  Spread over the
#: round, the samples average out the host's speed, which shifts within
#: seconds.  A traced round sets up once, so its ``fsm.encode_s`` and
#: ``reach.tr_build_s`` are one set-up's.
SETUPS = 3

#: Simulation traces checked against every BFS reached set.
TRACE_COUNT, TRACE_LENGTH = 8, 48


def _label(make, args) -> str:
    return f"{make.__name__}{args}"


class _Problem:
    """One traversal to run: a fresh encoding and its relation."""

    def __init__(self, make, args, kind: str, method: str,
                 tracer: Tracer | None) -> None:
        self.label = _label(make, args)
        self.kind = kind
        self.method = method
        circuit = make(*args)
        self.encoded = call(tracer, "fsm.encode", encode, circuit)
        self.tr = call(tracer, "reach.tr_build", TransitionRelation,
                       self.encoded)
        self.init = self.encoded.initial_states()


def _set_up(make, args, kind: str, method: str,
            tracer: Tracer | None) -> tuple[_Problem, float]:
    """Set one traversal up; returns the problem and the median seconds
    of its :data:`SETUPS` set-ups (one in a traced round)."""
    samples = []
    for number in range(SETUPS if tracer is None else 1):
        if number:
            problem = None
            gc.collect()
        begin = time.perf_counter()
        problem = _Problem(make, args, kind, method, tracer)
        samples.append(time.perf_counter() - begin)
    return problem, statistics.median(samples)


def _traverse(problem: _Problem, tracer: Tracer | None):
    """Run one traversal; returns (result, subset pairs, seconds).  In
    a traced round, image calls are traced through an instance attribute
    that shadows ``TransitionRelation.image``."""
    if tracer is not None:
        problem.tr.image = tracer.wrap("reach.image", problem.tr.image)
    approximator = UNDER_APPROXIMATORS[problem.method]
    pairs = []

    def subset(new, *, threshold=0):
        if tracer is None:
            dense = approximator(new, threshold=threshold)
        else:
            with tracer.span("reach.subset"):
                dense = call(tracer, f"approx.{problem.method}",
                             approximator, new, threshold=threshold)
        pairs.append((new, dense))
        return dense

    start = time.perf_counter()
    try:
        if problem.kind == "bfs":
            result = call(tracer, "reach.bfs", bfs_reachability,
                          problem.tr, problem.init)
        else:
            result = call(tracer, "reach.hd", high_density_reachability,
                          problem.tr, problem.init, subset)
    finally:
        spent = time.perf_counter() - start
        if tracer is not None:
            del problem.tr.image
    return result, pairs, spent


def _check_reference(reached, state_vars, want: dict) -> None:
    count, digest = checks.reached_digest(reached, state_vars)
    if (count, digest) != (want["states"], want["sha256"]):
        raise checks.CheckError(
            f"pipeline_controller(3, 3): {count} BFS states do not match "
            f"the {want['states']} explicit-state states")


def prepare(seed: int) -> dict:
    """The explicit-state reference (the circuits are fixed and the
    simulation traces are drawn per round)."""
    with open(REFERENCE) as handle:
        return json.load(handle)


def run_round(seed: int, tracer: Tracer | None = None,
              context: dict | None = None) -> Round:
    reference = context if context is not None else prepare(seed)
    setup_s = 0.0
    managers = []
    counters: dict[str, float] = {}
    row_ms: dict[str, float] = {}
    results = {}
    pairs = []
    seconds = {"bfs": 0.0, "hd": 0.0}
    for make, args, method in CIRCUITS:
        for kind in ("bfs", "hd"):
            problem, median_s = _set_up(make, args, kind, method, tracer)
            setup_s += median_s
            managers.append(problem.encoded.manager)
            before = cache_counters(managers[-1:])
            try:
                with traced_sizes(tracer):
                    result, dense, spent = _traverse(problem, tracer)
            except Exception as exc:  # counted, reported, run goes on
                print(f"reach: {problem.label} {kind} raised {exc!r}",
                      file=sys.stderr)
                continue
            finally:
                delta = counter_delta(cache_counters(managers[-1:]), before)
                for key, value in delta.items():
                    counters[key] = counters.get(key, 0) + value
            row_ms[problem.label] = (row_ms.get(problem.label, 0.0)
                                     + spent * 1000.0)
            pairs += dense
            seconds[kind] += spent
            results[problem.label, kind] = (problem, result)
    peak_nodes = sum(m.stats.peak_nodes for m in managers)
    peak_rss = vm_hwm_mb()

    # A row whose two traversals both returned is one completed operation.
    done = [_label(make, args) for make, args, _ in CIRCUITS
            if all((_label(make, args), kind) in results
                   for kind in ("bfs", "hd"))]
    out = Round(setup_s=setup_s, timed_s=sum(seconds.values()),
                op_ms=[row_ms[label] for label in done],
                attempted=len(CIRCUITS), failed=len(CIRCUITS) - len(done),
                exact={}, peak_rss_mb=peak_rss, counters=counters,
                layer={"reach.iterations": sum(
                    r.iterations for _, r in results.values())})
    ratios = []
    for make, args, _ in CIRCUITS:
        label = _label(make, args)
        if label not in done:
            continue
        problem, bfs = results[label, "bfs"]
        _, hd = results[label, "hd"]
        traces = simulation_traces(problem.encoded.circuit, seed,
                                   TRACE_COUNT, TRACE_LENGTH)
        out.check(checks.check_reached, label, bfs.reached,
                  problem.encoded, problem.tr.image, traces)
        out.check(checks.check_same_set, label, hd.reached, bfs.reached)
        if make is pipeline_controller:
            out.check(_check_reference, bfs.reached,
                      problem.encoded.state_vars, reference)
        for method in DECOMPOSERS:
            g, h = decompose(bfs.reached, method)
            out.check(checks.check_factors, f"{label} {method}",
                      bfs.reached, g, h)
            ratios.append(max(len(g), len(h)) / len(bfs.reached))
    gains = [dense.density() / new.density() for new, dense in pairs
             if not dense.is_false]
    out.exact = {"peak_nodes": peak_nodes,
                 "subset_density_gain": out.geomean("density gains", gains),
                 "decomp_factor_ratio": out.geomean("factor ratios",
                                                    ratios)}
    return out
