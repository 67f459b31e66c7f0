"""The ``population`` workload: the paper's Tables 2-4.

The seeded ``population_specs`` population at 300 nodes and more,
without ``adder_carry14`` and ``adder_carry16`` (~30k nodes and more;
these two alone take over 90 s under decomposition).  On every
function: RUA; HB and SP with the RUA size as their budget; UA, C1 and
C2; then each registered decomposition.  An operation is one of these
nine calls.  The seed draws the eight random DNFs of the population.
"""

from __future__ import annotations

import sys
import time

from repro.core.approx import UNDER_APPROXIMATORS
from repro.core.decomp import DECOMPOSERS, decompose
from repro.harness.population import build_entries, population_specs

from . import checks
from .common import Round, cache_counters, counter_delta, vm_hwm_mb
from .spans import Tracer, call, traced_sizes

MIN_NODES = 300
EXCLUDED = ("adder_carry14", "adder_carry16")
#: Approximations after RUA; HB and SP take the RUA size as budget.
BUDGETED = ("hb", "sp")
UNBUDGETED = ("ua", "c1", "c2")
COMBINATIONAL = ("multiplier", "hwb", "adder", "dnf")


def specs(seed: int):
    return [s for s in population_specs(seed=seed) if s.name not in EXCLUDED]


def prepare(seed: int) -> dict[str, int]:
    """Minterm counts of the combinational functions, from numpy truth
    tables of each generator's definition (entry name -> count)."""
    return {s.name: checks.combinational_count(s.kind, s.params)
            for s in specs(seed) if s.kind in COMBINATIONAL}


def _build(seed: int):
    return [entry for spec in specs(seed)
            for entry in build_entries(spec, min_nodes=MIN_NODES)]


def _op(tracer: Tracer | None, name: str, fn, *args, **kwargs):
    start = time.perf_counter()
    result = call(tracer, name, fn, *args, **kwargs)
    return result, (time.perf_counter() - start) * 1000.0


def run_round(seed: int, tracer: Tracer | None = None,
              context: dict[str, int] | None = None) -> Round:
    counts = context if context is not None else prepare(seed)
    begin = time.perf_counter()
    with traced_sizes(tracer):
        entries = call(tracer, "harness.population_build", _build, seed)
    setup_s = time.perf_counter() - begin
    managers = list({id(e.function.manager): e.function.manager
                     for e in entries}.values())
    before = cache_counters(managers)
    op_ms: list[float] = []
    failed = 0
    outputs = []
    with traced_sizes(tracer):
        for entry in entries:
            f = entry.function
            try:
                approximations = {}
                g, ms = _op(tracer, "approx.rua", UNDER_APPROXIMATORS["rua"],
                            f)
                op_ms.append(ms)
                approximations["rua"] = g
                budget = len(g)
                for method in BUDGETED + UNBUDGETED:
                    g, ms = _op(tracer, f"approx.{method}",
                                UNDER_APPROXIMATORS[method], f,
                                threshold=budget if method in BUDGETED
                                else 0)
                    op_ms.append(ms)
                    approximations[method] = g
                factors = {}
                for method in DECOMPOSERS:
                    factors[method], ms = _op(tracer, f"decomp.{method}",
                                              decompose, f, method)
                    op_ms.append(ms)
            except Exception as exc:  # counted, reported, run goes on
                failed += 1
                print(f"population: {entry.name} raised {exc!r}",
                      file=sys.stderr)
                continue
            outputs.append((entry.name, f, approximations, factors))
    timed_s = sum(op_ms) / 1000.0
    counters = counter_delta(cache_counters(managers), before)
    peak_nodes = sum(m.stats.peak_nodes for m in managers)
    out = Round(setup_s=setup_s, timed_s=timed_s, op_ms=op_ms,
                attempted=len(op_ms) + failed, failed=failed, exact={},
                peak_rss_mb=vm_hwm_mb(), counters=counters)
    gains, ratios = [], []
    for name, f, approximations, factors in outputs:
        for method, g in approximations.items():
            out.check(checks.check_subset, f"{name} {method}", f, g)
            if not g.is_false:
                gains.append(g.density() / f.density())
        for method, (g, h) in factors.items():
            out.check(checks.check_factors, f"{name} {method}", f, g, h)
            ratios.append(max(len(g), len(h)) / len(f))
        if name in counts:
            out.check(checks.check_count, name, f.sat_count(), counts[name])
    out.exact = {"peak_nodes": peak_nodes,
                 "subset_density_gain": out.geomean("density gains", gains),
                 "decomp_factor_ratio": out.geomean("factor ratios",
                                                    ratios)}
    return out
