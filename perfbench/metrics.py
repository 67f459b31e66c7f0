"""The benchmark's metrics: names, units, directions and how each is
computed from a run's rounds.  ``BENCHMARK.json`` lists the same names.

End-to-end metrics come from untraced rounds and exist on every
workload.  Per-layer metrics come from traced rounds; a layer a
workload does not reach reads 0 there.
"""

from __future__ import annotations

import statistics

from .common import Round, quantile
from .spans import Tracer

#: (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("peak_nodes", "count", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p95_ms", "ms", "lower"),
    ("subset_density_gain", "ratio", "higher"),
    ("decomp_factor_ratio", "ratio", "lower"),
)

APPROX_METHODS = ("rua", "hb", "sp", "ua", "c1", "c2")
DECOMP_METHODS = ("cofactor", "band", "disjoint")

PER_LAYER = (
    ("fsm.encode_s", "s", "lower"),
    ("reach.tr_build_s", "s", "lower"),
    ("reach.bfs_s", "s", "lower"),
    ("reach.hd_s", "s", "lower"),
    ("reach.image_calls", "count", "lower"),
    ("reach.image_s", "s", "lower"),
    ("reach.subset_calls", "count", "lower"),
    ("reach.subset_s", "s", "lower"),
    ("reach.iterations", "count", "lower"),
    ("reach.loop_self_s", "s", "lower"),
    ("bdd.size_calls", "count", "lower"),
    ("bdd.size_s", "s", "lower"),
    ("bdd.andex_lookups", "count", "lower"),
    ("bdd.andex_hit_rate", "ratio", "higher"),
    ("bdd.apply_lookups", "count", "lower"),
    ("bdd.apply_hit_rate", "ratio", "higher"),
    ("bdd.ite_lookups", "count", "lower"),
    ("bdd.cache_lookups", "count", "lower"),
    ("bdd.cache_hit_rate", "ratio", "higher"),
    ("bdd.cache_entries", "count", "lower"),
    ("bdd.final_nodes", "count", "lower"),
    ("bdd.gc_count", "count", "lower"),
    ("bdd.gc_pause_s", "s", "lower"),
    *((f"approx.{m}_s", "s", "lower") for m in APPROX_METHODS),
    *((f"decomp.{m}_s", "s", "lower") for m in DECOMP_METHODS),
    ("harness.population_build_s", "s", "lower"),
    ("serve.boot_s", "s", "lower"),
    ("serve.build_p50_ms", "ms", "lower"),
    ("serve.analyze_p50_ms", "ms", "lower"),
    ("serve.daemon_cpu_s", "s", "lower"),
    ("serve.client_cpu_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def ops_per_s(rounds: list[Round]) -> float:
    """Operations per timed second, pooled over the rounds."""
    return sum(len(r.op_ms) for r in rounds) / sum(r.timed_s for r in rounds)


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    """End-to-end figures of a run.  Throughput and latency quantiles
    pool every operation of every round; set-up is the median round's.
    The exact figures repeat from round to round; ``median_low`` keeps
    them whole."""
    op_ms = [ms for r in rounds for ms in r.op_ms]

    def exact(name: str) -> float:
        return statistics.median_low([r.exact[name] for r in rounds])

    return {
        "setup_s": statistics.median([r.setup_s for r in rounds]),
        "peak_rss_mb": max(r.peak_rss_mb for r in rounds),
        "peak_nodes": exact("peak_nodes"),
        "ops_per_s": ops_per_s(rounds),
        "op_p50_ms": quantile(op_ms, 0.5),
        "op_p95_ms": quantile(op_ms, 0.95),
        "subset_density_gain": exact("subset_density_gain"),
        "decomp_factor_ratio": exact("decomp_factor_ratio"),
    }


def _rate(hits: float, lookups: float) -> float:
    return hits / lookups if lookups else 0.0


def per_layer(r: Round, tracer: Tracer, since: int) -> dict[str, float]:
    """Per-layer figures of one traced round: the spans recorded since
    ``since``, the round's manager counters and its own readings."""
    spans = tracer.totals(since)

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0))[0]

    def seconds(name: str) -> float:
        return spans.get(name, (0, 0.0))[1]

    c = r.counters
    out = {
        "fsm.encode_s": seconds("fsm.encode"),
        "reach.tr_build_s": seconds("reach.tr_build"),
        "reach.bfs_s": seconds("reach.bfs"),
        "reach.hd_s": seconds("reach.hd"),
        "reach.image_calls": calls("reach.image"),
        "reach.image_s": seconds("reach.image"),
        "reach.subset_calls": calls("reach.subset"),
        "reach.subset_s": seconds("reach.subset"),
        "reach.iterations": r.layer.get("reach.iterations", 0),
        "reach.loop_self_s": tracer.self_seconds({"reach.bfs", "reach.hd"},
                                                 since),
        "bdd.size_calls": calls("bdd.size"),
        "bdd.size_s": seconds("bdd.size"),
        "bdd.andex_lookups": c.get("andex_lookups", 0),
        "bdd.andex_hit_rate": _rate(c.get("andex_hits", 0),
                                    c.get("andex_lookups", 0)),
        "bdd.apply_lookups": c.get("apply_lookups", 0),
        "bdd.apply_hit_rate": _rate(c.get("apply_hits", 0),
                                    c.get("apply_lookups", 0)),
        "bdd.ite_lookups": c.get("ite_lookups", 0),
        "bdd.cache_lookups": c.get("cache_lookups", 0),
        "bdd.cache_hit_rate": _rate(c.get("cache_hits", 0),
                                    c.get("cache_lookups", 0)),
        "bdd.cache_entries": c.get("cache_entries", 0),
        "bdd.final_nodes": c.get("final_nodes", 0),
        "bdd.gc_count": c.get("gc_count", 0),
        "bdd.gc_pause_s": c.get("gc_pause_s", 0.0),
        "harness.population_build_s": seconds("harness.population_build"),
        "serve.boot_s": seconds("serve.boot"),
    }
    for method in APPROX_METHODS:
        out[f"approx.{method}_s"] = seconds(f"approx.{method}")
    for method in DECOMP_METHODS:
        out[f"decomp.{method}_s"] = seconds(f"decomp.{method}")
    for name in ("serve.build_p50_ms", "serve.analyze_p50_ms",
                 "serve.daemon_cpu_s", "serve.client_cpu_s"):
        out[name] = r.layer.get(name, 0.0)
    return out
