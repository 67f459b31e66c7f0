"""Shared pieces of the benchmark: order statistics, process readings,
the per-round record every workload returns, and manager counters."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field


class CheckError(AssertionError):
    """A program output failed one of the benchmark's correctness checks."""


def quantile(values: list[float], q: float) -> float:
    """The q-quantile (0 <= q <= 1) by linear interpolation."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat") as stat:
        # The command name may hold spaces: fields start after ')'.
        fields = stat.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


#: Computed-table op tags of the binary ``apply`` kernels.
APPLY_TAGS = ("and", "or", "xor", "xnor", "nand", "nor", "imp", "diff")


def cache_counters(managers) -> dict[str, float]:
    """Summed computed-table and GC counters of a set of managers."""
    totals = {"andex_hits": 0, "andex_lookups": 0, "apply_hits": 0,
              "apply_lookups": 0, "ite_lookups": 0, "cache_hits": 0,
              "cache_lookups": 0, "cache_entries": 0, "final_nodes": 0,
              "gc_count": 0, "gc_pause_s": 0.0}
    for manager in managers:
        stats = manager.stats
        for tag, op in stats.cache_per_op.items():
            totals["cache_hits"] += op.hits
            totals["cache_lookups"] += op.lookups
            if tag == "andex":
                totals["andex_hits"] += op.hits
                totals["andex_lookups"] += op.lookups
            elif tag in APPLY_TAGS:
                totals["apply_hits"] += op.hits
                totals["apply_lookups"] += op.lookups
            elif tag == "ite":
                totals["ite_lookups"] += op.lookups
        totals["cache_entries"] += stats.cache_size
        totals["final_nodes"] += stats.nodes
        totals["gc_count"] += stats.gc_count
        totals["gc_pause_s"] += stats.gc_pause_total
    return totals


def counter_delta(after: dict[str, float],
                  before: dict[str, float]) -> dict[str, float]:
    """Counters accumulated between two snapshots; the table size and
    live-node count are levels, so they keep their ``after`` value."""
    levels = ("cache_entries", "final_nodes")
    return {key: after[key] if key in levels else after[key] - before[key]
            for key in after}


@dataclass
class Round:
    """What one round of a workload measured and produced."""

    #: seconds spent setting the round up (encoding, building, booting)
    setup_s: float
    #: seconds of timed work
    timed_s: float
    #: latency of every timed operation, in milliseconds
    op_ms: list[float]
    #: operations attempted and operations that raised
    attempted: int
    failed: int
    #: exact figures: peak_nodes, subset_density_gain, decomp_factor_ratio
    exact: dict[str, float]
    #: peak resident set size the round's BDD process reached, MiB
    peak_rss_mb: float
    #: manager counters of the timed phase (see :func:`cache_counters`)
    counters: dict[str, float] = field(default_factory=dict)
    #: workload-specific per-layer readings not taken from spans
    layer: dict[str, float] = field(default_factory=dict)
    #: failed correctness checks, one message each
    errors: list[str] = field(default_factory=list)

    def geomean(self, name: str, ratios: list[float]) -> float:
        """Geometric mean of an exact figure's positive ratios.  With no
        ratios (every operation behind them failed) it records an error
        and reads 0."""
        if not ratios:
            self.errors.append(f"no {name}: every operation behind them "
                               f"failed")
            return 0.0
        return math.exp(sum(math.log(r) for r in ratios) / len(ratios))

    def check(self, fn, *args) -> None:
        """Run one correctness check, recording a failure."""
        try:
            fn(*args)
        except CheckError as exc:
            self.errors.append(str(exc))
