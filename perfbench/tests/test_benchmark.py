"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bdd import Manager
from repro.core.approx import UNDER_APPROXIMATORS
from repro.fsm import encode
from repro.fsm.benchmarks import counter, pipeline_controller, token_ring
from repro.harness.population import (adder_carry, hidden_weighted_bit,
                                      multiplier_bit, random_dnf)
from repro.reach import (TransitionRelation, bfs_reachability,
                         high_density_reachability)
from repro.serve.client import Client

from perfbench import (checks, inputs, metrics, reach_workload,
                       serve_workload)
from perfbench.common import CheckError, Round, quantile
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parents[2]


def _reach(circuit, method=None):
    encoded = encode(circuit)
    tr = TransitionRelation(encoded)
    init = encoded.initial_states()
    if method is None:
        return encoded, tr, bfs_reachability(tr, init).reached
    return encoded, tr, high_density_reachability(
        tr, init, UNDER_APPROXIMATORS[method]).reached


# ----------------------------------------------------------------------
# Each correctness check rejects a planted wrong output
# ----------------------------------------------------------------------

def test_subset_check_rejects_an_over_approximation():
    m = Manager(["a", "b", "c"])
    a, b, c = m.var("a"), m.var("b"), m.var("c")
    f = a & (b | c)
    checks.check_subset("ok", f, a & b)
    with pytest.raises(CheckError):
        checks.check_subset("planted", f, a)


def test_factor_check_rejects_a_pair_that_does_not_conjoin_to_f():
    m = Manager(["a", "b", "c"])
    a, b, c = m.var("a"), m.var("b"), m.var("c")
    f = a & (b | c)
    checks.check_factors("ok", f, a, b | c)
    with pytest.raises(CheckError):
        checks.check_factors("planted", f, a, b)
    with pytest.raises(CheckError):
        checks.check_factors("planted", f, a | b, b | c)


def test_reached_check_rejects_a_set_missing_a_state():
    encoded, tr, reached = _reach(counter(3))
    traces = inputs.simulation_traces(encoded.circuit, 1, 4, 16)
    checks.check_reached("ok", reached, encoded, tr.image, traces)
    state = {name: True for name in encoded.state_vars}
    missing = reached & ~encoded.state_cube(state)
    with pytest.raises(CheckError, match="closed under image"):
        checks.check_reached("planted", missing, encoded, tr.image, traces)
    no_init = reached & ~encoded.initial_states()
    with pytest.raises(CheckError, match="initial state"):
        checks.check_reached("planted", no_init, encoded, tr.image, traces)


def test_simulation_traces_catch_a_state_the_image_check_misses():
    # Under an image that maps every set to itself the closure check
    # passes on any set; the simulation traces must still catch the gap.
    encoded, tr, reached = _reach(counter(3))
    traces = inputs.simulation_traces(encoded.circuit, 1, 4, 16)
    state = {name: True for name in encoded.state_vars}
    missing = reached & ~encoded.state_cube(state)
    with pytest.raises(CheckError, match="simulation trace"):
        checks.check_reached("planted", missing, encoded,
                             lambda states: states, traces)


def test_same_set_check_compares_across_managers():
    _, _, bfs = _reach(token_ring(3))
    encoded, _, hd = _reach(token_ring(3), "rua")
    assert bfs.manager is not hd.manager
    checks.check_same_set("ok", hd, bfs)
    state = {name: False for name in encoded.state_vars}
    with pytest.raises(CheckError):
        checks.check_same_set("planted", hd | encoded.state_cube(state),
                              bfs)


def test_reference_check_rejects_a_set_missing_a_state():
    circuit = counter(3)
    encoded, _, reached = _reach(circuit)
    states = checks.explicit_states(circuit)
    want = {"states": len(states), "sha256": checks.state_digest(states)}
    reach_workload._check_reference(reached, encoded.state_vars, want)
    state = {name: True for name in encoded.state_vars}
    with pytest.raises(CheckError):
        reach_workload._check_reference(
            reached & ~encoded.state_cube(state), encoded.state_vars, want)


def test_stored_reference_is_the_explicit_state_set():
    states = checks.explicit_states(pipeline_controller(3, 3))
    reference = reach_workload.prepare(1)
    assert (reference["states"], reference["sha256"]) == \
        (len(states), checks.state_digest(states))


def test_count_check_rejects_a_wrong_count():
    checks.check_count("ok", 5, 5)
    with pytest.raises(CheckError):
        checks.check_count("planted", 5, 6)


# ----------------------------------------------------------------------
# Independent computations agree with the program on small instances
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n,bit", [(3, 2), (3, 3), (4, 4)])
def test_multiplier_truth_table(n, bit):
    m = Manager()
    assert multiplier_bit(m, n, bit).sat_count() == \
        checks.multiplier_bit_count(n, bit)


@pytest.mark.parametrize("n", [4, 5, 7])
def test_hidden_weighted_bit_truth_table(n):
    m = Manager()
    assert hidden_weighted_bit(m, n).sat_count() == \
        checks.hidden_weighted_bit_count(n)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_adder_carry_truth_table(n):
    m = Manager()
    assert adder_carry(m, n).sat_count() == checks.adder_carry_count(n)


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_population_dnf_replay_matches_the_generator(seed):
    m = Manager()
    variables = m.add_vars(*[f"r{i}" for i in range(8)])
    f = random_dnf(m, variables, terms=6, width=3,
                   rng=random.Random(seed))
    assert f.sat_count() == checks.dnf_count(
        8, checks.population_dnf_cubes(8, 6, 3, seed))


def test_serve_cube_counts_match_a_bdd_built_from_the_cubes():
    m = Manager()
    xs = m.add_vars(*[f"x{i}" for i in range(7)])
    rng = random.Random(3)
    cubes = inputs.random_cubes(rng, 7, 5, 3)
    f = m.false
    for cube in cubes:
        term = m.true
        for index, positive in cube:
            term &= xs[index] if positive else ~xs[index]
        f |= term
    assert f.sat_count() == checks.dnf_count(7, cubes)


def test_explicit_states_match_bfs():
    circuit = counter(3)
    encoded, _, reached = _reach(circuit)
    states = checks.explicit_states(circuit)
    assert checks.reached_digest(reached, encoded.state_vars) == \
        (len(states), checks.state_digest(states))


def test_serve_counts_an_error_reply_as_one_failed_request(monkeypatch):
    rng = random.Random(5)
    script = [inputs.random_cubes(rng, 6, 3, 2) for _ in range(2)]
    counts = [checks.dnf_count(serve_workload.NVARS, cubes)
              for cubes in script]
    real_call = Client.call
    planted = []

    def call(self, verb, params=None, **kwargs):
        # The first count request names a handle the daemon never made.
        if verb == "count" and not planted:
            planted.append(params["f"])
            params = dict(params, f="h999999")
        return real_call(self, verb, params, **kwargs)

    monkeypatch.setattr(Client, "call", call)
    r = serve_workload.run_round(1, None, ([script], [counts]))
    assert planted
    assert r.failed == 1
    assert r.attempted == len(r.op_ms) > 1
    assert r.errors == []
    assert r.exact["subset_density_gain"] > 0


# ----------------------------------------------------------------------
# Inputs, spans and metrics
# ----------------------------------------------------------------------

def test_inputs_are_a_function_of_the_seed():
    assert inputs.serve_scripts(4, 2, 3, 8, 4, 3) == \
        inputs.serve_scripts(4, 2, 3, 8, 4, 3)
    assert inputs.serve_scripts(4, 2, 3, 8, 4, 3) != \
        inputs.serve_scripts(5, 2, 3, 8, 4, 3)
    circuit = counter(3)
    assert inputs.simulation_traces(circuit, 1, 2, 5) == \
        inputs.simulation_traces(circuit, 1, 2, 5)


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            with tracer.span("leaf"):
                time.sleep(0.02)
    totals = tracer.totals()
    outer, inner = totals["outer"][1], totals["inner"][1]
    assert tracer.self_seconds({"outer"}) == pytest.approx(outer - inner)
    assert tracer.self_seconds({"inner"}) == pytest.approx(
        inner - totals["leaf"][1])
    assert totals["leaf"][0] == 1


def test_quantile_interpolates():
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert quantile([5.0], 0.95) == 5.0


def test_round_check_records_failures():
    r = Round(setup_s=1.0, timed_s=1.0, op_ms=[1.0], attempted=1,
              failed=0, exact={}, peak_rss_mb=1.0)
    r.check(checks.check_count, "planted", 1, 2)
    assert r.errors and "planted" in r.errors[0]


def test_benchmark_json_lists_the_runner_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == \
        ["reach", "population", "serve"]


def test_runner_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reach",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
