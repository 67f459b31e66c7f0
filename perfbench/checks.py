"""Correctness checks on program outputs.

Every check compares an output against an independent computation or a
property the output must have: never against a saved copy of an
earlier run's output.  A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterable, Sequence

import numpy as np

from repro.bdd import transfer

from .common import CheckError

#: Rows of a truth table evaluated at once (bounds numpy memory).
_CHUNK = 1 << 20

#: A cube: (variable index, polarity) per literal.
Cube = Sequence[tuple[int, bool]]


# ----------------------------------------------------------------------
# Truth-table counts with numpy, straight from each family's definition
# ----------------------------------------------------------------------

def _count_rows(nvars: int, predicate) -> int:
    """Number of assignments to ``nvars`` variables (variable k is bit k
    of the row index) on which ``predicate(rows)`` holds."""
    total = 0
    for start in range(0, 1 << nvars, _CHUNK):
        rows = np.arange(start, min(start + _CHUNK, 1 << nvars),
                         dtype=np.int64)
        total += int(np.count_nonzero(predicate(rows)))
    return total


def multiplier_bit_count(n: int, bit: int) -> int:
    """Minterms of bit ``bit`` of the product of two n-bit operands."""
    mask = (1 << n) - 1
    return _count_rows(2 * n, lambda r: ((r & mask) * (r >> n) >> bit) & 1)


def hidden_weighted_bit_count(n: int) -> int:
    """Minterms of HWB over n inputs: x[w-1] where w is the weight."""
    def hwb(rows: np.ndarray) -> np.ndarray:
        weight = np.bitwise_count(rows).astype(np.int64)
        return (weight > 0) & ((rows >> np.maximum(weight - 1, 0)) & 1 == 1)
    return _count_rows(n, hwb)


def adder_carry_count(n: int) -> int:
    """Minterms of the carry out of an n-bit adder."""
    mask = (1 << n) - 1
    return _count_rows(2 * n, lambda r: ((r & mask) + (r >> n)) >> n)


def dnf_count(nvars: int, cubes: Iterable[Cube]) -> int:
    """Minterms of a disjunction of cubes over ``nvars`` variables."""
    # A cube holds on a row when the row's bits under the cube's mask
    # equal the cube's polarities.
    masks = []
    for cube in cubes:
        mask = value = 0
        for index, positive in cube:
            mask |= 1 << index
            value |= int(positive) << index
        masks.append((mask, value))

    def dnf(rows: np.ndarray) -> np.ndarray:
        out = np.zeros(rows.shape, dtype=bool)
        for mask, value in masks:
            out |= (rows & mask) == value
        return out
    return _count_rows(nvars, dnf)


def population_dnf_cubes(nvars: int, terms: int, width: int,
                         seed: int) -> list[list[tuple[int, bool]]]:
    """The cubes ``repro.harness.population.random_dnf`` draws for a
    spec: the same random calls in the same order, on indices."""
    rng = random.Random(seed)
    cubes = []
    for _ in range(terms):
        cubes.append([(index, rng.random() < 0.5)
                      for index in rng.sample(range(nvars), width)])
    return cubes


def combinational_count(kind: str, params: tuple) -> int:
    """Truth-table minterm count of a combinational population spec."""
    if kind == "multiplier":
        return multiplier_bit_count(*params)
    if kind == "hwb":
        return hidden_weighted_bit_count(*params)
    if kind == "adder":
        return adder_carry_count(*params)
    if kind == "dnf":
        nvars, terms, width, seed = params
        return dnf_count(nvars, population_dnf_cubes(nvars, terms, width,
                                                     seed))
    raise ValueError(f"no truth-table model for spec kind {kind!r}")


def check_count(name: str, got: int, want: int) -> None:
    if got != want:
        raise CheckError(f"{name}: sat_count {got} != truth table {want}")


# ----------------------------------------------------------------------
# Approximations and decompositions
# ----------------------------------------------------------------------

def check_subset(name: str, f, g) -> None:
    """An under-approximation must imply its function: g <= f."""
    if not g <= f:
        raise CheckError(f"{name}: result is not a subset of f")


def check_factors(name: str, f, g, h) -> None:
    """A conjunctive decomposition must conjoin back to f exactly."""
    if (g & h) != f:
        raise CheckError(f"{name}: g & h != f")


# ----------------------------------------------------------------------
# Reached sets
# ----------------------------------------------------------------------

def check_reached(name: str, reached, encoded, image, traces) -> None:
    """Properties every exact reached set has.

    It holds the initial state, it is closed under ``image``, and every
    state of every concrete simulation trace lies in it.  ``traces`` is
    a list of input-vector sequences started from the reset state.
    """
    if not encoded.initial_states() <= reached:
        raise CheckError(f"{name}: reached set misses the initial state")
    if not image(reached) <= reached:
        raise CheckError(f"{name}: reached set is not closed under image")
    circuit = encoded.circuit
    for number, inputs in enumerate(traces):
        state = circuit.initial_state()
        for step, vector in enumerate(inputs):
            _, state = circuit.simulate(vector, state)
            if not encoded.state_cube(state) <= reached:
                raise CheckError(f"{name}: simulation trace {number} "
                                 f"leaves the reached set at step {step}")


def check_same_set(name: str, reached, other) -> None:
    """Two reached sets, from different managers, must be equal."""
    if transfer(other, reached.manager, declare=False) != reached:
        raise CheckError(f"{name}: high-density and BFS reached sets "
                         f"differ")


def state_digest(states: Iterable[Sequence[bool]]) -> str:
    """Order-free digest of a set of states given as bit vectors."""
    lines = sorted("".join("1" if b else "0" for b in s) for s in states)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def reached_digest(reached, state_vars: list[str]) -> tuple[int, str]:
    """State count and :func:`state_digest` of a BDD reached set."""
    states = [tuple(m[v] for v in state_vars)
              for m in reached.iter_minterms(state_vars)]
    return len(states), state_digest(states)


def explicit_states(circuit) -> list[tuple[bool, ...]]:
    """Reachable states by explicit breadth-first search over concrete
    states with ``Circuit.simulate``, trying every input vector."""
    names = [latch.name for latch in circuit.latches]
    inputs = list(circuit.inputs)
    vectors = [{name: bool(bits >> i & 1) for i, name in enumerate(inputs)}
               for bits in range(1 << len(inputs))]
    start = tuple(circuit.initial_state()[n] for n in names)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for state in frontier:
            assignment = dict(zip(names, state))
            for vector in vectors:
                _, after = circuit.simulate(vector, assignment)
                key = tuple(after[n] for n in names)
                if key not in seen:
                    seen.add(key)
                    nxt.append(key)
        frontier = nxt
    return sorted(seen)
