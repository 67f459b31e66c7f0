"""Inputs drawn from the benchmark's ``--seed``.

Each generator seeds its own ``random.Random`` from a string built from
the seed and a label, so one input does not shift when another changes
and the draws do not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random


def rng_for(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def simulation_traces(circuit, seed: int, count: int,
                      length: int) -> list[list[dict[str, bool]]]:
    """``count`` random input sequences of ``length`` cycles each."""
    rng = rng_for(seed, f"traces:{circuit.name}")
    return [[{name: rng.random() < 0.5 for name in circuit.inputs}
             for _ in range(length)]
            for _ in range(count)]


def random_cubes(rng: random.Random, nvars: int, terms: int,
                 width: int) -> list[list[tuple[int, bool]]]:
    """A DNF as ``terms`` cubes of ``width`` distinct literals each."""
    return [[(index, rng.random() < 0.5)
             for index in sorted(rng.sample(range(nvars), width))]
            for _ in range(terms)]


def serve_scripts(seed: int, sessions: int, dnfs: int, nvars: int,
                  terms: int, width: int
                  ) -> list[list[list[list[tuple[int, bool]]]]]:
    """Per session, the cube lists of the DNFs it builds in turn."""
    scripts = []
    for session in range(sessions):
        rng = rng_for(seed, f"serve:{session}")
        scripts.append([random_cubes(rng, nvars, terms, width)
                        for _ in range(dnfs)])
    return scripts
