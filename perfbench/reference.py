"""Regenerate the explicit-state reference of ``pipeline_controller(3,3)``.

The states come from concrete simulation with ``Circuit.simulate`` and
no BDDs.  Run from the repository root::

    PYTHONPATH=src python3 -m perfbench.reference
"""

from __future__ import annotations

import json
import time

from repro.fsm.benchmarks import pipeline_controller

from .checks import explicit_states, state_digest
from .reach_workload import REFERENCE


def main() -> None:
    start = time.perf_counter()
    states = explicit_states(pipeline_controller(3, 3))
    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    with open(REFERENCE, "w") as out:
        json.dump({"circuit": "pipeline_controller(3, 3)",
                   "method": "explicit-state BFS with Circuit.simulate",
                   "command": "PYTHONPATH=src python3 -m "
                              "perfbench.reference",
                   "states": len(states),
                   "sha256": state_digest(states)}, out, indent=2)
        out.write("\n")
    print(f"{len(states)} states in {time.perf_counter() - start:.1f} s "
          f"-> {REFERENCE}")


if __name__ == "__main__":
    main()
