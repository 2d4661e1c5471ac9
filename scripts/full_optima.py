#!/usr/bin/env python3
"""Write the exact optimum of every full-space task to tests/data/full_optima.json.

Each entry, keyed "env/workload/objective", holds the best design, its
reward and the space's cardinality, as `enumerate_oracle` finds them.  The
objectives of one workload share one metric pass over the space, so full
dram (18.9M designs) takes four passes.  Run after editing a cost model,
its fixture or a reward formula, then review the diff:

    python scripts/full_optima.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dsegym.envs import ENV_IDS, get_space, list_objectives, list_workloads  # noqa: E402
from dsegym.orchestrator import enumerate_oracles  # noqa: E402
from dsegym.spaces import cardinality  # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "full_optima.json"


def main() -> None:
    optima = {}
    for env_id in (e for e in ENV_IDS if not e.endswith("-small")):
        limit = cardinality(get_space(env_id))
        for workload_id in list_workloads(env_id):
            t0 = time.perf_counter()
            objectives = list_objectives(env_id, workload_id)
            for result in enumerate_oracles(env_id, workload_id, objectives, limit):
                optima[f"{env_id}/{workload_id}/{result.objective}"] = {
                    "design": result.best_design,
                    "reward": result.best_reward,
                    "cardinality": result.space_cardinality,
                }
            print(f"{env_id}/{workload_id}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    OUT.write_text(json.dumps(optima, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
