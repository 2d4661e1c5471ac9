#!/usr/bin/env python3
"""Recompute fixture-derived numbers: golden observations and SoC budget
objectives.  Run after editing cost-model constants, then review the diff.

Objective targets are aspirational: they sit at roughly half the best value
the small space can reach, so proximity rewards stay finite, smooth near
the optimum, and comparable across agents.  This script checks that
property and rewrites the `golden:` sections plus the SoC `budget`
objectives in place.
"""

from __future__ import annotations

import itertools
import re
import sys
from pathlib import Path

import numpy as np
import yaml

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dsegym.envs import list_workloads, make_env  # noqa: E402

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "dsegym" / "envs" / "fixtures"


def small_minima(family: str, workload: str, metrics: list[str]) -> dict[str, float]:
    env = make_env(f"{family}-small", workload, "budget" if family == "soc" else "low-latency")
    columns, valid = env.metrics_batch(list(itertools.product(*map(range, env.space().sizes))))
    return {m: float(np.min(columns[m][valid], initial=np.inf)) for m in metrics}


def reference_metrics(family: str, workload: str) -> dict[str, float]:
    env = make_env(family, workload, "budget" if family == "soc" else "low-latency")
    return {k: float(v) for k, v in env.observe(env.reference_point()).metrics.items()}


def rewrite_block(text: str, key: str, payload: dict) -> str:
    """Replace a top-level YAML block with a freshly dumped one."""
    dumped = yaml.safe_dump({key: payload}, sort_keys=False, default_flow_style=None)
    pattern = rf"(?m)^{key}:\n(?:[ \t].*\n?|\n)*"
    if not re.search(pattern, text):
        raise SystemExit(f"block {key!r} not found")
    return re.sub(pattern, dumped, text)


def main() -> None:
    for family in ("dram", "accel", "soc"):
        path = FIXTURES / f"{family}.yaml"
        text = path.read_text(encoding="utf-8")
        doc = yaml.safe_load(text)

        golden = {}
        for workload in sorted(doc["workloads"]):
            golden[workload] = reference_metrics(family, workload)
        text = rewrite_block(text, "golden", golden)

        if family == "soc":
            objectives = doc["objectives"]
            for workload, ref in golden.items():
                objectives[workload]["budget"] = {
                    "budgets": {m: [ref[m], 1.0] for m in ("performance", "power", "area")},
                }
            text = rewrite_block(text, "objectives", objectives)

        path.write_text(text, encoding="utf-8")
        print(f"rewrote {path.name}")

    # report target-to-minimum ratios so drifted targets are easy to spot
    for family, metrics in (("dram", ["latency", "power"]),
                            ("accel", ["latency", "energy"]),
                            ("soc", ["performance"])):
        doc = yaml.safe_load((FIXTURES / f"{family}.yaml").read_text(encoding="utf-8"))
        for workload in sorted(list_workloads(family)):
            minima = small_minima(family, workload, metrics)
            for name, spec in doc["objectives"][workload].items():
                for metric, target in spec.get("targets", {}).items():
                    ratio = target / minima[metric]
                    flag = "" if 0.3 <= ratio <= 0.7 else "  <-- outside [0.3, 0.7]"
                    print(f"{family}/{workload}/{name}: target {metric}={target} "
                          f"is {ratio:.3f} x small-space min{flag}")


if __name__ == "__main__":
    main()
