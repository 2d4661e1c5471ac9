"""The package runs without scipy: BO's Gaussian process needs numpy alone.

A fresh interpreter installs an import hook that makes every `scipy`
import fail, then runs the CLI: one BO trial, and a BO sweep on a process
pool whose forked workers inherit the hook.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

GUARDED_MAIN = """
import json
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r} (blocked)", name=name)
        return None


sys.meta_path.insert(0, NoScipy())
from dsegym import cli

codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "scipy_loaded": "scipy" in sys.modules}))
"""


def test_bo_trial_and_parallel_sweep_run_with_scipy_blocked(tmp_path):
    env = ["--env", "dram-small", "--workload", "cloud-1", "--objective", "low-latency"]
    argvs = [
        ["run", *env, "--agent", "BO", "--budget", "20", "--out", str(tmp_path / "run")],
        ["sweep", *env, "--agents", "BO", "--budgets", "20", "--seeds", "0", "--parallel", "2",
         "--out", str(tmp_path / "sweep")],
    ]
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", GUARDED_MAIN, json.dumps(argvs)],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0], "scipy_loaded": False}, proc.stderr
    summary = json.loads((tmp_path / "sweep" / "summary.json").read_text(encoding="utf-8"))
    assert not summary["failures"]
