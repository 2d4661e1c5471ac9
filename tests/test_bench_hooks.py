"""Every name the benchmark's tracer wraps still exists, and unwrapping restores it.

`perfbench/tracing.py` patches functions and methods by name; a rename or a
deletion here fails this test instead of only the slow benchmark smoke run.
"""

import importlib.util
from pathlib import Path

import dsegym.orchestrator as orchestrator
import dsegym.spaces as spaces
from dsegym.envs.base import SyntheticEnv

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_unpatch(tmp_path):
    tracing = _load_tracing()
    env_methods = dict(SyntheticEnv.__dict__)
    functions = (spaces.design_map, orchestrator.run_trial)
    tracer = tracing.Tracer(tmp_path)
    try:
        tracing.install(tracer)
        assert SyntheticEnv.__dict__["step"] is not env_methods["step"]
        spec = orchestrator.TrialSpec("dram-small", "stream", "low-power", "RW", 3, seed=0)
        orchestrator.run_trial(spec)
        assert tracer.count(("setup",), "envs.step.dram") == 3
    finally:
        tracer.unpatch()
    assert dict(SyntheticEnv.__dict__) == env_methods
    assert (spaces.design_map, orchestrator.run_trial) == functions
