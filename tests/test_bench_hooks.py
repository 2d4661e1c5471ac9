"""Every name the benchmark's tracer wraps still exists, and unwrapping restores it.

`perfbench/tracing.py` patches functions and methods by name; a rename or a
deletion here fails this test instead of only the slow benchmark smoke run.
"""

import importlib.util
import json
from pathlib import Path

import dsegym.orchestrator as orchestrator
import dsegym.proxy as proxy
import dsegym.spaces as spaces
from dsegym.agents import AGENT_CLASSES, Agent
from dsegym.dataset import load_dataset
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


def test_proxy_reads_and_wrappers(tmp_path):
    """The per-layer proxy metrics count `len(tree.nodes)` over each tree of
    a `train_forest` model and save it, and the tracer wraps
    `train_forest` and `predict_features`."""
    tracing = _load_tracing()
    spec = orchestrator.TrialSpec("dram-small", "stream", "low-power", "RW", 12, seed=0,
                                  out_dir=str(tmp_path))
    dataset = load_dataset(orchestrator.run_trial(spec).trajectory_file)
    predict = proxy.RandomForestModel.__dict__["predict_features"]
    tracer = tracing.Tracer(tmp_path)
    try:
        tracing.install(tracer)
        model = proxy.train_forest(dataset, "power", {"n_trees": 2})
        X, _ = proxy.dataset_matrix(dataset, "power", model.space)
        for x in X:
            model.predict_features(x)
        assert tracer.count(("setup",), "proxy.train_forest.power") == 1
        assert tracer.count(("setup",), "proxy.predict") == len(X)
    finally:
        tracer.unpatch()
    assert proxy.RandomForestModel.__dict__["predict_features"] is predict
    path = tmp_path / "model.json"
    model.save(path)
    saved = json.loads(path.read_text(encoding="utf-8"))["trees"]
    assert [len(tree.nodes) for tree in model.trees] == [len(nodes) for nodes in saved]


def test_agents_inherit_the_traced_observe():
    """The tracer times `observe` on `Agent` alone, so a subclass that
    overrode it would hide its update work (BO's GP update among them) from
    `agents.<type>.observe`; subclasses hook in through `_on_observe`."""
    for cls in AGENT_CLASSES.values():
        assert cls.observe is Agent.observe, cls.agent_type
    assert "_on_observe" in AGENT_CLASSES["BO"].__dict__
