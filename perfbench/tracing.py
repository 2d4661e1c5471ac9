"""Outside-in tracing of the dsegym layers.

The tracer wraps public functions and methods of the package's modules from
the benchmark's side (no file under ``src/`` knows about it).  Every wrapped
call is a span named ``<layer>.<what>``; the layer is the package module it
belongs to.  A span's self time is its duration minus the time covered by
the wrapped calls it made, so summing self time per layer splits a trial's
wall time between the layers without double counting.

Worker processes of a parallel sweep inherit the wrappers when they fork.
Each worker writes what it recorded to a spool file after every trial, and
the parent merges those files with :meth:`Tracer.collect`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# Modules whose imported names are rewired: the package and the benchmark.
CALLERS = ("dsegym", "workloads", "layers")


class Tracer:
    """Span recorder.  Keys are ``<phase>|<span name>``; the benchmark sets
    ``phase`` to say which part of the workload (set-up, sweep, proxy,
    coverage) the calls belong to, and forked workers inherit it."""

    def __init__(self, spool_dir: Path):
        self.owner = self.pid = os.getpid()
        self.spool_dir = Path(spool_dir)
        self.phase = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._clear()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self._stack = []
        self._clear()

    def _clear(self) -> None:
        self.durations: dict[str, array] = defaultdict(lambda: array("q"))
        self.self_ns: dict[str, int] = defaultdict(int)

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = tracer.phase + "|" + (name(args) if callable(name) else name)
            stack = tracer._stack
            stack.append(0)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                d = now() - t0
                child = stack.pop()
                tracer.durations[key].append(d)
                tracer.self_ns[key] += d - child
                if stack:
                    stack[-1] += d
                elif tracer.pid != tracer.owner:
                    tracer._spool()

        return traced

    def patch_function(self, module, attr: str, name) -> None:
        """Wrap a module-level function at every place the package or the
        benchmark imported it."""
        original = getattr(module, attr)
        traced = self._wrap(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] in CALLERS:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _spool(self) -> None:
        doc = {
            "durations": {k: v.tolist() for k, v in self.durations.items()},
            "self_ns": dict(self.self_ns),
        }
        path = self.spool_dir / f"trace-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps(doc) + "\n")
        self._clear()

    def collect(self) -> None:
        """Merge what worker processes spooled, then delete their files."""
        for path in sorted(self.spool_dir.glob("trace-*.jsonl")):
            with open(path, encoding="utf-8") as f:
                for line in f:
                    doc = json.loads(line)
                    for key, values in doc["durations"].items():
                        self.durations[key].extend(values)
                    for key, value in doc["self_ns"].items():
                        self.self_ns[key] += value
            path.unlink()

    # -- reading -------------------------------------------------------------

    def _match(self, phases, prefix):
        for key, values in self.durations.items():
            phase, name = key.split("|", 1)
            if phase in phases and name.startswith(prefix):
                yield key, values

    def count(self, phases, prefix: str) -> int:
        return sum(len(v) for _, v in self._match(phases, prefix))

    def total_ns(self, phases, prefix: str) -> int:
        return sum(sum(v) for _, v in self._match(phases, prefix))

    def self_ns_total(self, phases, prefix: str) -> int:
        return sum(self.self_ns[k] for k, _ in self._match(phases, prefix))

    def quantile_us(self, phases, prefix: str, q: float) -> float:
        parts = [np.frombuffer(v, dtype=np.int64) for _, v in self._match(phases, prefix)]
        parts = [part for part in parts if len(part)]
        if not parts:
            return 0.0
        return float(np.percentile(np.concatenate(parts), q)) / 1e3


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    import dsegym.agents as agents
    import dsegym.dataset as dataset
    import dsegym.envs as envs
    import dsegym.orchestrator as orchestrator
    import dsegym.proxy as proxy
    import dsegym.spaces as spaces
    from dsegym.envs.base import SyntheticEnv

    tracer.patch_function(spaces, "design_map", "spaces.design_map")
    tracer.patch_function(spaces, "encode", "spaces.encode")
    tracer.patch_method(spaces.ParameterSpace, "validate_point", "spaces.validate_point")

    tracer.patch_function(envs, "make_env", "envs.make_env")
    tracer.patch_method(
        SyntheticEnv, "step", lambda args: "envs.step." + args[0].env_id.split("-")[0]
    )
    tracer.patch_method(SyntheticEnv, "reset", "envs.reset")
    tracer.patch_method(SyntheticEnv, "observe", "envs.observe")

    tracer.patch_function(agents, "make_agent", "agents.make_agent")
    for cls in agents.AGENT_CLASSES.values():
        tracer.patch_method(cls, "propose", f"agents.{cls.agent_type}.propose")
    tracer.patch_method(
        agents.Agent, "observe", lambda args: f"agents.{args[0].agent_type}.observe"
    )

    tracer.patch_method(dataset.TrajectoryWriter, "append", "dataset.append")
    tracer.patch_function(dataset, "load_dataset", "dataset.load")

    tracer.patch_function(proxy, "train_forest", lambda args: f"proxy.train_forest.{args[1]}")
    tracer.patch_method(proxy.RandomForestModel, "predict_features", "proxy.predict")

    tracer.patch_function(orchestrator, "run_trial", "orchestrator.run_trial")
    tracer.patch_function(orchestrator, "enumerate_oracle", "orchestrator.enumerate_oracle")
