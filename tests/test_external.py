"""The external-simulator adapter against tests/stub_simulator.py."""

import subprocess
import sys
from pathlib import Path

import pytest

from dsegym.core import MissingMetricError
from dsegym.envs import external, make_env
from dsegym.envs.base import SyntheticEnv
from dsegym.envs.external import (
    SimulatorCrashed,
    SimulatorProcess,
    SimulatorProtocolError,
    SimulatorTimeout,
)
from dsegym.rng import make_rng
from dsegym.spaces import design_map, point_from_map, sample_uniform

STUB = str(Path(__file__).with_name("stub_simulator.py"))
# For calls that should succeed: a child imports dsegym before its first
# answer.  Tests that wait for a timeout to fire use 0.5 s.
ANSWER_TIMEOUT_S = 30.0


def _stub(mode="ok", at=0, timeout_s=ANSWER_TIMEOUT_S, max_restarts=0, workload_id="stream"):
    return SimulatorProcess([sys.executable, STUB, mode, str(at)], workload_id,
                            timeout_s=timeout_s, max_restarts=max_restarts)


def _builtin():
    return make_env("dram-small", "stream", "joint")


def _external(sim):
    builtin = _builtin()
    return SyntheticEnv(
        "dram-small",
        builtin.space(),
        builtin.reward_spec,
        cost_fn=sim,
        reference_design=design_map(builtin.space(), builtin.reference_point()),
    )


def _design(seed=0):
    space = _builtin().space()
    return design_map(space, sample_uniform(space, make_rng(seed)))


def _expected(design, workload_id="stream"):
    env = make_env("dram-small", workload_id)
    obs = env.observe(point_from_map(env.space(), design))
    return obs.metrics, obs.valid


@pytest.fixture
def children(monkeypatch):
    """Every simulator process the adapter starts during the test."""
    started = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(external.subprocess, "Popen", Recording)
    return started


def _exited(proc):
    return proc.poll() is not None and proc.stdin.closed and proc.stdout.closed


class TestEquivalence:
    def test_matches_builtin_env(self, children):
        builtin = _builtin()
        with _stub() as sim:
            env = _external(sim)
            assert env.reset() == builtin.reset()
            rng = make_rng(17)
            for _ in range(120):
                point = sample_uniform(builtin.space(), rng)
                want, got = builtin.step(point), env.step(point)
                assert got.observation == want.observation
                assert got.reward == want.reward
        assert len(children) == 1 and _exited(children[0])

    def test_requests_carry_the_workload(self, children):
        design = _design(3)
        cloud = _expected(design, "cloud-1")
        assert cloud[0] != _expected(design, "stream")[0]  # the workload changes the metrics
        with _stub(workload_id="cloud-1") as sim:
            assert sim(design) == cloud
        assert len(children) == 1 and _exited(children[0])

    def test_invalid_response(self, children):
        with _stub("invalid") as sim:
            result = _external(sim).step(_builtin().reference_point())
        assert not result.observation.valid
        assert result.observation.metrics == {}
        assert result.reward == 0.0
        assert _exited(children[0])

    def test_missing_objective_metric(self, children):
        with _stub("no-metrics") as sim:
            with pytest.raises(MissingMetricError):
                _external(sim).step(_builtin().reference_point())
        assert _exited(children[0])


class TestHandshake:
    @pytest.mark.parametrize(
        "mode, error, timeout_s",
        [
            ("version", SimulatorProtocolError, ANSWER_TIMEOUT_S),
            ("not-object", SimulatorProtocolError, ANSWER_TIMEOUT_S),
            ("bad-json", SimulatorProtocolError, ANSWER_TIMEOUT_S),
            ("silent", SimulatorTimeout, 0.5),
        ],
    )
    def test_failed_handshake_leaves_no_child(self, children, mode, error, timeout_s):
        with pytest.raises(error):
            _stub(mode, timeout_s=timeout_s)
        assert len(children) == 1 and _exited(children[0])

    def test_bad_settings_start_nothing(self, children):
        with pytest.raises(ValueError, match="timeout"):
            _stub(timeout_s=0)
        with pytest.raises(ValueError, match="max_restarts"):
            _stub(max_restarts=-1)
        assert children == []


class TestRestarts:
    def test_hang_then_restart(self, children):
        design = _design()
        with _stub("hang", at=0, timeout_s=0.5, max_restarts=1) as sim:
            with pytest.raises(SimulatorTimeout):
                sim(design)
            assert sim.restarts_used == 1
            assert len(children) == 2 and _exited(children[0])
            sim.timeout_s = ANSWER_TIMEOUT_S  # the new child imports dsegym first
            assert sim(design) == _expected(design)
        assert all(_exited(p) for p in children)

    def test_crash_then_restart(self, children):
        design = _design()
        with _stub("crash", at=1, max_restarts=1) as sim:
            assert sim(design) == _expected(design)
            with pytest.raises(SimulatorCrashed) as crash:
                sim(design)
            assert crash.value.returncode == 3
            assert len(children) == 2 and _exited(children[0])
            assert sim(design) == _expected(design)
        assert all(_exited(p) for p in children)

    def test_no_restart_left(self, children):
        design = _design()
        with _stub("crash", at=0, max_restarts=0) as sim:
            with pytest.raises(SimulatorCrashed):
                sim(design)
            with pytest.raises(SimulatorCrashed, match="not running"):
                sim(design)
        assert len(children) == 1 and _exited(children[0])

    def test_close_is_idempotent(self, children):
        sim = _stub()
        sim.close()
        sim.close()
        assert len(children) == 1 and _exited(children[0])


class TestResponses:
    @pytest.mark.parametrize(
        "mode", ["garbage", "wrong-id", "nan", "huge-int", "text", "valid-text"]
    )
    def test_malformed_response(self, children, mode):
        design = _design()
        with _stub(mode) as sim:
            with pytest.raises(SimulatorProtocolError):
                sim(design)
            # the child keeps running and answers the next request
            assert sim(design) == _expected(design)
        assert len(children) == 1 and _exited(children[0])

    def test_a_response_nested_too_deep_to_parse_is_a_protocol_error(self):
        line = "[" * 100_000
        with pytest.raises(SimulatorProtocolError, match="^protocol error: a response nested too "
                                                         "deep to parse$") as info:
            external._parse_response(line, 0)
        assert info.value.raw == line
