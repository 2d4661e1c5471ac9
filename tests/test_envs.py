import itertools
import math

import pytest

from dsegym.core import Observation, score
from dsegym.envs import (
    ENV_IDS,
    get_objective,
    get_space,
    get_workload,
    list_objectives,
    list_workloads,
    make_env,
)
from dsegym.envs.base import SyntheticEnv, WorkloadSpec, load_fixture
from dsegym.rng import make_rng
from dsegym.spaces import cardinality, design_map, point_from_map, sample_uniform

SMALL_IDS = [e for e in ENV_IDS if e.endswith("-small")]


class TestRegistry:
    def test_env_ids(self):
        assert set(ENV_IDS) == {
            "dram", "dram-small", "accel", "accel-small", "soc", "soc-small",
        }

    def test_unknown_env_id_rejected(self):
        with pytest.raises(ValueError) as info:
            get_space("dram-tiny")
        assert str(info.value) == f"unknown environment 'dram-tiny' (have {list(ENV_IDS)})"

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            make_env("dram", "does-not-exist")

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="no objective"):
            make_env("dram", "stream", "maximal-vibes")

    def test_make_env_takes_a_reward_spec(self):
        named = make_env("dram", "cloud-1", "joint")
        given = make_env("dram", "cloud-1", get_objective("dram", "cloud-1", "joint"))
        rng = make_rng(8)
        for _ in range(50):
            point = sample_uniform(named.space(), rng)
            assert given.step(point).reward == named.step(point).reward

    @pytest.mark.parametrize("family", ["dram", "accel", "soc"])
    def test_a_fixture_holds_only_what_code_reads(self, family):
        fixture = load_fixture(f"{family}.yaml")
        assert list(fixture) == ["defaults", "workloads", "constants", "objectives", "golden"]
        for workload, objectives in fixture["objectives"].items():
            for name, objective in objectives.items():
                assert set(objective) in ({"targets"}, {"budgets"}), (workload, name)

    def test_small_spaces_are_brute_forceable(self):
        for env_id in SMALL_IDS:
            assert cardinality(get_space(env_id)) <= 4096


class TestGoldenObservations:
    """Reference designs pinned against the fixture-tabulated metrics."""

    @pytest.mark.parametrize(
        "env_id", ["dram", "dram-small", "accel", "accel-small", "soc", "soc-small"]
    )
    def test_reference_matches_golden(self, env_id):
        for workload in list_workloads(env_id):
            env = make_env(env_id, workload, list_objectives(env_id, workload)[0])
            obs = env.observe(env.reference_point())
            golden = load_fixture(f"{env_id.removesuffix('-small')}.yaml")["golden"][workload]
            assert obs.valid
            assert set(obs.metrics) == set(golden)
            for name, value in golden.items():
                assert obs.metrics[name] == value, (env_id, workload, name)


class TestDramEnv:
    def test_energy_is_latency_times_power(self):
        env = make_env("dram-small", "cloud-1")
        rng = make_rng(1)
        for _ in range(50):
            obs = env.observe(sample_uniform(env.space(), rng))
            assert obs.metrics["energy"] == obs.metrics["latency"] * obs.metrics["power"]

    def test_deterministic(self):
        env = make_env("dram", "cloud-2")
        rng = make_rng(2)
        p = sample_uniform(env.space(), rng)
        assert env.step(p).observation.metrics == env.step(p).observation.metrics

    def test_scheduler_buffer_interaction(self):
        # reorder-capable scheduler loses to Fifo at tiny buffers, wins at large
        env = make_env("dram", "stream")
        space = env.space()
        base = dict(design_map(space, env.reference_point()))

        def latency(sched, buf):
            d = {**base, "Scheduler": sched, "RequestBufferSize": buf}
            return env.observe(point_from_map(space, d)).metrics["latency"]

        assert latency("Fifo", 1) < latency("FrFcFs", 1)
        assert latency("FrFcFs", 16) < latency("Fifo", 16)


class TestAccelEnv:
    def _env(self, workload="large_cnn"):
        return make_env("accel", workload)

    def _metrics(self, env, **overrides):
        space = env.space()
        base = dict(design_map(space, env.reference_point()))
        base.update(overrides)
        return env.observe(point_from_map(space, base)).metrics

    def test_compute_bound_doubling_pes_halves_latency(self):
        env = self._env("large_cnn")  # high flops/byte keeps small PE counts compute-bound
        lat_14 = self._metrics(env, NumPEs=14)["latency"]
        lat_28 = self._metrics(env, NumPEs=28)["latency"]
        assert lat_28 == pytest.approx(lat_14 / 2, rel=1e-12)

    def test_memory_bound_latency_independent_of_pes(self):
        env = self._env("mobile_cnn")  # low intensity goes memory-bound at high PE counts
        lat_a = self._metrics(env, NumPEs=280, L1BufferKiB=16)["latency"]
        lat_b = self._metrics(env, NumPEs=336, L1BufferKiB=16)["latency"]
        assert lat_a == lat_b

    def test_area_strictly_increases_with_pes(self):
        env = self._env()
        areas = [self._metrics(env, NumPEs=n)["area"] for n in (14, 28, 140, 336)]
        assert all(a < b for a, b in zip(areas, areas[1:]))

    def test_buffer_budget_infeasible(self):
        env = self._env("small_cnn")
        result = env.step(
            point_from_map(
                env.space(),
                {"NumPEs": 112, "L1BufferKiB": 256, "L2BufferKiB": 2048,
                 "Dataflow": "WeightStationary", "Precision": "int8"},
            )
        )
        assert not result.observation.valid
        assert result.observation.metrics == {}
        assert result.reward == 0.0

    def test_small_space_contains_infeasible_and_feasible_points(self):
        env = make_env("accel-small", "small_cnn")
        flags = [env.observe(p).valid for p in itertools.product(*map(range, env.space().sizes))]
        assert any(flags) and not all(flags)


class TestSocEnv:
    def _metrics(self, env, **overrides):
        space = env.space()
        base = dict(design_map(space, env.reference_point()))
        base.update(overrides)
        return env.observe(point_from_map(space, base)).metrics

    def test_single_task_runs_on_fastest_pe(self):
        env = make_env("soc", "single_task")
        m = self._metrics(env, PE0Type="DSP", PE1Type="None", PE2Type="None")
        # solo task: 200 Mops of filter work on the DSP at 2600 Mops/s
        assert m["performance"] == pytest.approx(200 / 2600, rel=1e-12)

    def test_unused_pe_costs_area_and_power_only(self):
        env = make_env("soc", "single_task")
        alone = self._metrics(env, PE0Type="DSP", PE1Type="None", PE2Type="None")
        padded = self._metrics(env, PE0Type="DSP", PE1Type="LittleCore", PE2Type="None")
        assert padded["performance"] == alone["performance"]
        assert padded["power"] > alone["power"]
        assert padded["area"] > alone["area"]

    def test_budget_matching_reference_scores_zero(self):
        env = make_env("soc", "edge_detection", "budget")
        assert score(env.reward_spec, env.observe(env.reference_point())) == 0.0

    def test_budget_mode_wired(self):
        spec = get_objective("soc", "edge_detection", "budget")
        assert spec.budgets and not spec.targets


class TestEpisodeSemantics:
    def test_reset_after_done_returns_initial_observation(self):
        env = make_env("dram-small", "stream")
        initial = env.reset().metrics
        env.step(sample_uniform(env.space(), make_rng(5)))
        assert env.reset().metrics == initial

    def test_reset_returns_a_copy_of_the_reference(self):
        env = make_env("dram-small", "stream")
        first = env.reset()
        reference = dict(first.metrics)
        first.metrics["latency"] = -1.0
        first.metrics["bogus"] = 2.0
        again = env.reset()
        assert again.metrics == reference
        assert again.metrics == env.observe(env.reference_point()).metrics

    def test_reset_equivalent_to_fresh_instance(self):
        rng = make_rng(6)
        point = sample_uniform(get_space("dram-small"), rng)
        used = make_env("dram-small", "stream")
        for _ in range(4):
            used.step(point)
        used.reset()
        fresh = make_env("dram-small", "stream")
        fresh.reset()
        assert used.step(point).reward == fresh.step(point).reward


class TestAnyCostFunction:
    def test_a_plain_function_steps_observes_and_resets(self):
        builtin = make_env("dram-small", "stream", "low-power")
        space = builtin.space()
        cost_fn = lambda design: (  # noqa: E731
            {"power": 0.5 + design["RequestBufferSize"] / 100}, design["Arbiter"] == "Fifo"
        )
        env = SyntheticEnv("plain", space, builtin.reward_spec, cost_fn,
                           reference_design=design_map(space, builtin.reference_point()))
        assert env.reset() == env.observe(builtin.reference_point())
        rng = make_rng(9)
        seen = set()
        for _ in range(40):
            point = sample_uniform(space, rng)
            metrics, valid = cost_fn(design_map(space, point))
            want = Observation(metrics=metrics) if valid else Observation(metrics={}, valid=False)
            result = env.step(point)
            assert env.observe(point) == result.observation == want
            assert result.reward == score(builtin.reward_spec, want)
            seen.add(valid)
        assert seen == {True, False}


class TestWorkloadSpec:
    def test_fraction_bounds_enforced(self):
        with pytest.raises(ValueError, match="read_fraction"):
            WorkloadSpec("w", {"read_fraction": 1.5})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec("w", {"flops": math.inf})

    @pytest.mark.parametrize("value", [math.nan, 10**400, True, "1"],
                             ids=["nan", "huge-int", "bool", "string"])
    def test_a_trait_that_is_no_finite_number_is_refused(self, value):
        with pytest.raises(ValueError, match="^trait 'flops' must be finite, got "):
            WorkloadSpec("w", {"flops": value})

    def test_registry_traits(self):
        wl = get_workload("dram", "stream")
        assert wl.id == "stream"
        assert wl["access_locality"] == 0.9
