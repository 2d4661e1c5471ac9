import json
import math
import re
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsegym.dataset import (
    DataError,
    Dataset,
    TrajectoryRecord,
    TrajectoryWriter,
    load_dataset,
    merge,
    sample_mixture,
    split,
)
from dsegym.envs import ENV_IDS, get_space
from dsegym.orchestrator import TrialSpec, run_trial
from dsegym.rng import make_rng
from dsegym.spaces import (
    Categorical,
    Numeric,
    ParameterSpace,
    design_map,
    sample_uniform_indices,
)

from .strategies import spaces_with_points

GOLDEN = Path(__file__).parent / "data" / "trajectories_v1.jsonl"
# The trials behind GOLDEN, in file order; budget 5, seed 3.
GOLDEN_TRIALS = [
    ("dram", "cloud-1", "low-latency", "RW"),
    ("accel", "large_cnn", "joint", "GA"),
    ("soc", "audio_decoder", "budget", "ACO"),
    ("dram-small", "stream", "joint", "RL"),
]
CONSTANTS = dict(
    experiment_id="exp-1",
    env_id="test-env",
    workload_id="wl",
    agent_type="RW",
    hyperparam_digest="d" * 64,
    seed=5,
)
FLOAT_GRID = ParameterSpace(
    (
        Numeric("tenths", 0.1, 1.0, 0.1),
        Numeric("quarters", -1.0, 1.0, 0.25),
        Numeric("ints", 3, 9, 2),
        Categorical('la"bel µ', ("α", 'q"uote', "back\\slash", "tab\t")),
    )
)
finite_floats = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


def _zero_wall_time(text: str) -> str:
    return re.sub(r'"wall_time_ms":\d+}$', '"wall_time_ms":0}', text, flags=re.M)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _record(step, point, space, metrics, reward, wall_time_ms=0, **overrides):
    fields = {**CONSTANTS, **overrides}
    return TrajectoryRecord(
        step_index=step,
        design=design_map(space, point),
        observation=dict(metrics),
        reward=reward,
        wall_time_ms=wall_time_ms,
        **fields,
    )


class TestWriterBytes:
    def test_reproduces_trajectories_logged_by_the_record_writer(self, tmp_path):
        """GOLDEN was logged by the writer that built a TrajectoryRecord per step."""
        logged = []
        for env_id, workload_id, objective, agent_type in GOLDEN_TRIALS:
            spec = TrialSpec(env_id, workload_id, objective, agent_type, 5, seed=3,
                             out_dir=str(tmp_path))
            result = run_trial(spec)
            logged.append(Path(result.trajectory_file).read_text(encoding="utf-8"))
        assert _zero_wall_time("".join(logged)) == GOLDEN.read_text(encoding="utf-8")

    @pytest.mark.parametrize("space_id", [*ENV_IDS, "float-grid"])
    def test_append_matches_to_json(self, space_id, tmp_path):
        space = FLOAT_GRID if space_id == "float-grid" else get_space(space_id)
        rng = make_rng(17)
        points = map(tuple, sample_uniform_indices(space, rng, 40).tolist())
        path = tmp_path / "t.jsonl"
        expected = []
        with TrajectoryWriter(path, space, **CONSTANTS) as writer:
            for step, point in enumerate(points):
                metrics = {"latency": float(rng.random()) * 1e-7, "power": float(rng.normal())}
                if step % 2:
                    # values json writes by type: the writer must match it on each
                    metrics.update(count=step, zero=-0.0, tiny=5e-324, huge=1e22,
                                   np=np.float64(rng.normal()), flag=True, inf=-math.inf)
                reward = float(rng.normal())
                writer.append(step, point, metrics, reward, step % 3)
                expected.append(_record(step, point, space, metrics, reward, step % 3).to_json())
        assert path.read_text(encoding="utf-8").splitlines() == expected

    @pytest.mark.parametrize(
        "metrics, reward",
        [
            ({}, 1.5),
            ({1: 0.5, "b": 2}, 1.5),
            ({'é"\n': 1.5, "n": None, "l": [1, 2.5]}, 1.5),
            ({"nan": math.nan, "inf": math.inf}, 3),
            ({"a": 1.0}, np.float64(-0.0)),
        ],
    )
    def test_append_matches_to_json_on_other_values(self, metrics, reward, tmp_path):
        space = get_space("dram-small")
        path = tmp_path / "t.jsonl"
        with TrajectoryWriter(path, space, **CONSTANTS) as writer:
            for step in range(2):
                writer.append(step, (0,) * len(space), metrics, reward, 4)
        lines = [_record(step, (0,) * len(space), space, metrics, reward, 4).to_json()
                 for step in range(2)]
        assert path.read_text(encoding="utf-8").splitlines() == lines

    @given(spaces_with_points(), finite_floats, st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_append_matches_to_json_on_random_spaces(self, tmp_path_factory, space_point, reward, step):
        space, point = space_point
        path = tmp_path_factory.mktemp("w") / "t.jsonl"
        with TrajectoryWriter(path, space, **CONSTANTS) as writer:
            writer.append(step, point, {"m": reward}, reward, 7)
        line = _record(step, point, space, {"m": reward}, reward, 7).to_json()
        assert path.read_text(encoding="utf-8") == line + "\n"

    def test_equal_spaces_keep_their_own_values(self, tmp_path):
        ints = ParameterSpace((Numeric("x", 0, 10, 5),))
        floats = ParameterSpace((Numeric("x", 0.0, 10.0, 5.0),))
        assert ints == floats
        lines = []
        for i, space in enumerate((ints, floats)):
            path = tmp_path / f"{i}.jsonl"
            with TrajectoryWriter(path, space, **CONSTANTS) as writer:
                writer.append(0, (1,), {}, 1.0, 0)
            lines.append(path.read_text(encoding="utf-8"))
        assert '"design":{"x":5}' in lines[0]
        assert '"design":{"x":5.0}' in lines[1]

    @pytest.mark.parametrize(
        "step, indices, reward",
        [
            (-1, (0, 0, 0, 0), 1.0),
            (0, (0, 0, 0, 0), math.nan),
            (0, (0, 0, 0, 0), math.inf),
            (0, (0, 0, 0, 0), -math.inf),
            (0, (0, -1, 0, 0), 1.0),
            (0, (0, 0, 0, -4), 1.0),
            (0, (10, 0, 0, 0), 1.0),
            (0, (0, 0, 0, 4), 1.0),
            (0, (0, 0, 0), 1.0),
            (0, (0, 0, 0, 0, 0), 1.0),
        ],
        ids=["negative-step", "nan-reward", "inf-reward", "neg-inf-reward", "negative-index",
             "wrapping-index", "index-past-grid", "label-past-grid", "short-point", "long-point"],
    )
    def test_append_rejects_and_writes_nothing(self, step, indices, reward, tmp_path):
        path = tmp_path / "t.jsonl"
        with TrajectoryWriter(path, FLOAT_GRID, **CONSTANTS) as writer:
            with pytest.raises(ValueError):
                writer.append(step, indices, {"m": 1.0}, reward, 0)
        assert path.read_bytes() == b""

    def test_each_record_is_on_disk_before_the_next_step(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TrajectoryWriter(path, FLOAT_GRID, **CONSTANTS) as writer:
            for step in range(3):
                writer.append(step, (step, 0, 0, 0), {"m": 1.0}, 1.0, 0)
                assert len(path.read_text(encoding="utf-8").splitlines()) == step + 1

    def test_constructor_requires_exactly_the_trial_fields(self, tmp_path):
        partial = {k: v for k, v in CONSTANTS.items() if k != "seed"}
        with pytest.raises(TypeError):
            TrajectoryWriter(tmp_path / "a.jsonl", FLOAT_GRID, **partial)
        with pytest.raises(TypeError):
            TrajectoryWriter(tmp_path / "b.jsonl", FLOAT_GRID, schema_version=2, **CONSTANTS)


class TestRoundTrip:
    @given(
        design_value=finite_floats,
        observation=st.lists(finite_floats, min_size=1, max_size=4),
        reward=finite_floats,
    )
    @example(design_value=-0.0, observation=[-0.0, 5e-324], reward=-5e-324)
    @example(design_value=2.2250738585072014e-308, observation=[1e308], reward=-0.0)
    @settings(max_examples=80, deadline=None)
    def test_floats_round_trip_bit_exactly(self, tmp_path_factory, design_value, observation, reward):
        space = ParameterSpace((Numeric("v", design_value, design_value, 1.0),))
        point = (0,)
        metrics = {f"m{i}": x for i, x in enumerate(observation)}
        path = tmp_path_factory.mktemp("rt") / "t.jsonl"
        with TrajectoryWriter(path, space, **CONSTANTS) as writer:
            writer.append(0, point, metrics, reward, 0)
        (record,) = load_dataset(path, validate=True).records
        assert _bits(record.design["v"]) == _bits(design_map(space, point)["v"])
        assert [_bits(record.observation[k]) for k in metrics] == [_bits(x) for x in observation]
        assert _bits(record.reward) == _bits(reward)


def _write_lines(path, lines, trailing_newline=True):
    text = "\n".join(lines) + ("\n" if trailing_newline else "")
    path.write_text(text, encoding="utf-8")


def _lines(n, **overrides):
    space = FLOAT_GRID
    return [
        _record(i, (i % 10, 0, 0, 0), space, {"m": float(i)}, float(i), **overrides)
        .to_json()
        for i in range(n)
    ]


class TestLoad:
    def test_truncated_tail_is_dropped_with_a_warning(self, tmp_path):
        lines = _lines(3)
        path = tmp_path / "t.jsonl"
        _write_lines(path, lines[:2] + [lines[2][: len(lines[2]) // 2]], trailing_newline=False)
        with pytest.warns(UserWarning, match="partial trailing line"):
            dataset = load_dataset(path)
        assert [r.step_index for r in dataset.records] == [0, 1]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda line: line[: len(line) // 2],
            lambda line: "[1,2]",
            lambda line: '"a string"',
            lambda line: "null",
            lambda line: json.dumps({**json.loads(line), "schema_version": 2}),
            lambda line: json.dumps({**json.loads(line), "reward": math.nan}),
            lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "design"}),
            lambda line: json.dumps({**json.loads(line), "design": 5}),
            lambda line: json.dumps({**json.loads(line), "observation": [1.0]}),
            lambda line: json.dumps({**json.loads(line), "observation": {"m": "x"}}),
            lambda line: json.dumps({**json.loads(line), "observation": {"m": True}}),
            lambda line: json.dumps({**json.loads(line), "observation": {"m": None}}),
            lambda line: json.dumps({**json.loads(line), "observation": {"m": math.inf}}),
            lambda line: json.dumps({**json.loads(line), "observation": {"m": 10**400}}),
            lambda line: json.dumps({**json.loads(line), "experiment_id": ["e"]}),
            lambda line: json.dumps({**json.loads(line), "agent_type": {"a": 1}}),
            lambda line: json.dumps({**json.loads(line), "env_id": 1}),
            lambda line: json.dumps({**json.loads(line), "reward": True}),
            lambda line: json.dumps({**json.loads(line), "reward": "1.0"}),
            lambda line: json.dumps({**json.loads(line), "reward": 10**400}),
            lambda line: json.dumps({**json.loads(line), "seed": "s"}),
            lambda line: json.dumps({**json.loads(line), "step_index": 1.5}),
            lambda line: json.dumps({**json.loads(line), "wall_time_ms": False}),
            lambda line: json.dumps({**json.loads(line), "extra": 1}),
            lambda line: json.dumps({**json.loads(line), "schema_version": True}),
            lambda line: json.dumps({**json.loads(line), "seed": 2**70}),
            lambda line: json.dumps({**json.loads(line), "seed": -1}),
            lambda line: json.dumps({**json.loads(line), "step_index": 2**63}),
            lambda line: json.dumps({**json.loads(line), "wall_time_ms": 2**63}),
            lambda line: "[" * 100_000,
        ],
        ids=["truncated", "array", "string", "null", "schema-2", "nan-reward", "no-design",
             "int-design", "list-observation", "string-metric", "bool-metric", "null-metric",
             "infinite-metric", "huge-int-metric", "list-experiment-id", "object-agent-type",
             "int-env-id", "bool-reward", "string-reward", "huge-int-reward", "string-seed",
             "float-step-index", "bool-wall-time", "unknown-key", "bool-schema-version",
             "seed-past-int64", "negative-seed", "step-index-past-int64", "wall-time-past-int64",
             "nested-too-deep"],
    )
    def test_corrupt_middle_line_names_its_location(self, corrupt, tmp_path):
        lines = _lines(3)
        path = tmp_path / "t.jsonl"
        _write_lines(path, [lines[0], corrupt(lines[1]), lines[2]])
        with pytest.raises(DataError, match=re.escape(f"{path}:2: corrupt record")):
            load_dataset(path)

    def test_undecodable_file_is_a_data_error_naming_it(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(_lines(1)[0].encode("utf-8") + b"\n\xff\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: 'utf-8' codec")):
            load_dataset(path)

    def test_records_of_two_envs_are_a_data_error_naming_them(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_lines(path, _lines(2) + _lines(2, env_id="other-env", experiment_id="exp-2"))
        message = f"{path}: records of more than one environment: ['other-env', 'test-env']"
        with pytest.raises(DataError, match=re.escape(message)):
            load_dataset(path)

    def test_records_of_two_workloads_are_a_data_error_naming_them(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_lines(path, _lines(2) + _lines(2, workload_id="other-wl", experiment_id="exp-2"))
        message = f"{path}: records of more than one workload: ['other-wl', 'wl']"
        with pytest.raises(DataError, match=re.escape(message)):
            load_dataset(path)

    def test_from_json_rejects_a_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            TrajectoryRecord.from_json("[1,2]")

    def test_a_trial_written_twice_is_rejected(self, tmp_path):
        lines = _lines(3)
        path = tmp_path / "t.jsonl"
        _write_lines(path, lines + lines)
        with pytest.raises(ValueError, match=re.escape(f"{path}: experiment 'exp-1' step_index 0")):
            load_dataset(path)

    def test_gaps_and_any_order_are_accepted(self, tmp_path):
        lines = _lines(6)
        path = tmp_path / "t.jsonl"
        _write_lines(path, [lines[4], lines[0], lines[2]])
        assert [r.step_index for r in load_dataset(path).records] == [4, 0, 2]


def _dataset(n, agent_type="RW", experiment_id="e", env_id="test-env"):
    records = [
        _record(i, (i % 10, 0, 0, 0), FLOAT_GRID, {"m": float(i)}, float(i),
                agent_type=agent_type, experiment_id=experiment_id, env_id=env_id)
        for i in range(n)
    ]
    return Dataset(records)


TWO_ENVS = "records of more than one environment: ['accel', 'dram']"


class TestMerge:
    def test_provenance_sums(self):
        a = _dataset(3, "RW", "e1")
        b = _dataset(4, "GA", "e2")
        c = _dataset(2, "RW", "e1")
        merged = merge([a, b, c])
        assert len(merged) == 9
        assert merged.provenance == Counter({("RW", "e1"): 5, ("GA", "e2"): 4})
        assert merged.agent_counts() == Counter({"RW": 5, "GA": 4})
        assert merged.records == a.records + b.records + c.records

    def test_refuses_mixed_environments(self):
        with pytest.raises(ValueError, match=re.escape(TWO_ENVS)):
            merge([_dataset(2, env_id="dram"), _dataset(2, env_id="accel")])

    def test_refuses_nothing(self):
        with pytest.raises(ValueError):
            merge([])


class TestSplit:
    @pytest.mark.parametrize("n, fraction", [(1, 0.5), (10, 0.2), (37, 0.25), (50, 0.9)])
    def test_disjoint_partition_of_the_input(self, n, fraction):
        dataset = _dataset(n)
        train, test = split(dataset, fraction, make_rng(n))
        train_ids = [id(r) for r in train.records]
        test_ids = [id(r) for r in test.records]
        assert not set(train_ids) & set(test_ids)
        assert sorted(train_ids + test_ids) == sorted(id(r) for r in dataset.records)
        assert len(test) == math.floor(fraction * n + 0.5)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1])
    def test_rejects_a_degenerate_fraction(self, fraction):
        with pytest.raises(ValueError):
            split(_dataset(4), fraction, make_rng(0))


# the paper's mixture: five agents at 0.2 each
FIVE_AGENTS = dict.fromkeys(("ACO", "BO", "GA", "RL", "RW"), 0.2)


class TestSampleMixture:
    @pytest.mark.parametrize(
        "proportions, size, counts",
        [
            ({"A": 0.5, "B": 0.5}, 10, {"A": 5, "B": 5}),
            # 3 + 3 + 3 = 9: the residue of 1 goes to the first largest source
            ({"A": 1 / 3, "B": 1 / 3, "C": 1 / 3}, 10, {"A": 4, "B": 3, "C": 3}),
            # 2 + 2 + 3 = 7: the residue of -1 comes off the largest source
            ({"A": 0.25, "B": 0.25, "C": 0.5}, 6, {"A": 2, "B": 2, "C": 2}),
            ({"A": 0.1, "B": 0.9}, 7, {"A": 1, "B": 6}),
            # 1 + 1 + 1 + 1 + 1 = 5, 3 * 5 = 15 and 2 * 5 = 10: the residue goes one
            # record at a time to the largest sources, in name order among equals
            (FIVE_AGENTS, 3, {"ACO": 0, "BO": 0, "GA": 1, "RL": 1, "RW": 1}),
            (FIVE_AGENTS, 13, {"ACO": 2, "BO": 2, "GA": 3, "RL": 3, "RW": 3}),
            (FIVE_AGENTS, 12, {"ACO": 3, "BO": 3, "GA": 2, "RL": 2, "RW": 2}),
        ],
    )
    def test_meets_counts_and_residue_rule(self, proportions, size, counts):
        sources = {a: _dataset(10, a, f"exp-{a}") for a in proportions}
        mixture = sample_mixture(sources, proportions, size, make_rng(4))
        assert len(mixture) == size
        assert dict(mixture.agent_counts()) == {a: c for a, c in counts.items() if c}
        picked = [id(r) for r in mixture.records]
        assert len(set(picked)) == size  # without replacement
        pool = {id(r) for d in sources.values() for r in d.records}
        assert set(picked) <= pool

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=6).filter(any), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_each_count_is_within_one_of_its_share(self, weights, size):
        proportions = {f"A{i}": w / sum(weights) for i, w in enumerate(weights)}
        sources = {a: _dataset(30, a, f"exp-{a}") for a in proportions}
        counts = sample_mixture(sources, proportions, size, make_rng(0)).agent_counts()
        assert sum(counts.values()) == size
        for agent, p in proportions.items():
            assert abs(counts[agent] - p * size) <= 1, (agent, counts)

    def test_is_seeded(self):
        sources = {a: _dataset(10, a, f"exp-{a}") for a in "AB"}
        runs = [sample_mixture(sources, {"A": 0.3, "B": 0.7}, 8, make_rng(9)) for _ in range(2)]
        assert [id(r) for r in runs[0].records] == [id(r) for r in runs[1].records]

    def test_refuses_a_mixture_of_two_envs(self):
        sources = {"A": _dataset(10, "A", "exp-A", env_id="dram"),
                   "B": _dataset(10, "B", "exp-B", env_id="accel")}
        with pytest.raises(ValueError, match=re.escape(TWO_ENVS)):
            sample_mixture(sources, {"A": 0.5, "B": 0.5}, 4, make_rng(0))

    @pytest.mark.parametrize(
        "proportions, size",
        [({"A": 0.5, "B": 0.4}, 4), ({"A": 0.5, "C": 0.5}, 4), ({"A": 1.0}, 11)],
        ids=["not-summing-to-one", "missing-source", "too-few-records"],
    )
    def test_rejects(self, proportions, size):
        sources = {a: _dataset(10, a, f"exp-{a}") for a in "AB"}
        with pytest.raises(ValueError):
            sample_mixture(sources, proportions, size, make_rng(0))

    @pytest.mark.parametrize(
        "proportions, size, message",
        [
            ({"A": 1.5, "B": -0.5}, 4, "proportion of 'A' must lie in [0, 1], got 1.5"),
            ({"A": 0.5, "B": -0.5}, 4, "proportion of 'B' must lie in [0, 1], got -0.5"),
            ({"A": float("nan")}, 4, "proportion of 'A' must lie in [0, 1], got nan"),
            ({"A": float("inf")}, 4, "proportion of 'A' must lie in [0, 1], got inf"),
            ({"A": 1.0}, -3, "mixture size must be >= 0, got -3"),
        ],
        ids=["above-one", "negative", "nan", "inf", "negative-size"],
    )
    def test_names_a_bad_proportion_or_size_before_any_draw(self, proportions, size, message):
        sources = {a: _dataset(10, a, f"exp-{a}") for a in "AB"}
        rng = make_rng(0)
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_mixture(sources, proportions, size, rng)
        assert rng.random() == make_rng(0).random()  # nothing drawn
