"""The command-line front end, run in process through `cli.main(argv)`."""

import json
import math
from dataclasses import asdict
from pathlib import Path

import pytest

from dsegym import cli
from dsegym import orchestrator as orch
from dsegym import proxy
from dsegym.agents import GeneticAlgorithm
from dsegym.dataset import load_dataset
from dsegym.envs import make_env

ENV = ["--env", "dram-small", "--workload", "stream", "--objective", "low-power"]


def _run(tmp_path, agent, budget, seed=0):
    argv = ["run", *ENV, "--agent", agent, "--budget", str(budget), "--seed", str(seed),
            "--out", str(tmp_path / "runs")]
    assert cli.main(argv) == cli.EXIT_OK


def _trajectory_files(tmp_path):
    return sorted(str(p) for p in (tmp_path / "runs").glob("*.jsonl"))


def test_run_writes_a_loadable_trajectory(tmp_path, capsys):
    _run(tmp_path, "RW", 6)
    printed = json.loads(capsys.readouterr().out)
    (path,) = _trajectory_files(tmp_path)
    assert printed["trajectory_file"] == path
    dataset = load_dataset(path, validate=True)
    assert [r.step_index for r in dataset.records] == list(range(6))


def test_aggregate_train_eval_round_trip(tmp_path, capsys):
    _run(tmp_path, "RW", 30, seed=1)
    _run(tmp_path, "GA", 30, seed=2)
    files = _trajectory_files(tmp_path)
    out = tmp_path / "agg"
    assert cli.main(["aggregate", *files, "--out", str(out)]) == cli.EXIT_OK
    assert len(load_dataset(out / "dataset.jsonl")) == 60
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["record_count"] == 60 and manifest["files"] == files
    assert (manifest["env_id"], manifest["workload_id"]) == ("dram-small", "stream")

    model = tmp_path / "model.json"
    argv = ["train-proxy", "--data", str(out / "dataset.jsonl"), "--target", "power",
            "--out", str(model), "--set", "n_trees=2"]
    assert cli.main(argv) == cli.EXIT_OK
    report_path = tmp_path / "report.json"
    argv = ["eval-proxy", "--model", str(model), "--data", str(out / "dataset.jsonl"),
            "--out", str(report_path)]
    assert cli.main(argv) == cli.EXIT_OK
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["n_test"] == 60
    assert report["rmse"] >= 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--env", "nope", "--workload", "stream", "--agent", "RW", "--budget", "2",
          "--out", "unused"], "invalid choice: 'nope'"),
        (["run", *ENV, "--agent", "NOPE", "--budget", "2", "--out", "unused"],
         "invalid choice: 'NOPE'"),
        (["sweep", *ENV, "--agents", "RW,XX", "--out", "unused"],
         "unknown agent type 'XX' (have ['ACO', 'BO', 'GA', 'RL', 'RW'])"),
        (["run", "--env", "dram-small", "--workload", "nope", "--agent", "RW", "--budget", "2",
          "--out", "unused"], "unknown workload 'nope'"),
    ],
    ids=["unknown-env", "unknown-agent", "unknown-sweep-agent", "unknown-workload"],
)
def test_unknown_names_are_usage_errors(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "unused").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", *ENV, "--agent", "RW", "--budget", "2", "--out", "unused"],
        ["sweep", *ENV, "--agents", "RW", "--out", "unused"],
        ["bench-proxy", "--model", "unused.json"],
    ],
    ids=["run", "sweep", "bench-proxy"],
)
def test_a_step_delay_is_an_unrecognised_argument(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--delay-ms", "5"]) == cli.EXIT_USAGE
    assert "unrecognized arguments: --delay-ms 5" in capsys.readouterr().err
    assert not (tmp_path / "unused").exists()


def test_aggregate_of_two_workloads_is_a_usage_error(tmp_path, capsys):
    _run(tmp_path, "RW", 4)  # stream
    argv = ["run", "--env", "dram-small", "--workload", "cloud-1", "--objective", "low-power",
            "--agent", "RW", "--budget", "4", "--out", str(tmp_path / "runs")]
    assert cli.main(argv) == cli.EXIT_OK
    out = tmp_path / "agg"
    argv = ["aggregate", *_trajectory_files(tmp_path), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "records of more than one workload: ['cloud-1', 'stream']" in capsys.readouterr().err
    assert not out.exists()


def test_aggregate_of_a_corrupt_file_reports_its_location(tmp_path, capsys):
    _run(tmp_path, "RW", 3)
    (path,) = _trajectory_files(tmp_path)
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    lines[1] = "[1,2]"
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main(["aggregate", path, "--out", str(tmp_path / "agg")]) == cli.EXIT_DATA
    assert f"{path}:2: corrupt record" in capsys.readouterr().err


def test_sweep_with_a_failed_trial_exits_with_failure(tmp_path, monkeypatch, capsys):
    def broken(self, rng):
        raise RuntimeError("simulated agent fault")

    monkeypatch.setattr(GeneticAlgorithm, "propose", broken)
    grid = tmp_path / "grid.yaml"
    grid.write_text("GA:\n  population_size: [4]\n", encoding="utf-8")
    argv = ["sweep", *ENV, "--agents", "GA", "--budgets", "2", "--grid", str(grid),
            "--out", str(tmp_path / "sw")]
    assert cli.main(argv) == cli.EXIT_FAILURE
    assert "1 trial(s) failed" in capsys.readouterr().err
    (failure,) = orch.SweepSummary.load(tmp_path / "sw" / "summary.json").failures
    assert failure["hyperparams"] == {"population_size": 4}
    assert failure["error_type"] == "RuntimeError"
    assert "simulated agent fault" in failure["error"]


def test_sweep_records_a_trial_whose_log_cannot_be_opened(tmp_path, capsys):
    out = tmp_path / "sw"
    out.mkdir()
    (out / "trajectories").write_text("", encoding="utf-8")  # a file where the log dir goes
    argv = ["sweep", *ENV, "--agents", "RW", "--budgets", "2", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_FAILURE
    assert "1 trial(s) failed" in capsys.readouterr().err
    (failure,) = orch.SweepSummary.load(out / "summary.json").failures
    assert failure["agent_type"] == "RW" and "failed at step 0" in failure["error"]
    assert failure["hyperparams"] == {} and failure["error_type"] == "FileExistsError"


@pytest.mark.parametrize("parallel", ["0", "-1"])
def test_sweep_rejects_parallel_below_one(parallel, tmp_path, capsys):
    argv = ["sweep", *ENV, "--agents", "RW", "--budgets", "2", "--parallel", parallel,
            "--out", str(tmp_path / "sw")]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert f"parallelism must be an int64 >= 1, got {parallel}\n" in capsys.readouterr().err
    assert not (tmp_path / "sw").exists()


def test_run_rejects_a_hyperparameter_of_the_wrong_type(tmp_path, capsys):
    argv = ["run", *ENV, "--agent", "GA", "--budget", "2", "--set", "population_size=abc",
            "--out", str(tmp_path / "runs")]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: population_size must be of type int") and err.count("\n") == 1


def test_run_refuses_an_int_hyperparameter_beyond_int64(tmp_path, capsys):
    argv = ["run", *ENV, "--agent", "GA", "--budget", "2", "--set", f"population_size={10**400}",
            "--out", str(tmp_path / "runs")]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: population_size must be of type int64, got ")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "agent, assignment",
    [("BO", "length_scale=NaN"), ("RL", "learning_rate=Infinity"), ("ACO", "deposit=Infinity"),
     ("ACO", "beta=Infinity"), ("ACO", "tau_min=-Infinity")],
)
def test_run_refuses_a_float_hyperparameter_that_is_not_finite(agent, assignment, tmp_path,
                                                                capsys):
    argv = ["run", *ENV, "--agent", agent, "--budget", "16", "--set", assignment,
            "--out", str(tmp_path / "runs")]
    assert cli.main(argv) == cli.EXIT_USAGE
    key = assignment.split("=")[0]
    assert capsys.readouterr().err.startswith(f"error: {key} must be of type finite float, got ")
    assert not (tmp_path / "runs").exists()


def test_run_of_a_failed_trial_exits_with_failure(tmp_path, capsys):
    out = tmp_path / "runs"
    out.write_text("", encoding="utf-8")  # a file where the log dir goes
    argv = ["run", *ENV, "--agent", "RW", "--budget", "2", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("trial failed: trial ") and "failed at step 0: [Errno 17]" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "grid",
    [
        "",
        "GA:\n  population_size: 8\n",
        "XX:\n  population_size: [8]\n",
        "GA:\n  population_size: [8, 1]\n",
        "GA:\n  population_size: [8, x]\n",
        "GA:\n",
    ],
    ids=["empty-file", "scalar-values", "unknown-agent", "out-of-range", "wrong-type",
         "null-grid"],
)
def test_sweep_rejects_a_bad_grid_before_any_trial(grid, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(orch, "run_trial", lambda spec: calls.append(spec))
    grid_file = tmp_path / "grid.yaml"
    grid_file.write_text(grid, encoding="utf-8")
    argv = ["sweep", *ENV, "--agents", "RW,GA", "--budgets", "2", "--grid", str(grid_file),
            "--out", str(tmp_path / "sw")]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert calls == []
    assert not (tmp_path / "sw").exists()


def test_sweep_names_a_grid_file_that_is_not_yaml(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(orch, "run_trial", lambda spec: calls.append(spec))
    grid_file = tmp_path / "grid.yaml"
    grid_file.write_text("GA:\n  population_size: [8\n", encoding="utf-8")
    argv = ["sweep", *ENV, "--agents", "GA", "--budgets", "2", "--grid", str(grid_file),
            "--out", str(tmp_path / "sw")]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: --grid {grid_file}: not valid YAML at line 3:")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert calls == []


def test_sweep_names_a_grid_file_that_is_not_utf8(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(orch, "run_trial", lambda spec: calls.append(spec))
    grid_file = tmp_path / "grid.yaml"
    grid_file.write_bytes(b"GA:\n  population_size: [8]\n# \xff\n")
    argv = ["sweep", *ENV, "--agents", "GA", "--budgets", "2", "--grid", str(grid_file),
            "--out", str(tmp_path / "sw")]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: --grid {grid_file}: not UTF-8: 'utf-8' codec can't decode")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert calls == []
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["aggregate", "a-dir", "--out", "unused"],
        ["train-proxy", "--data", "a-dir", "--target", "power", "--out", "unused"],
        ["eval-proxy", "--model", "a-dir", "--data", "a-dir", "--out", "unused"],
    ],
    ids=["aggregate", "train-proxy", "eval-proxy"],
)
def test_an_input_path_that_is_a_directory_is_a_usage_error(argv, tmp_path, monkeypatch,
                                                            capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-dir").mkdir()
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "a-dir" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "unused").exists()


def test_sweep_refuses_a_repeated_seed_before_any_trial(tmp_path, monkeypatch, capsys):
    # two workers would write the same trajectory file
    calls = []
    monkeypatch.setattr(orch, "run_trial", lambda spec: calls.append(spec))
    argv = ["sweep", *ENV, "--agents", "RW", "--budgets", "2", "--seeds", "0,0",
            "--parallel", "2", "--out", str(tmp_path / "sw")]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: repeated seed 0: a sweep runs each trial once\n"
    assert calls == []
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", *ENV, "--agent", "GA", "--budget", "2", "--set", "population_size",
          "--out", "unused"], "expected key=value, got 'population_size'"),
        (["sweep", *ENV, "--agents", "RW", "--budgets", "2,x", "--out", "unused"],
         "expected comma-separated integers, got '2,x'"),
        (["mix", "--source", "RW:LOG", "--proportions", "RW=1", "--size", "2",
          "--out", "unused"], "expected AGENT=FILE, got 'RW:LOG'"),
        (["mix", "--source", "RW=LOG", "--proportions", "RW:1", "--size", "2",
          "--out", "unused"], "expected AGENT=FRACTION, got 'RW:1'"),
    ],
    ids=["set-without-equals", "budgets-not-integers", "source-without-equals",
         "proportion-without-equals"],
)
def test_a_malformed_list_argument_is_a_usage_error(argv, message, tmp_path, monkeypatch,
                                                    capsys):
    _run(tmp_path, "RW", 2)
    (log,) = _trajectory_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    argv = [arg.replace("LOG", log) for arg in argv]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message.replace('LOG', log)}\n"
    assert not (tmp_path / "unused").exists()


def _printed_json(capsys):
    return json.loads(capsys.readouterr().out)


def test_mix_samples_the_requested_proportions(tmp_path, capsys):
    _run(tmp_path, "RW", 8, seed=1)
    _run(tmp_path, "GA", 8, seed=2)
    rw, ga = sorted(_trajectory_files(tmp_path), key=lambda p: "_GA_" in p)
    out = tmp_path / "mix.jsonl"
    argv = ["mix", "--source", f"RW={rw}", "--source", f"GA={ga}",
            "--proportions", "RW=0.75,GA=0.25", "--size", "8", "--out", str(out)]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == f"wrote 8 records to {out}\n"
    assert load_dataset(out).agent_counts() == {"RW": 6, "GA": 2}


def test_a_mixture_trains_and_evaluates_a_proxy(tmp_path):
    _run(tmp_path, "RW", 12, seed=1)
    _run(tmp_path, "GA", 12, seed=2)
    rw, ga = sorted(_trajectory_files(tmp_path), key=lambda p: "_GA_" in p)
    mix = tmp_path / "mix.jsonl"
    argv = ["mix", "--source", f"RW={rw}", "--source", f"GA={ga}",
            "--proportions", "RW=0.5,GA=0.5", "--size", "16", "--out", str(mix)]
    assert cli.main(argv) == cli.EXIT_OK
    model = tmp_path / "model.json"
    argv = ["train-proxy", "--data", str(mix), "--target", "power", "--out", str(model),
            "--set", "n_trees=2"]
    assert cli.main(argv) == cli.EXIT_OK
    argv = ["eval-proxy", "--model", str(model), "--data", str(mix),
            "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == cli.EXIT_OK


def test_mix_proportions_must_sum_to_one(tmp_path, capsys):
    _run(tmp_path, "RW", 4)
    (path,) = _trajectory_files(tmp_path)
    out = tmp_path / "mix.jsonl"
    argv = ["mix", "--source", f"RW={path}", "--proportions", "RW=0.5", "--size", "2",
            "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "proportions must sum to 1" in capsys.readouterr().err
    assert not out.exists()


def test_mix_refuses_sources_from_different_envs(tmp_path, capsys):
    _run(tmp_path, "RW", 4)
    argv = ["run", "--env", "soc-small", "--workload", "audio_decoder", "--agent", "GA",
            "--budget", "4", "--out", str(tmp_path / "runs")]
    assert cli.main(argv) == cli.EXIT_OK
    rw, ga = sorted(_trajectory_files(tmp_path), key=lambda p: "_GA_" in p)
    out = tmp_path / "mix.jsonl"
    argv = ["mix", "--source", f"RW={rw}", "--source", f"GA={ga}",
            "--proportions", "RW=0.5,GA=0.5", "--size", "4", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "records of more than one environment: ['dram-small', 'soc-small']" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["aggregate", "train-proxy"])
def test_a_file_of_two_envs_is_a_data_error(command, tmp_path, capsys):
    _run(tmp_path, "RW", 4)
    argv = ["run", "--env", "soc-small", "--workload", "audio_decoder", "--agent", "RW",
            "--budget", "4", "--seed", "1", "--out", str(tmp_path / "runs")]
    assert cli.main(argv) == cli.EXIT_OK
    mixed = tmp_path / "mixed.jsonl"
    logs = [Path(p).read_text(encoding="utf-8") for p in _trajectory_files(tmp_path)]
    mixed.write_text("".join(logs), encoding="utf-8")
    out = tmp_path / "out"
    argv = {"aggregate": ["aggregate", str(mixed), "--out", str(out)],
            "train-proxy": ["train-proxy", "--data", str(mixed), "--target", "latency",
                            "--out", str(out)]}[command]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"{mixed}: records of more than one environment: ['dram-small', 'soc-small']" in err
    assert not out.exists()


def test_bench_proxy_on_the_undelayed_env(tmp_path, capsys):
    _run(tmp_path, "RW", 20)
    (path,) = _trajectory_files(tmp_path)
    model = tmp_path / "model.json"
    argv = ["train-proxy", "--data", path, "--target", "power", "--out", str(model),
            "--set", "n_trees=2"]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    argv = ["bench-proxy", "--model", str(model), "--objective", "low-power", "--queries", "12"]
    assert cli.main(argv) == cli.EXIT_OK
    printed = _printed_json(capsys)
    assert set(printed) == {"speedup", "env_seconds", "model_seconds", "n_queries"}
    assert printed["n_queries"] == 12
    for queries in ("0", "-3"):
        argv = ["bench-proxy", "--model", str(model), "--queries", queries]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert f"--queries must be >= 1, got {queries}" in capsys.readouterr().err


def test_eval_proxy_refuses_a_dataset_of_another_env(tmp_path, capsys):
    _run(tmp_path, "RW", 20)
    (path,) = _trajectory_files(tmp_path)
    model = tmp_path / "model.json"
    argv = ["train-proxy", "--data", path, "--target", "power", "--out", str(model),
            "--set", "n_trees=2"]
    assert cli.main(argv) == cli.EXIT_OK
    argv = ["run", "--env", "dram", "--workload", "stream", "--agent", "RW", "--budget", "4",
            "--out", str(tmp_path / "dram")]
    assert cli.main(argv) == cli.EXIT_OK
    (other,) = (tmp_path / "dram").glob("*.jsonl")
    capsys.readouterr()
    argv = ["eval-proxy", "--model", str(model), "--data", str(other)]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "'dram-small'" in err and "'dram'" in err


def _model_of_the_stream_workload(tmp_path):
    _run(tmp_path, "RW", 20)
    (path,) = _trajectory_files(tmp_path)
    model = tmp_path / "model.json"
    argv = ["train-proxy", "--data", path, "--target", "power", "--out", str(model),
            "--set", "n_trees=2"]
    assert cli.main(argv) == cli.EXIT_OK
    return model


def test_eval_proxy_refuses_a_dataset_of_another_workload(tmp_path, capsys):
    model = _model_of_the_stream_workload(tmp_path)
    argv = ["run", *ENV[:2], "--workload", "cloud-1", "--agent", "RW", "--budget", "4",
            "--out", str(tmp_path / "cloud")]
    assert cli.main(argv) == cli.EXIT_OK
    (other,) = (tmp_path / "cloud").glob("*.jsonl")
    capsys.readouterr()
    argv = ["eval-proxy", "--model", str(model), "--data", str(other)]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "workload 'stream'" in err and "workload 'cloud-1'" in err


def _model_of_the_small_cnn_workload(tmp_path):
    argv = ["run", "--env", "accel-small", "--workload", "small_cnn", "--agent", "RW",
            "--budget", "20", "--out", str(tmp_path / "runs")]
    assert cli.main(argv) == cli.EXIT_OK
    (path,) = _trajectory_files(tmp_path)
    model = tmp_path / "model.json"
    argv = ["train-proxy", "--data", path, "--target", "latency", "--out", str(model),
            "--set", "n_trees=2"]
    assert cli.main(argv) == cli.EXIT_OK
    return model


def _record_tasks(monkeypatch):
    tasks = []
    monkeypatch.setattr(cli, "make_env", lambda *task: tasks.append(task) or make_env(*task))
    return tasks


def test_bench_proxy_times_the_task_of_its_model(tmp_path, monkeypatch, capsys):
    model = _model_of_the_small_cnn_workload(tmp_path)
    tasks = _record_tasks(monkeypatch)
    argv = ["bench-proxy", "--model", str(model), "--objective", "joint", "--queries", "3"]
    assert cli.main(argv) == cli.EXIT_OK
    assert tasks == [("accel-small", "small_cnn", "joint")]


@pytest.mark.parametrize("seed", ["1", "2"])
def test_bench_proxy_refuses_a_model_of_another_env(seed, tmp_path, monkeypatch, capsys):
    model = _model_of_the_small_cnn_workload(tmp_path)
    capsys.readouterr()
    tasks = _record_tasks(monkeypatch)
    # the env is the model's own: naming another one is a usage error
    argv = ["bench-proxy", "--model", str(model), "--env", "soc-small", "--workload",
            "audio_decoder", "--objective", "budget", "--queries", "1", "--seed", seed]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "unrecognized arguments: --env soc-small --workload audio_decoder" in err
    assert tasks == []


def test_bench_proxy_refuses_another_workload(tmp_path, capsys):
    model = _model_of_the_stream_workload(tmp_path)
    capsys.readouterr()
    argv = ["bench-proxy", "--model", str(model), "--workload", "cloud-1", "--queries", "1"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "unrecognized arguments: --workload cloud-1" in capsys.readouterr().err
    # a model file that does not name its workload fits none
    doc = json.loads((Path(__file__).parent / "data" / "model_v1.json").read_text())
    del doc["workload_id"]
    unnamed = tmp_path / "unnamed.json"
    unnamed.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["bench-proxy", "--model", str(unnamed), "--queries", "1"]) == cli.EXIT_DATA
    assert "model file lacks key 'workload_id'" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["n_trees=0", "max_depth=-1"])
def test_train_proxy_rejects_an_empty_or_negative_forest_size(setting, tmp_path, capsys):
    _run(tmp_path, "RW", 6)
    (path,) = _trajectory_files(tmp_path)
    model = tmp_path / "model.json"
    argv = ["train-proxy", "--data", path, "--target", "power", "--out", str(model),
            "--set", setting]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert f"{setting.split('=')[0]} must be" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize(
    "setting",
    ["bootstrap=0", 'bootstrap="no"', 'feature_subsample="0.5"', f"n_trees=1{'0' * 400}"],
    ids=["bootstrap-int", "bootstrap-string", "subsample-string", "n-trees-past-int64"],
)
def test_train_proxy_refuses_a_hyperparameter_of_another_type(setting, tmp_path, capsys):
    _run(tmp_path, "RW", 6)
    (path,) = _trajectory_files(tmp_path)
    model = tmp_path / "model.json"
    argv = ["train-proxy", "--data", path, "--target", "power", "--out", str(model),
            "--set", setting]
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {setting.split('=')[0]} must ") and err.count("\n") == 1
    assert not model.exists()


def test_proxy_commands_reject_a_model_whose_walk_leaves_the_tree(tmp_path, capsys):
    _run(tmp_path, "RW", 6)
    (path,) = _trajectory_files(tmp_path)
    doc = json.loads((Path(__file__).parent / "data" / "model_v1.json").read_text("utf-8"))
    doc["trees"][1][0]["r"] = len(doc["trees"][1])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["eval-proxy", "--model", str(model), "--data", path],
                 ["bench-proxy", "--model", str(model)]):
        assert cli.main(argv) == cli.EXIT_DATA
        assert "tree 1, node 0: right child" in capsys.readouterr().err


def test_aggregate_of_a_trial_logged_twice_is_a_data_error(tmp_path, capsys):
    _run(tmp_path, "RW", 3)
    (path,) = _trajectory_files(tmp_path)
    twice = tmp_path / "twice.jsonl"
    twice.write_text(Path(path).read_text(encoding="utf-8") * 2, encoding="utf-8")
    assert cli.main(["aggregate", str(twice), "--out", str(tmp_path / "agg")]) == cli.EXIT_DATA
    assert "step_index 0 occurs twice" in capsys.readouterr().err
    assert not (tmp_path / "agg").exists()


def test_eval_proxy_names_the_key_a_model_file_lacks(tmp_path, capsys):
    _run(tmp_path, "RW", 6)
    (path,) = _trajectory_files(tmp_path)
    doc = json.loads((Path(__file__).parent / "data" / "model_v1.json").read_text("utf-8"))
    del doc["target"]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["eval-proxy", "--model", str(model), "--data", path]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: {model}: model file lacks key 'target'\n"


def test_train_proxy_refuses_set_with_search(tmp_path, capsys):
    _run(tmp_path, "RW", 30)
    (path,) = _trajectory_files(tmp_path)
    model = tmp_path / "model.json"
    argv = ["train-proxy", "--data", path, "--target", "power", "--out", str(model),
            "--search", "2", "--set", "n_trees=1"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "--set cannot be combined with --search" in capsys.readouterr().err
    assert not model.exists()


def _search(tmp_path, name, *options):
    """`train-proxy --search 3` on a 120-record dram-small RW log: exit code and model path."""
    if not _trajectory_files(tmp_path):
        _run(tmp_path, "RW", 120)
    (path,) = _trajectory_files(tmp_path)
    model = tmp_path / name
    argv = ["train-proxy", "--data", path, "--target", "power", "--out", str(model),
            "--search", "3", *options]
    return cli.main(argv), model


def test_train_proxy_search_picks_from_the_grid_reproducibly(tmp_path, capsys):
    code, first = _search(tmp_path, "first.json", "--seed", "7")
    assert code == cli.EXIT_OK
    picked = proxy.RandomForestModel.load(first).hyperparams
    assert all(picked[key] in values for key, values in proxy.SEARCH_GRID.items())
    code, second = _search(tmp_path, "second.json", "--seed", "7")
    assert code == cli.EXIT_OK and second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize(
    "fraction, message",
    [
        ("0.999", "--val-fraction 0.999 splits 120 records into 0 for training and 120 for "
                  "validation; --search needs both"),
        ("0.001", "--val-fraction 0.001 splits 120 records into 120 for training and 0 for "
                  "validation; --search needs both"),
        ("1.5", "--val-fraction must lie in (0, 1), got 1.5"),
        ("0", "--val-fraction must lie in (0, 1), got 0.0"),
    ],
    ids=["empty-training-split", "empty-validation-split", "above-one", "zero"],
)
def test_train_proxy_search_refuses_a_split_it_cannot_use(fraction, message, tmp_path,
                                                          monkeypatch, capsys):
    fits = []
    monkeypatch.setattr(proxy, "train_forest", lambda *args, **kwargs: fits.append(args))
    code, model = _search(tmp_path, "model.json", "--val-fraction", fraction)
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert fits == [] and not model.exists()


def test_report_writes_its_four_tables(tmp_path, capsys):
    sweep = tmp_path / "sw"
    argv = ["sweep", *ENV, "--agents", "RW,GA", "--budgets", "2,4", "--out", str(sweep),
            "--no-trajectories"]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    out = tmp_path / "report"
    assert cli.main(["report", "--summary", str(sweep / "summary.json"),
                     "--out", str(out)]) == cli.EXIT_OK
    names = ["summary.json", "quartiles.csv", "normalized_rewards.csv", "time_to_completion.csv"]
    assert capsys.readouterr().out == "".join(f"wrote {out / n}\n" for n in names)
    assert sorted(p.name for p in out.iterdir()) == sorted(names)


@pytest.mark.parametrize(
    "text, message",
    [
        ("{}", "sweep summary lacks key 'env_id'"),
        ('{"extra": 1}', "unknown keys ['extra']"),
        ("[1]", "a sweep summary is a JSON object, not list"),
        ('{"env_id": "dram-small"', "not a JSON sweep summary"),
    ],
    ids=["empty-object", "unknown-key", "array", "truncated"],
)
def test_report_of_a_malformed_summary_is_a_data_error(text, message, tmp_path, capsys):
    summary = tmp_path / "summary.json"
    summary.write_text(text, encoding="utf-8")
    out = tmp_path / "report"
    assert cli.main(["report", "--summary", str(summary), "--out", str(out)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: {summary}: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train-proxy", "eval-proxy", "report"])
def test_a_document_nested_too_deep_to_parse_is_a_data_error(command, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "\n", encoding="utf-8")
    out = tmp_path / "out"
    args, fault = {
        "train-proxy": (["--data", path, "--target", "power", "--out", out],
                        ":1: corrupt record: a trajectory record"),
        "eval-proxy": (["--model", path, "--data", out], ": a model file"),
        "report": (["--summary", path, "--out", out], ": a sweep summary"),
    }[command]
    assert cli.main([command, *map(str, args)]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: {path}{fault} nested too deep to parse\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [("stats", 5), ("stats", {"RW": 5}), ("timing", {"RW": {}}), ("budgets", "x"),
     ("mean_normalized", {"RW": {"2": math.nan}}),
     ("best_rewards", {"RW": {"d": {"2": {"0": math.inf}}}}),
     ("stats", {"RW": {"2": {"min": 0.1, "q1": math.nan, "median": 0.2, "q3": 0.3, "max": 0.4,
                             "iqr": 0.2, "n": 2, "best_digest": "d"}}}),
     ("timing", {"RW": {"total_wall_s": -math.inf, "trials": 1}}),
     ("seeds", [10**400]), ("budgets", [4.0, 16.0]), ("seeds", [0.5]), ("seeds", [-1])],
    ids=["stats-number", "stats-agent-number", "timing-empty-record", "budgets-string",
         "nan-mean-normalized", "infinite-best-reward", "nan-quartile", "infinite-wall-time",
         "huge-int-seed", "float-budgets", "float-seed", "negative-seed"],
)
def test_report_of_a_summary_with_a_bad_value_is_a_data_error(field, value, tmp_path, capsys):
    sweep = tmp_path / "sw"
    argv = ["sweep", *ENV, "--agents", "RW", "--budgets", "2", "--out", str(sweep),
            "--no-trajectories"]
    assert cli.main(argv) == cli.EXIT_OK
    summary = sweep / "summary.json"
    doc = json.loads(summary.read_text(encoding="utf-8"))
    doc[field] = value
    summary.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "report"
    assert cli.main(["report", "--summary", str(summary), "--out", str(out)]) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith(f"error: {summary}: {field} is not ")
    assert not out.exists()


def _train_proxy_with_line_2_field(tmp_path, name, value):
    """Exit code of `train-proxy` on a trajectory whose second record has `name` = `value`."""
    _run(tmp_path, "RW", 4)
    (path,) = _trajectory_files(tmp_path)
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), name: value})
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["train-proxy", "--data", str(bad), "--target", "power",
            "--out", str(tmp_path / "model.json")]
    return cli.main(argv)


def test_train_proxy_of_a_record_with_a_bad_design_is_a_data_error(tmp_path, capsys):
    assert _train_proxy_with_line_2_field(tmp_path, "design", 5) == cli.EXIT_DATA
    bad = tmp_path / "bad.jsonl"
    err = capsys.readouterr().err
    assert f"{bad}:2: corrupt record: design is not a JSON object, got 5" in err


def test_train_proxy_of_a_record_with_a_list_experiment_id_is_a_data_error(tmp_path, capsys):
    assert _train_proxy_with_line_2_field(tmp_path, "experiment_id", ["e"]) == cli.EXIT_DATA
    bad = tmp_path / "bad.jsonl"
    err = capsys.readouterr().err
    assert f"{bad}:2: corrupt record: experiment_id is not a string, got ['e']" in err


def test_enumerate_oracle_prints_the_oracle(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    assert cli.main(["enumerate-oracle", *ENV, "--out", str(out)]) == cli.EXIT_OK
    text = capsys.readouterr().out
    printed = json.loads(text)
    assert set(printed) == {"env_id", "workload_id", "objective", "best_design", "best_reward",
                            "space_cardinality"}
    assert printed == asdict(orch.enumerate_oracle("dram-small", "stream", "low-power"))
    assert out.read_text(encoding="utf-8") == text
