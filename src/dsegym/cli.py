"""Command-line front end.

Subcommands: run, sweep, aggregate, mix, train-proxy, eval-proxy,
bench-proxy, report, enumerate-oracle.  Exit codes: 0 success, 1 usage
error, 2 trial/environment failure, 3 bad input data (a corrupt or repeated
trajectory record, a malformed model file or sweep summary).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import dataset as ds
from . import orchestrator as orch
from . import proxy
from .agents import AGENT_TYPES, sweep_configs
from .envs import ENV_IDS, make_env
from .rng import make_rng
from .spaces import sample_uniform_indices

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2
EXIT_DATA = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_assignments(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"expected key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key] = _parse_value(value)
    return out


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dsegym", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_env_args(p):
        p.add_argument("--env", required=True, choices=ENV_IDS)
        p.add_argument("--workload", required=True)
        p.add_argument(
            "--objective",
            default="low-latency",
            help="objective name from the env fixture (e.g. low-power, "
            "low-latency, joint, budget)",
        )

    p = sub.add_parser("run", help="run a single trial")
    add_env_args(p)
    p.add_argument("--agent", required=True, choices=AGENT_TYPES)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE", dest="hyperparams",
                   help="override one hyperparameter (repeatable)")

    p = sub.add_parser("sweep", help="run a hyperparameter sweep grid")
    add_env_args(p)
    p.add_argument("--agents", default=",".join(AGENT_TYPES),
                   help="comma-separated agent types")
    p.add_argument("--budgets", default="1000", help="comma-separated sample budgets")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--grid", help="YAML file: agent type -> hyperparameter grid")
    p.add_argument("--out", required=True)
    p.add_argument("--parallel", type=int, default=1,
                   help="worker processes (>= 1); a sweep starts min(N, trials) of "
                        "them, and runs in this process when that is 1")
    p.add_argument("--no-trajectories", action="store_true",
                   help="skip trajectory logging (summary only)")

    p = sub.add_parser("aggregate", help="merge trajectory files into a dataset")
    p.add_argument("files", nargs="+")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("mix", help="diversity-sample a mixture dataset")
    p.add_argument("--source", action="append", required=True, metavar="AGENT=FILE")
    p.add_argument("--proportions", required=True, metavar="AGENT=FRAC,...")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-proxy", help="train a random-forest proxy model")
    p.add_argument("--data", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--search", type=int, default=0,
                   help="random hyperparameter search budget (0 = defaults)")
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--set", action="append", metavar="KEY=VALUE", dest="hyperparams",
                   help="override one hyperparameter (repeatable; not with --search)")

    p = sub.add_parser("eval-proxy", help="evaluate proxy RMSE on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="optionally write the report as JSON")

    p = sub.add_parser("bench-proxy", help="proxy speed-up against the undelayed env")
    p.add_argument("--model", required=True)
    add_env_args(p)
    p.add_argument("--queries", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("report", help="emit report tables from a sweep summary")
    p.add_argument("--summary", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("enumerate-oracle", help="exact optimum of a task by enumerating its space")
    add_env_args(p)
    p.add_argument("--out", help="optionally write the result as JSON")

    return parser


def _cmd_run(args) -> int:
    spec = orch.TrialSpec(
        env_id=args.env,
        workload_id=args.workload,
        objective=args.objective,
        agent_type=args.agent,
        budget=args.budget,
        seed=args.seed,
        hyperparams=orch.TrialSpec.hyperparams_tuple(_parse_assignments(args.hyperparams)),
        out_dir=args.out,
    )
    result = orch.run_trial(spec)
    print(json.dumps({
        "experiment_id": result.experiment_id,
        "best_reward": result.best_reward,
        "best_design": result.best_design,
        "trajectory_file": result.trajectory_file,
    }, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    grids = None
    if args.grid:
        import yaml

        with open(args.grid, encoding="utf-8") as f:
            try:
                doc = yaml.safe_load(f)
            except UnicodeDecodeError as exc:
                raise UsageError(f"--grid {args.grid}: not UTF-8: {exc}") from None
            except yaml.YAMLError as exc:  # its message spans lines, quoting the file
                mark = getattr(exc, "problem_mark", None)
                where = f" at line {mark.line + 1}: {exc.problem}" if mark else ""
                raise UsageError(f"--grid {args.grid}: not valid YAML{where}") from None
        if not isinstance(doc, dict):
            raise UsageError(f"--grid {args.grid}: expected a mapping of agent types to grids")
        for agent, grid in doc.items():
            if grid is None:
                raise UsageError(
                    f"--grid {args.grid}: {agent} has no grid; write `{agent}: {{}}` to run "
                    "its defaults"
                )
        grids = {agent: sweep_configs(agent, grid) for agent, grid in doc.items()}
    out_dir = Path(args.out)
    config = orch.SweepConfig(
        env_id=args.env,
        workload_id=args.workload,
        objective=args.objective,
        agent_types=tuple(args.agents.split(",")),
        budgets=_parse_int_list(args.budgets),
        seeds=_parse_int_list(args.seeds),
        grids=grids,
        out_dir=None if args.no_trajectories else str(out_dir / "trajectories"),
        parallelism=args.parallel,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = orch.run_sweep(config)
    summary.save(out_dir / "summary.json")
    print(f"wrote {out_dir / 'summary.json'}")
    if summary.failures:
        print(f"{len(summary.failures)} trial(s) failed", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_aggregate(args) -> int:
    datasets = [ds.load_dataset(f) for f in args.files]
    merged = ds.merge(datasets)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    merged.save(out_dir / "dataset.jsonl")
    ds.write_manifest(out_dir / "manifest.json", [str(f) for f in args.files], merged)
    print(f"wrote {len(merged)} records to {out_dir / 'dataset.jsonl'}")
    return EXIT_OK


def _cmd_mix(args) -> int:
    sources = {}
    for pair in args.source:
        if "=" not in pair:
            raise UsageError(f"expected AGENT=FILE, got {pair!r}")
        agent, path = pair.split("=", 1)
        sources[agent] = ds.load_dataset(path)
    proportions = {}
    for pair in args.proportions.split(","):
        if "=" not in pair:
            raise UsageError(f"expected AGENT=FRACTION, got {pair!r}")
        agent, frac = pair.split("=", 1)
        proportions[agent] = float(frac)
    mixture = ds.sample_mixture(sources, proportions, args.size, make_rng(args.seed))
    mixture.save(args.out)
    print(f"wrote {len(mixture)} records to {args.out}")
    return EXIT_OK


def _cmd_train_proxy(args) -> int:
    if args.search > 0 and args.hyperparams:
        raise UsageError("--set cannot be combined with --search, which picks every "
                         "hyperparameter itself")
    if args.search > 0 and not 0.0 < args.val_fraction < 1.0:
        raise UsageError(f"--val-fraction must lie in (0, 1), got {args.val_fraction}")
    data = ds.load_dataset(args.data)
    if args.search > 0:
        rng = make_rng(args.seed)
        train, val = ds.split(data, args.val_fraction, rng)
        if not (train and val):
            raise UsageError(f"--val-fraction {args.val_fraction} splits {len(data)} records "
                             f"into {len(train)} for training and {len(val)} for validation; "
                             "--search needs both")
        hp, model, rmse = proxy.proxy_hyperparam_search(
            train, val, args.search, rng, target=args.target
        )
        print(f"search picked {hp} (validation rmse {rmse:.6g})")
    else:
        model = proxy.train_forest(
            data, args.target, _parse_assignments(args.hyperparams), seed=args.seed
        )
    model.save(args.out)
    print(f"wrote model to {args.out}")
    return EXIT_OK


def _cmd_eval_proxy(args) -> int:
    model = proxy.RandomForestModel.load(args.model)
    data = ds.load_dataset(args.data)
    if data.env_id != model.env_id:
        raise UsageError(f"model {args.model} was trained on env {model.env_id!r}, "
                         f"not on the env {data.env_id!r} of {args.data}")
    report = proxy.evaluate_rmse(model, data)
    text = json.dumps(asdict(report), indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return EXIT_OK


def _cmd_bench_proxy(args) -> int:
    model = proxy.RandomForestModel.load(args.model)
    if model.env_id != args.env:
        raise UsageError(f"model {args.model} was trained on env {model.env_id!r}, "
                         f"not on --env {args.env}")
    if args.queries < 1:
        raise UsageError(f"--queries must be >= 1, got {args.queries}")
    env = make_env(args.env, args.workload, args.objective)
    points = sample_uniform_indices(env.space(), make_rng(args.seed), args.queries)
    result = proxy.speed_benchmark(model, env, points)
    print(json.dumps(asdict(result), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_report(args) -> int:
    summary = orch.SweepSummary.load(args.summary)
    for path in orch.report(summary, args.out):
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_enumerate_oracle(args) -> int:
    result = orch.enumerate_oracle(args.env, args.workload, args.objective)
    text = json.dumps(asdict(result), indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "aggregate": _cmd_aggregate,
    "mix": _cmd_mix,
    "train-proxy": _cmd_train_proxy,
    "eval-proxy": _cmd_eval_proxy,
    "bench-proxy": _cmd_bench_proxy,
    "report": _cmd_report,
    "enumerate-oracle": _cmd_enumerate_oracle,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ds.DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:  # OSError: a path that is missing or unreadable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except orch.TrialError as exc:
        print(f"trial failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except RuntimeError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
