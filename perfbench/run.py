"""Run one workload of the dsegym benchmark, check its outputs, print metrics.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a source checkout: the package is imported from
the checkout's ``src/`` and nowhere else, and the run's files live under
``.bench_work/`` in the checkout until it ends.  Workloads, metrics and the
layer each metric belongs to are described in ``perfbench/README.md`` and
``BENCHMARK.json``.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  Lines before it carry the machine
description and the behaviour fingerprints.  Thread-count variables such as
``OPENBLAS_NUM_THREADS`` are inherited and never set here: the parallel
sweep of ``tune-small`` is measured as the environment leaves it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def declared_metrics(trace: bool) -> list[dict]:
    """The metrics BENCHMARK.json declares for this kind of run, in order."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)["per_layer" if trace else "end_to_end"]


def import_package() -> None:
    src = ROOT / "src"
    if not (src / "dsegym" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dsegym sources at {src}; run inside a source checkout")
    sys.path.insert(0, str(src))
    import dsegym

    if Path(dsegym.__file__).resolve().parent != (src / "dsegym").resolve():
        sys.exit(f"perfbench: imported dsegym from {dsegym.__file__}, not from {src}")


def machine() -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": deps["blas"].get("openblas configuration") or deps["blas"].get("name"),
        "lapack": deps["lapack"].get("name"),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its ended workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def check(workload, result, problems: list[str]) -> None:
    from workloads import check_proxy, check_rounds

    check_rounds(result.rounds, workload.oracles, problems)
    check_proxy(result.proxy, problems)


def fingerprints(workload, result) -> dict:
    from workloads import prediction_fingerprint, trajectory_fingerprints

    log_dir = (result.rounds and result.rounds[0].log_dir) or workload.setup_logs
    return {
        "trajectories": trajectory_fingerprints(log_dir),
        "proxy_predictions": prediction_fingerprint(result.proxy),
        "oracle_optima": workload.oracles,
    }


def trajectory_files(workload, result) -> list[Path]:
    if result.rounds and result.rounds[0].log_dir is not None:
        return sorted(f for r in result.rounds for f in r.log_dir.rglob("*.jsonl"))
    return sorted(workload.setup_logs.rglob("*.jsonl"))


def measure(args, work: Path) -> tuple[dict, dict, dict]:
    from workloads import FULL, TINY, WORKLOADS, sha256_files

    workload = WORKLOADS[args.workload](args.seed, TINY if args.tiny else FULL, work)
    problems: list[str] = []
    setup_s, setup_speed = [], []
    workload.speed.start()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
        setup_speed.append(workload.speed.end_unit())
    setup_digests = {sha256_files((work / f"setup{i + 1}").rglob("*.jsonl"))
                     for i in range(SETUP_REPEATS)}
    if len(setup_digests) != 1:
        problems.append("repeated set-ups logged different trajectories")

    if not args.trace:
        result = workload.run(args.seconds, "run")
        scaled_setup_s = statistics.median(t * f for t, f in zip(setup_s, setup_speed))
        metrics = {**result.metrics, "setup_s": scaled_setup_s, "peak_rss_mb": peak_rss_mb()}
        print(json.dumps({"raw_timings": {**result.raw_timings,
                                          "setup_s": statistics.median(setup_s)},
                          "speed_factor_p50": statistics.median(workload.speed.factors)}))
    else:
        metrics, result = traced(args, workload, work, problems)
    check(workload, result, problems)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    declared = declared_metrics(args.trace)
    if {m["name"] for m in declared} != set(metrics):
        raise RuntimeError(f"measured {sorted(metrics)}, BENCHMARK.json declares "
                           f"{sorted(m['name'] for m in declared)}")
    out = {
        "correct": not problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    return out, fingerprints(workload, result), machine()


def traced(args, workload, work: Path, problems: list[str]):
    from layers import cover, layer_metrics
    from tracing import Tracer, install

    half = args.seconds / 2.0
    untraced = workload.run(half, "untraced", scored=False)
    check(workload, untraced, problems)
    tracer = Tracer(work)
    install(tracer)
    try:
        tracer.phase = "setup"
        workload.setup()
        tracer.phase = "sweep"
        result = workload.run(half, "traced", tracer, scored=False)
        cover(tracer, workload)
    finally:
        tracer.unpatch()
    model_bytes = 0
    for target, model in result.proxy.models.items():
        path = work / f"model-{target}.json"
        model.save(path)
        model_bytes += path.stat().st_size
    metrics = layer_metrics(tracer, workload, result, trajectory_files(workload, result),
                            model_bytes)
    if result.rounds:
        overhead = untraced.metrics["samples_per_s"] / result.metrics["samples_per_s"]
    else:
        overhead = result.metrics["proxy_train_s"] / untraced.metrics["proxy_train_s"]
    metrics["trace_overhead_pct"] = (overhead - 1.0) * 100.0
    return metrics, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("explore", "tune-small", "proxy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # A terminated run unwinds like an interrupted one: sweep worker pools
    # shut down and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_package()
    declared_metrics(args.trace)  # fail before any work if the declaration is missing
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        out, prints, host = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"machine": host}))
    print(json.dumps({"fingerprints": prints}, sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
