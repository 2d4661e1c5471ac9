"""Per-layer metrics of a traced run.

Trial-level figures (calls per sample, busy shares, self share) describe
the workload's own trials: the sweeps of explore and tune-small, and the
logging sweep that builds the proxy workload's dataset in set-up.  A
per-call latency of a function the workload never calls is measured by a
short coverage call after the traced run, so every figure is measured.
"""

from __future__ import annotations

import statistics

from dsegym.orchestrator import TrialSpec, enumerate_oracle, run_trial

from workloads import ALL_AGENTS, FULL_SPACES, SMALL_SPACES, TARGETS, trial_counts

FAMILIES = tuple(space[0] for space in FULL_SPACES)
COVERAGE_BUDGET = 16  # BO's default n_initial is 8, so 8 proposes fit a GP


def cover(tracer, workload) -> None:
    """Make the calls that the traced run never made, in phase ``coverage``."""
    seen = (workload.trial_phase, "setup")
    tracer.phase = "coverage"
    env_id, workload_id, objective = FULL_SPACES[0]
    for agent in ALL_AGENTS:
        if not tracer.count(seen, f"agents.{agent}.propose"):
            run_trial(TrialSpec(env_id, workload_id, objective, agent, COVERAGE_BUDGET,
                                workload.seed))
    for space in FULL_SPACES:
        if not tracer.count(seen, f"envs.step.{space[0]}"):
            run_trial(TrialSpec(*space, "RW", COVERAGE_BUDGET, workload.seed))
    if not tracer.count(seen, "orchestrator.enumerate_oracle"):
        enumerate_oracle(*SMALL_SPACES[0])


def layer_metrics(tracer, workload, result, files, saved_model_bytes: int) -> dict:
    main = (workload.trial_phase,)
    everywhere = (workload.trial_phase, "setup", "proxy")

    def p50(prefix, q=50):
        """Latency where the workload made the call, else from coverage."""
        for phases in (main, everywhere, ("coverage",)):
            if tracer.count(phases, prefix):
                return tracer.quantile_us(phases, prefix, q)
        return 0.0

    steps = tracer.count(main, "envs.step.")
    trial_ns = tracer.total_ns(main, "orchestrator.run_trial")
    out = {
        "spaces.design_map.calls_per_sample": tracer.count(main, "spaces.design_map") / steps,
        "spaces.design_map.us_p50": p50("spaces.design_map"),
        "spaces.validate_point.calls_per_sample":
            tracer.count(main, "spaces.validate_point") / steps,
        "spaces.encode.calls": tracer.count(everywhere, "spaces.encode"),
        "spaces.encode.us_p50": p50("spaces.encode"),
    }
    for family in FAMILIES:
        out[f"envs.step.{family}.us_p50"] = p50(f"envs.step.{family}")
    out["envs.step.us_p99"] = tracer.quantile_us(main, "envs.step.", 99)
    out["envs.evaluations_per_sample"] = (steps + tracer.count(main, "envs.observe")) / steps
    out["envs.busy_share"] = tracer.self_ns_total(main, "envs.") / trial_ns

    for agent in ALL_AGENTS:
        out[f"agents.{agent}.propose.us_p50"] = p50(f"agents.{agent}.propose")
        out[f"agents.{agent}.observe.us_p50"] = p50(f"agents.{agent}.observe")
    out["agents.busy_share"] = tracer.self_ns_total(main, "agents.") / trial_ns

    records = sum(fit.records for fit in result.proxy.fits)
    out["dataset.append.us_p50"] = p50("dataset.append")
    out["dataset.append.busy_share"] = tracer.self_ns_total(main, "dataset.append") / trial_ns
    out["dataset.bytes_per_record"] = sum(f.stat().st_size for f in files) / sum(
        sum(1 for _ in open(f, encoding="utf-8")) for f in files)
    out["dataset.load.us_per_record"] = tracer.total_ns(("proxy",), "dataset.load") / 1e3 / records

    n_trees = len(next(iter(result.proxy.models.values())).trees)
    for target in TARGETS:
        out[f"proxy.fit.s_per_tree.{target}"] = tracer.quantile_us(
            ("proxy",), f"proxy.train_forest.{target}", 0) / 1e6 / n_trees
        out[f"proxy.nodes.{target}"] = sum(
            len(tree.nodes) for tree in result.proxy.models[target].trees)
    out["proxy.predict.us_p50"] = tracer.quantile_us(("proxy",), "proxy.predict", 50)
    out["proxy.model_bytes"] = saved_model_bytes
    out["proxy.speedup_vs_env_x"] = statistics.median(
        s for probe in result.proxy.probes for s in probe.step_ns) / statistics.median(
        q for probe in result.proxy.probes for q in probe.query_ns)

    out["orchestrator.self_share"] = tracer.self_ns_total(main, "orchestrator.run_trial") / trial_ns
    if result.rounds:
        trial_wall = sum(t["total_wall_s"] for r in result.rounds for s in r.summaries
                         for t in s.timing.values())
        sweep_wall = sum(r.wall_s for r in result.rounds)
        workers = workload.plan.parallelism
        attempted, failed = trial_counts(result.rounds)
    else:
        summary, sweep_wall = workload.setup_sweep
        trial_wall = sum(t["total_wall_s"] for t in summary.timing.values())
        workers = 1
        failed = len(summary.failures)
        attempted = failed + sum(t["trials"] for t in summary.timing.values())
    out["orchestrator.parallel_efficiency"] = trial_wall / (workers * sweep_wall)
    out["orchestrator.enumerate_oracle.ms"] = p50("orchestrator.enumerate_oracle") / 1e3
    out["orchestrator.trials_attempted"] = attempted
    out["orchestrator.trials_failed"] = failed
    return out
