"""Synthetic memory-controller cost model.

Latency is a product of a workload base term, one multiplicative factor
per categorical parameter, and documented responses for the numeric
parameters; power is built the same way; energy = latency * power.  The
scheduler factor interacts with the request buffer size (reorder-capable
schedulers only pay off once the buffer is large enough), so the optimum
is not separable per parameter.  All constants live in fixtures/dram.yaml.
"""

from __future__ import annotations

from .base import WorkloadSpec


def _policy_factor(table: dict, policy: str, locality: float) -> float:
    entry = table[policy]
    return entry["base"] + entry["locality_coeff"] * (1.0 - locality)


def cost_metrics(design: dict, workload: WorkloadSpec, c: dict) -> tuple[dict, bool]:
    d = {**c["defaults"], **design}
    locality = workload["access_locality"]
    read_frac = workload["read_fraction"]
    intensity = workload["request_intensity"]

    req_buf = d["RequestBufferSize"]
    max_active = d["MaxActiveTransactions"]
    postponed = d["RefreshMaxPostponed"]
    pulledin = d["RefreshMaxPulledin"]

    lat = c["base_latency_s"]
    lat *= 1.0 + c["latency"]["locality_coeff"] * (1.0 - locality)
    lat *= 1.0 + c["latency"]["intensity_coeff"] * intensity
    lat *= _policy_factor(c["latency"]["page_policy"], d["PagePolicy"], locality)
    sched = c["latency"]["scheduler"][d["Scheduler"]]
    lat *= sched["base"]
    # reorder window payoff grows with the request buffer (interaction term)
    lat *= 1.0 + sched["buffer_gain"] / req_buf
    lat *= c["latency"]["scheduler_buffer"][d["SchedulerBuffer"]]
    lat *= c["latency"]["resp_queue"][d["RespQueue"]]
    lat *= c["latency"]["arbiter"][d["Arbiter"]]
    # U-shaped: too few active transactions serialize, too many contend
    lat *= (
        1.0
        + c["latency"]["active_serial"] / max_active
        + c["latency"]["active_contention"] * max_active / 128.0
    )
    lat *= (
        1.0
        + c["latency"]["refresh_postpone"] / (1.0 + postponed)
        - c["latency"]["refresh_pullin"] * pulledin / 8.0
    )

    pwr = c["base_power_w"]
    pwr *= 1.0 + c["power"]["intensity_coeff"] * intensity
    pwr *= 1.0 + c["power"]["write_coeff"] * (1.0 - read_frac)
    pwr *= _policy_factor(c["power"]["page_policy"], d["PagePolicy"], locality)
    pwr *= c["power"]["scheduler"][d["Scheduler"]]
    pwr *= c["power"]["scheduler_buffer"][d["SchedulerBuffer"]]
    pwr *= c["power"]["resp_queue"][d["RespQueue"]]
    pwr *= c["power"]["arbiter"][d["Arbiter"]]
    pwr *= (
        1.0
        + c["power"]["request_buffer"] * req_buf / 16.0
        + c["power"]["active_buffer"] * max_active / 128.0
    )
    pwr *= (
        1.0
        - c["power"]["refresh_postpone_save"] * postponed / 8.0
        + c["power"]["refresh_pullin_cost"] * pulledin / 8.0
    )

    return {"latency": lat, "power": pwr, "energy": lat * pwr}, True
