"""Synthetic memory-controller cost model.

Latency is a product of a workload base term, one multiplicative factor
per categorical parameter, and documented responses for the numeric
parameters; power is built the same way; energy = latency * power.  The
scheduler factor interacts with the request buffer size (reorder-capable
schedulers only pay off once the buffer is large enough), so the optimum
is not separable per parameter.  All constants live in fixtures/dram.yaml.
Units: latency in s, power in W, energy in J.

The formula is written once (see `cost_model`): every factor that depends
on the design is a `Table` of one or two parameters, which a point reads
by value and a batch by index column, and the product runs in the same
order on both.
"""

from __future__ import annotations

from .base import Table, WorkloadSpec


def _policy_factor(table: dict, policy: str, locality: float) -> float:
    entry = table[policy]
    return entry["base"] + entry["locality_coeff"] * (1.0 - locality)


def terms(c: dict, workload: WorkloadSpec) -> dict:
    """What the formula needs beyond the design: the workload's latency and
    power bases, and a `Table` per factor of one or two parameters, a
    (latency, power) pair where a parameter scales both."""
    locality = workload["access_locality"]
    intensity = workload["request_intensity"]
    lat, pwr = c["latency"], c["power"]

    lat_base = c["base_latency_s"]
    lat_base *= 1.0 + lat["locality_coeff"] * (1.0 - locality)
    lat_base *= 1.0 + lat["intensity_coeff"] * intensity
    pwr_base = c["base_power_w"]
    pwr_base *= 1.0 + pwr["intensity_coeff"] * intensity
    pwr_base *= 1.0 + pwr["write_coeff"] * (1.0 - workload["read_fraction"])

    def both(name):
        return Table(lambda value: (lat[name][value], pwr[name][value]))

    return {
        "lat_base": lat_base,
        "pwr_base": pwr_base,
        "page_policy": Table(
            lambda p: (_policy_factor(lat["page_policy"], p, locality),
                       _policy_factor(pwr["page_policy"], p, locality))
        ),
        "scheduler": Table(lambda s: (lat["scheduler"][s]["base"], pwr["scheduler"][s])),
        # reorder window payoff grows with the request buffer (interaction term)
        "reorder": Table(
            lambda s: Table(lambda req_buf: 1.0 + lat["scheduler"][s]["buffer_gain"] / req_buf)
        ),
        "scheduler_buffer": both("scheduler_buffer"),
        "resp_queue": both("resp_queue"),
        "arbiter": both("arbiter"),
        # U-shaped: too few active transactions serialize, too many contend
        "active": Table(
            lambda active: 1.0 + lat["active_serial"] / active
            + lat["active_contention"] * active / 128.0
        ),
        "buffers": Table(
            lambda req_buf: Table(
                lambda active: 1.0 + pwr["request_buffer"] * req_buf / 16.0
                + pwr["active_buffer"] * active / 128.0
            )
        ),
        "refresh": Table(
            lambda postponed: Table(
                lambda pulledin: (
                    1.0 + lat["refresh_postpone"] / (1.0 + postponed)
                    - lat["refresh_pullin"] * pulledin / 8.0,
                    1.0 - pwr["refresh_postpone_save"] * postponed / 8.0
                    + pwr["refresh_pullin_cost"] * pulledin / 8.0,
                )
            )
        ),
    }


def formula(x, t: dict) -> tuple[dict, bool]:
    lat_policy, pwr_policy = x.at(t["page_policy"], "PagePolicy")
    lat_scheduler, pwr_scheduler = x.at(t["scheduler"], "Scheduler")
    lat_buffer, pwr_buffer = x.at(t["scheduler_buffer"], "SchedulerBuffer")
    lat_queue, pwr_queue = x.at(t["resp_queue"], "RespQueue")
    lat_arbiter, pwr_arbiter = x.at(t["arbiter"], "Arbiter")
    lat_refresh, pwr_refresh = x.at(t["refresh"], "RefreshMaxPostponed", "RefreshMaxPulledin")

    lat = t["lat_base"]
    lat *= lat_policy
    lat *= lat_scheduler
    lat *= x.at(t["reorder"], "Scheduler", "RequestBufferSize")
    lat *= lat_buffer
    lat *= lat_queue
    lat *= lat_arbiter
    lat *= x.at(t["active"], "MaxActiveTransactions")
    lat *= lat_refresh

    pwr = t["pwr_base"]
    pwr *= pwr_policy
    pwr *= pwr_scheduler
    pwr *= pwr_buffer
    pwr *= pwr_queue
    pwr *= pwr_arbiter
    pwr *= x.at(t["buffers"], "RequestBufferSize", "MaxActiveTransactions")
    pwr *= pwr_refresh

    return {"latency": lat, "power": pwr, "energy": lat * pwr}, True

