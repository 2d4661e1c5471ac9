"""Synthetic DNN-accelerator cost model (roofline).

latency = max(compute time, memory time): the compute branch scales as
flops / (NumPEs * peak-per-PE), the memory branch as bytes / effective
bandwidth, where bandwidth grows with both buffer levels and with the
dataflow's reuse factor.  Row-stationary reuse collapses below a minimum
L1 size, so the best dataflow depends on the buffer allocation.  Points
whose combined buffer bytes exceed the fixture budget are infeasible.
Constants live in fixtures/accel.yaml.

The formula is written once (see `cost_model`).  The terms of one or two
parameters -- the compute time and PE area per (Precision, NumPEs), the
two `math.log2` bandwidth gains and the (Dataflow, L1) reuse -- are
`Table`s, which a point reads by value and a batch by index column; the
rest is the same arithmetic on both, in the same order.
"""

from __future__ import annotations

import math

from .base import Table, WorkloadSpec, cost_model


def _reuse(c: dict, dataflow: str, l1_kib: float) -> float:
    reuse = c["dataflow_reuse"][dataflow]
    min_l1 = c["reuse_min_l1_kib"][dataflow]
    if l1_kib < min_l1:
        reuse *= 1.0 - c["reuse_collapse"] * (min_l1 - l1_kib) / min_l1
    return reuse


def terms(c: dict, workload: WorkloadSpec) -> dict:
    """What the formula needs beyond the design: the workload's bytes, and a
    `Table` per term of one or two parameters."""
    flops, bytes_moved = workload["flops"], workload["bytes"]
    return {
        "bytes": bytes_moved,
        # compute time, and the area of the die and its PEs
        "pes": Table(
            lambda precision: Table(
                lambda num_pes: (
                    flops / (num_pes * c["peak_flops_per_pe"][precision]),
                    c["area_base_mm2"] + num_pes * c["area_per_pe_mm2"][precision],
                )
            )
        ),
        "dynamic_energy": Table(
            lambda precision: flops * c["energy_per_flop_j"][precision]
            + bytes_moved * c["energy_per_byte_j"]
        ),
        # bandwidth with the L1 gain, and the dataflow's reuse at that L1 size
        "l1": Table(
            lambda dataflow: Table(
                lambda l1: (
                    c["mem_bandwidth_bps"]
                    * (1.0 + c["l1_bw_gain"] * math.log2(l1 / c["l1_base_kib"])),
                    _reuse(c, dataflow, l1),
                )
            )
        ),
        "l2_gain": Table(lambda l2: 1.0 + c["l2_bw_gain"] * math.log2(l2 / c["l2_base_kib"])),
    }


def formula(x, workload: WorkloadSpec, c: dict) -> tuple[dict, bool]:
    t = c["terms"]
    l1_kib = x["L1BufferKiB"]
    l2_kib = x["L2BufferKiB"]
    valid = l1_kib + l2_kib <= c["buffer_budget_kib"]
    if x.stop(valid):
        return {}, False

    compute_s, area = x.at(t["pes"], "Precision", "NumPEs")
    bandwidth, reuse = x.at(t["l1"], "Dataflow", "L1BufferKiB")
    memory_s = t["bytes"] / (bandwidth * x.at(t["l2_gain"], "L2BufferKiB") * reuse)
    latency = x.maximum(compute_s, memory_s)

    area = area + l1_kib * c["area_per_l1_kib_mm2"] + l2_kib * c["area_per_l2_kib_mm2"]
    energy = x.at(t["dynamic_energy"], "Precision") + latency * area * c["static_w_per_mm2"]

    return {"latency": latency, "energy": energy, "area": area}, valid


cost_metrics = cost_model(formula)
