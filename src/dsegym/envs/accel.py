"""Synthetic DNN-accelerator cost model (roofline).

latency = max(compute time, memory time): the compute branch scales as
flops / (NumPEs * peak-per-PE), the memory branch as bytes / effective
bandwidth, where bandwidth grows with both buffer levels and with the
dataflow's reuse factor.  Row-stationary reuse collapses below a minimum
L1 size, so the best dataflow depends on the buffer allocation.  Points
whose combined buffer bytes exceed the fixture budget are infeasible.
Constants live in fixtures/accel.yaml.
"""

from __future__ import annotations

import math

from .base import WorkloadSpec


def _bandwidth(c: dict, dataflow: str, l1_kib: float, l2_kib: float) -> float:
    bw = c["mem_bandwidth_bps"]
    bw *= 1.0 + c["l1_bw_gain"] * math.log2(l1_kib / c["l1_base_kib"])
    bw *= 1.0 + c["l2_bw_gain"] * math.log2(l2_kib / c["l2_base_kib"])
    reuse = c["dataflow_reuse"][dataflow]
    min_l1 = c["reuse_min_l1_kib"][dataflow]
    if l1_kib < min_l1:
        reuse *= 1.0 - c["reuse_collapse"] * (min_l1 - l1_kib) / min_l1
    return bw * reuse


def cost_metrics(design: dict, workload: WorkloadSpec, c: dict) -> tuple[dict, bool]:
    d = {**c["defaults"], **design}
    num_pes = d["NumPEs"]
    l1_kib = d["L1BufferKiB"]
    l2_kib = d["L2BufferKiB"]
    dataflow = d["Dataflow"]
    precision = d["Precision"]

    if l1_kib + l2_kib > c["buffer_budget_kib"]:
        return {}, False

    flops = workload["flops"]
    bytes_moved = workload["bytes"]

    peak = c["peak_flops_per_pe"][precision]
    compute_s = flops / (num_pes * peak)
    memory_s = bytes_moved / _bandwidth(c, dataflow, l1_kib, l2_kib)
    latency = max(compute_s, memory_s)

    area = (
        c["area_base_mm2"]
        + num_pes * c["area_per_pe_mm2"][precision]
        + l1_kib * c["area_per_l1_kib_mm2"]
        + l2_kib * c["area_per_l2_kib_mm2"]
    )

    energy = (
        flops * c["energy_per_flop_j"][precision]
        + bytes_moved * c["energy_per_byte_j"]
        + latency * area * c["static_w_per_mm2"]
    )

    return {"latency": latency, "energy": energy, "area": area}, True
