"""Synthetic SoC cost model: task-graph makespan over chosen processing elements.

The design instantiates up to three PE slots plus a NoC bus width (and a
memory frequency in the full space).  Performance is the makespan of a
greedy earliest-finish list schedule of the workload's task graph over
the instantiated PEs; crossing between PEs pays a communication delay
inversely proportional to bus width.  Power and area are additive over
instantiated IPs (provisioned, not activity-based), so an unused PE
costs power and area without changing performance.  Constants and task
graphs live in fixtures/soc.yaml.
"""

from __future__ import annotations

from .base import WorkloadSpec


def _task_time(c: dict, task: dict, pe_type: str, mem_freq_mhz: float) -> float:
    speed = c["pe_types"][pe_type]["speed_mops"][task["class"]]
    exec_s = task["work_mops"] / speed
    mem_s = task.get("mem_bytes", 0.0) / (mem_freq_mhz * 1e6 * c["mem_bytes_per_cycle"])
    return exec_s + mem_s


def _schedule(c: dict, graph: dict, pes: list[str], bus_width: float, mem_freq: float) -> float:
    """Greedy list schedule in fixture task order; returns the makespan."""
    noc_bps = bus_width / 8.0 * c["noc_clock_hz"]
    finish: dict[str, float] = {}
    placed: dict[str, int] = {}
    free = [0.0] * len(pes)
    for task in graph["tasks"]:
        best_pe, best_done = -1, float("inf")
        for i, pe_type in enumerate(pes):
            ready = 0.0
            for dep in task.get("deps", ()):
                arrival = finish[dep["task"]]
                if placed[dep["task"]] != i:
                    arrival += dep["bytes"] / noc_bps
                ready = max(ready, arrival)
            done = max(ready, free[i]) + _task_time(c, task, pe_type, mem_freq)
            if done < best_done:
                best_pe, best_done = i, done
        finish[task["name"]] = best_done
        placed[task["name"]] = best_pe
        free[best_pe] = best_done
    return max(finish.values())


def cost_metrics(design: dict, workload: WorkloadSpec, c: dict) -> tuple[dict, bool]:
    d = {**c["defaults"], **design}
    pes = [d[slot] for slot in ("PE0Type", "PE1Type", "PE2Type") if d[slot] != "None"]
    if not pes:
        return {}, False
    bus_width = d["NoCBusWidth"]
    mem_freq = d["MemFreqMHz"]

    graph = c["task_graphs"][workload.id]
    makespan = _schedule(c, graph, pes, bus_width, mem_freq)

    power = c["base_power_w"] + c["noc_power_w"]["base"] + c["noc_power_w"]["per_bit"] * bus_width
    power += c["mem_power_w"]["base"] + c["mem_power_w"]["per_mhz"] * mem_freq
    area = c["base_area_mm2"] + c["noc_area_mm2"]["base"] + c["noc_area_mm2"]["per_bit"] * bus_width
    for pe_type in pes:
        power += c["pe_types"][pe_type]["power_w"]
        area += c["pe_types"][pe_type]["area_mm2"]

    return {"power": power, "performance": makespan, "area": area}, True
