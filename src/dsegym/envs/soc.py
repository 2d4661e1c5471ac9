"""Synthetic SoC cost model: task-graph makespan over chosen processing elements.

The design instantiates up to three PE slots plus a NoC bus width (and a
memory frequency in the full space).  Performance is the makespan of a
greedy earliest-finish list schedule of the workload's task graph over
the instantiated PEs; crossing between PEs pays a communication delay
inversely proportional to bus width.  Power and area are additive over
instantiated IPs (provisioned, not activity-based), so an unused PE
costs power and area without changing performance.  Constants and task
graphs live in fixtures/soc.yaml.  Units: power in W, performance in s,
area in mm2.

The formula is written once (see `cost_model`).  A slot's task times, its
PE's power and area, and the NoC's and memory's terms are `Table`s, which
a point reads by value and a batch by index column.  The schedule runs
task by task over all three slots: an empty slot never finishes a task,
so no task is placed on it, and a design with no PE has an infinite
makespan and is infeasible.
"""

from __future__ import annotations

import math

from .base import Table, WorkloadSpec

_SLOTS = ("PE0Type", "PE1Type", "PE2Type")


def _task_time(c: dict, task: dict, pe_type: str, mem_freq_mhz: float) -> float:
    speed = c["pe_types"][pe_type]["speed_mops"][task["class"]]
    exec_s = task["work_mops"] / speed
    mem_s = task.get("mem_bytes", 0.0) / (mem_freq_mhz * 1e6 * c["mem_bytes_per_cycle"])
    return exec_s + mem_s


def terms(c: dict, workload: WorkloadSpec) -> dict:
    """What the formula needs beyond the design: the task graph by position,
    and a `Table` per term of one or two parameters."""
    tasks = c["task_graphs"][workload.id]["tasks"]
    position = {task["name"]: k for k, task in enumerate(tasks)}
    pe_types = c["pe_types"]
    noc_power, noc_area, mem_power = c["noc_power_w"], c["noc_area_mm2"], c["mem_power_w"]
    return {
        # per task, in fixture order: (position, bytes) of each task it waits for
        "deps": [
            tuple((position[dep["task"]], dep["bytes"]) for dep in task.get("deps", ()))
            for task in tasks
        ],
        # NoC bytes/s, and the power and area of the base and the NoC
        "noc": Table(
            lambda width: (
                width / 8.0 * c["noc_clock_hz"],
                c["base_power_w"] + noc_power["base"] + noc_power["per_bit"] * width,
                c["base_area_mm2"] + noc_area["base"] + noc_area["per_bit"] * width,
            )
        ),
        "mem_power": Table(lambda freq: mem_power["base"] + mem_power["per_mhz"] * freq),
        "task_times": Table(
            lambda pe: Table(
                lambda mem_freq: (math.inf,) * len(tasks) if pe == "None"
                else tuple(_task_time(c, task, pe, mem_freq) for task in tasks)
            )
        ),
        "pe_cost": Table(
            lambda pe: (0.0, 0.0) if pe == "None"
            else (pe_types[pe]["power_w"], pe_types[pe]["area_mm2"])
        ),
    }


def _makespan(x, t: dict, noc_bps) -> float:
    """Greedy list schedule in fixture task order; ties go to the lower slot."""
    times = [x.at(t["task_times"], slot, "MemFreqMHz") for slot in _SLOTS]
    finish: list = []
    placed: list = []
    free = [0.0] * len(_SLOTS)
    for k, deps in enumerate(t["deps"]):
        done = []
        for i, slot_times in enumerate(times):
            ready = 0.0
            for dep, nbytes in deps:
                # a task on another slot sends its output over the NoC
                ready = x.maximum(ready, finish[dep] + (placed[dep] != i) * (nbytes / noc_bps))
            done.append(x.maximum(ready, free[i]) + slot_times[k])
        best, slot = x.argmin(done)
        x.put(free, slot, best)
        finish.append(best)
        placed.append(slot)
    return x.maximum(finish)


def formula(x, t: dict) -> tuple[dict, bool]:
    noc_bps, power, area = x.at(t["noc"], "NoCBusWidth")
    makespan = _makespan(x, t, noc_bps)
    power += x.at(t["mem_power"], "MemFreqMHz")
    for slot in _SLOTS:
        pe_power, pe_area = x.at(t["pe_cost"], slot)
        power += pe_power
        area += pe_area

    return {"power": power, "performance": makespan, "area": area}, makespan < math.inf

