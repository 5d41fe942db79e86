"""Benchmark harness: randomized trials comparing the sequencing methods.

For every task count and trial, tasks are sampled uniformly from the
scenario's grid region (rejecting points without valid IK in the online
scene) and four methods run through the identical motion pipeline and the
shared cost oracle: the subspace planner with its seed trajectories, the same
planner with straight-line seeds, the task-space-only baseline and the
decoupled two-stage baseline. Wall-clock timings are collected separately
from the report so that identical (scenario, seed) runs produce
byte-identical reports.
"""

from __future__ import annotations

import time
import warnings

import numpy as np

from .baselines import CostOracle, naive_sequence, plan_visit_cost, robotsp_sequence
from .decomposition import Decomposition, decompose, decompose_mobile, verify_gha
from .kinematics import TaskPoint, ik_solutions
from .sequencer import SequencingParams, adapt_plan, home_config, sequence
from .serialize import SCHEMA_VERSION, Scenario, jsonable
from .taskgraph import build_graph, build_task_grid
from .world import Checker

METHODS = ("subspace", "subspace_noseed", "naive", "robotsp")
MAX_ATTEMPTS_PER_TASK = 400  # rejection-sampling draws per requested task


def build_decomposition(scenario: Scenario) -> Decomposition:
    """Offline stage for a scenario: task graph plus map search."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if scenario.base_poses:
            return decompose_mobile(scenario.grid_region, scenario.grid_spacing,
                                    scenario.connection_radius, scenario.base_poses,
                                    scenario.arm, scenario.scene, scenario.decomposition,
                                    scenario.edge_check_count)
        points = build_task_grid(scenario.grid_region, scenario.grid_spacing)
        graph = build_graph(points, scenario.connection_radius, scenario.arm,
                            scenario.scene, scenario.edge_check_count)
        return decompose(graph, scenario.decomposition)


def verify_decomposition(dec: Decomposition, epsilon: float):
    return [verify_gha(m, dec.graph_for(m), epsilon) for m in dec.maps]


def sample_tasks(scenario: Scenario, count: int, rng: np.random.Generator) -> list[TaskPoint]:
    """Uniform rejection sampling over the grid region, keeping IK-feasible points."""
    xmin, ymin, xmax, ymax = scenario.grid_region
    check = Checker(scenario.arm, scenario.full_scene())
    out: list[TaskPoint] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > MAX_ATTEMPTS_PER_TASK * count:
            raise RuntimeError("task sampling failed: region mostly unreachable")
        p = TaskPoint((float(rng.uniform(xmin, xmax)), float(rng.uniform(ymin, ymax))))
        if ik_solutions(check, p):
            out.append(p)
    return out


def _exec_units(legs) -> int:
    """Legs counted for execution averaging; a home transit pair counts once."""
    units = 0
    i = 0
    while i < len(legs):
        if (legs[i].to_label == -1 and i + 1 < len(legs)
                and legs[i + 1].from_label == -1):
            units += 1
            i += 2
        else:
            units += 1
            i += 1
    return units


def _method_row(adapted_plan, oracle: CostOracle) -> dict:
    legs = adapted_plan.legs
    ok = [leg for leg in legs if leg.valid]
    jerks = [leg.metrics.max_jerk for leg in ok]
    exec_total = sum(leg.metrics.exec_time for leg in ok)
    units = _exec_units(ok)
    return {
        "legs": len(legs),
        "success_legs": len(ok),
        "success_rate": len(ok) / len(legs) if legs else 1.0,
        "unplanned_tasks": len(adapted_plan.unplanned),
        "native_cost": adapted_plan.total_config_cost,
        "oracle_cost": plan_visit_cost(adapted_plan, oracle),
        "exec_time_total": exec_total,
        "exec_time_avg": exec_total / units if units else 0.0,
        "leg_jerks": jerks,
    }


def run_trial(scenario: Scenario, dec: Decomposition, tasks, trial_seed: int,
              timings: list | None = None, task_count: int | None = None,
              trial: int | None = None) -> list[dict]:
    """All four methods on one task set; returns one raw row per method."""
    scene = scenario.full_scene()
    arm = scenario.arm
    seq_params = SequencingParams(scenario.k, scenario.threshold)
    check = Checker(arm, scene, scenario.step)
    home_q = home_config(dec, scenario.home_task, check)
    oracle = CostOracle(check, trial_seed, scenario.timeout)
    rows = []
    for method in METHODS:
        t0 = time.perf_counter()
        if method in ("subspace", "subspace_noseed"):
            plan = sequence(tasks, dec, scenario.home_task, seq_params, arm, scene,
                            home_q=home_q)
        elif method == "naive":
            plan = naive_sequence(tasks, check, scenario.home_task, home_q=home_q)
        else:
            plan = robotsp_sequence(tasks, check, scenario.home_task, home_q=home_q)
        t1 = time.perf_counter()
        adapted = adapt_plan(plan, arm, scene, scenario.step, rng_seed=trial_seed,
                             timeout=scenario.timeout, dt=scenario.dt,
                             straight_seeds=(method == "subspace_noseed"))
        t2 = time.perf_counter()
        row = {"method": method, "task_count": task_count, "trial": trial}
        row.update(_method_row(adapted, oracle))
        rows.append(row)
        if timings is not None:
            timings.append({"method": method, "task_count": task_count, "trial": trial,
                            "sequencing_s": t1 - t0, "motion_planning_s": t2 - t1})
    return rows


def aggregate_rows(rows: list[dict]) -> list[dict]:
    """Per method x task count aggregates, recomputable from the raw rows."""
    keys = sorted({(r["method"], r["task_count"]) for r in rows})
    out = []
    for method, count in keys:
        sub = [r for r in rows if r["method"] == method and r["task_count"] == count]
        jerks = [j for r in sub for j in r["leg_jerks"]]
        n = len(sub)
        jmean = sum(jerks) / len(jerks) if jerks else 0.0
        jstd = (sum((j - jmean) ** 2 for j in jerks) / len(jerks)) ** 0.5 if jerks else 0.0
        out.append({
            "method": method,
            "task_count": count,
            "trials": n,
            "success_rate_mean": sum(r["success_rate"] for r in sub) / n,
            "oracle_cost_mean": sum(r["oracle_cost"] for r in sub) / n,
            "native_cost_mean": sum(r["native_cost"] for r in sub) / n,
            "exec_time_avg_mean": sum(r["exec_time_avg"] for r in sub) / n,
            "max_jerk_mean": jmean,
            "max_jerk_std": jstd,
        })
    return out


def run_bench(scenario: Scenario, seed: int | None = None) -> tuple[dict, dict]:
    """Full sweep; returns (report, timings). Only the report is deterministic."""
    seed = scenario.seed if seed is None else seed
    t0 = time.perf_counter()
    dec = build_decomposition(scenario)
    decompose_s = time.perf_counter() - t0
    rows: list[dict] = []
    timing_rows: list[dict] = []
    interrupted = False
    try:
        for count in scenario.task_counts:
            for trial in range(scenario.trials):
                rng = np.random.default_rng([seed, count, trial])
                tasks = sample_tasks(scenario, count, rng)
                trial_seed = seed * 1_000_003 + count * 1009 + trial
                rows.extend(run_trial(scenario, dec, tasks, trial_seed, timing_rows,
                                      task_count=count, trial=trial))
    except KeyboardInterrupt:
        interrupted = True  # flush whatever completed
    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "bench_report",
        "seed": seed,
        "task_counts": scenario.task_counts,
        "trials": scenario.trials,
        "methods": list(METHODS),
        "interrupted": interrupted,
        "rows": jsonable(rows),
        "aggregates": jsonable(aggregate_rows(rows)),
    }
    timings = {
        "kind": "bench_timings",
        "decompose_s": decompose_s,
        "rows": timing_rows,
    }
    return report, timings


def summary_table(report: dict) -> str:
    """Human-readable aggregate table."""
    lines = ["method            tasks  success  oracle-cost  exec-avg  max-jerk(mean+-std)"]
    for a in report["aggregates"]:
        lines.append("%-17s %5d  %6.2f%%  %11.3f  %8.3f  %8.1f +- %.1f" % (
            a["method"], a["task_count"], 100 * a["success_rate_mean"],
            a["oracle_cost_mean"], a["exec_time_avg_mean"],
            a["max_jerk_mean"], a["max_jerk_std"]))
    return "\n".join(lines)
