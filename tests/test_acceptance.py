"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and reported magnitudes.
"""

import time
import warnings

import numpy as np
import pytest

from armseq import (Checker, CostOracle, SequencingParams, TaskPoint, adapt_plan,
                    build_graph, build_task_grid, config_distance, decompose,
                    finite_difference_max_jerk, gtsp_bruteforce, home_config,
                    ik_solutions, motion_valid, naive_sequence, plan_visit_cost,
                    robotsp_sequence, sequence, verify_gha)
from armseq.bench import run_bench
from armseq.cli import main
from armseq.sequencer import closed_tour_cost, solve_tsp
from armseq.serialize import Scenario, dumps


def _report(num, ok, desc, detail=""):
    print("CRITERION %2d %s  %s%s" % (num, "PASS" if ok else "FAIL", desc,
                                      "  [%s]" % detail if detail else ""))
    assert ok, "criterion %d failed: %s (%s)" % (num, desc, detail)


@pytest.fixture(scope="module")
def fig1(scenario_json):
    """Two-subspace tabletop: offline stage, timed."""
    scenario = Scenario(scenario_json("tabletop"))
    t0 = time.perf_counter()
    points = build_task_grid(scenario.grid_region, scenario.grid_spacing)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        graph = build_graph(points, scenario.connection_radius, scenario.arm,
                            scenario.scene, scenario.edge_check_count)
    dec = decompose(graph, scenario.decomposition)
    runtime = time.perf_counter() - t0
    return scenario, graph, dec, runtime


@pytest.fixture(scope="module")
def fig1_verifications(fig1):
    scenario, graph, dec, _ = fig1
    eps = scenario.decomposition.epsilon
    return [verify_gha(m, graph, eps, hop_samples=1000, geodesic_samples=200,
                       seed=11) for m in dec.maps]


@pytest.fixture(scope="module")
def bench_report(scenario_json):
    scenario = Scenario(scenario_json("tabletop"))  # task_counts {3,5,8} x 10 trials, as shipped
    return run_bench(scenario)[0]


def test_criterion_01_edge_condition_and_runtime(fig1):
    scenario, graph, dec, runtime = fig1
    eps = scenario.decomposition.epsilon
    violations = 0
    edges = 0
    for m in dec.maps:
        for a, b in m.tree_edges:
            edges += 1
            gap = abs(config_distance(m.assignment[a], m.assignment[b])
                      - graph.edges[(a, b)])
            if not gap < eps:
                violations += 1
    _report(1, violations == 0 and runtime < 10.0,
            "every tree edge satisfies |d_C - d_T| < eps strictly",
            "%d edges, %d violations, offline stage %.2f s" % (edges, violations, runtime))


def test_criterion_02_hop_bound(fig1_verifications):
    checked = [rep.hop_pairs_checked for rep in fig1_verifications]
    bad = sum(len(rep.hop_bound_violations) for rep in fig1_verifications)
    _report(2, all(c >= 1000 for c in checked) and bad == 0,
            "N-hop tree paths stay within N*eps of the summed task distance",
            "pairs per map %s, %d violations" % (checked, bad))


def test_criterion_03_geodesic_bound(fig1_verifications):
    checked = [rep.geodesics_checked for rep in fig1_verifications]
    bad = sum(len(rep.geodesic_bound_violations) for rep in fig1_verifications)
    _report(3, all(c >= 200 for c in checked) and bad == 0,
            "graph geodesics map to (N+1)*eps-geodesics in configuration space",
            "geodesics per map %s, %d violations" % (checked, bad))


def test_criterion_04_subspace_disjointness(fig1):
    scenario, _, dec, _ = fig1
    eps = scenario.decomposition.epsilon
    assert len(dec.maps) == 2
    a, b = dec.maps
    min_cross = min(config_distance(qa, qb)
                    for qa in a.assignment.values() for qb in b.assignment.values())
    _report(4, min_cross > eps,
            "the two maps' configuration images are separated",
            "min cross-map d_C %.3f > eps %.2f" % (min_cross, eps))


def test_criterion_05_sequencing_beats_naive(scenario_json):
    scenario = Scenario(scenario_json("tabletop_single_box"))
    points = build_task_grid(scenario.grid_region, scenario.grid_spacing)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        graph = build_graph(points, scenario.connection_radius, scenario.arm,
                            scenario.scene, scenario.edge_check_count)
    dec = decompose(graph, scenario.decomposition)
    scene = scenario.full_scene()
    plan = sequence(scenario.tasks, dec, scenario.home_task,
                    SequencingParams(scenario.k, scenario.threshold),
                    scenario.arm, scene)
    check = Checker(scenario.arm, scene)
    naive = naive_sequence(scenario.tasks, check, scenario.home_task, home_q=plan.home_config)
    oracle = CostOracle(check, rng_seed=scenario.seed)
    ours = plan_visit_cost(plan, oracle)
    base = plan_visit_cost(naive, oracle)
    _report(5, ours < base,
            "4-task mission: subspace sequencing beats the task-space-only baseline",
            "ours %.3f < naive %.3f (%.0f%% lower)" % (ours, base, 100 * (base - ours) / base))


def test_criterion_06_oracle_sandwich(fig1):
    scenario, graph, dec, _ = fig1
    arm, scene = scenario.arm, scenario.scene
    params = SequencingParams(scenario.k, scenario.threshold)
    rng = np.random.default_rng(606)
    check = Checker(arm, scene)
    home_q = home_config(dec, scenario.home_task, check)
    xmin, ymin, xmax, ymax = scenario.grid_region
    worst_gap = np.inf
    for _ in range(20):
        tasks = []
        while len(tasks) < 3:
            p = TaskPoint((float(rng.uniform(xmin, xmax)), float(rng.uniform(ymin, ymax))))
            if 1 <= len(ik_solutions(check, p)) <= 3:
                tasks.append(p)
        oracle = CostOracle(check, rng_seed=6)
        _, _, opt = gtsp_bruteforce(tasks, scenario.home_task, oracle, home_q=home_q)
        ours = plan_visit_cost(sequence(tasks, dec, scenario.home_task, params,
                                        arm, scene, home_q=home_q), oracle)
        naive = plan_visit_cost(naive_sequence(tasks, check, scenario.home_task,
                                               home_q=home_q), oracle)
        robo = plan_visit_cost(robotsp_sequence(tasks, check, scenario.home_task,
                                                home_q=home_q), oracle)
        for cost in (ours, ours, naive, robo):  # seeded and straight variants share configs
            assert opt <= cost + 1e-9
            worst_gap = min(worst_gap, cost - opt)
    # exact TSP equals brute-force permutation minima for n <= 8
    tsp_ok = True
    import itertools

    for n in (5, 8):
        for trial in range(3):
            A = rng.uniform(0.1, 2.0, size=(n, n))
            W = (A + A.T) / 2
            np.fill_diagonal(W, 0.0)
            got = closed_tour_cost(W, solve_tsp(W, 0))
            best = min(closed_tour_cost(W, [0] + list(p))
                       for p in itertools.permutations(range(1, n)))
            if abs(got - best) > 1e-9:
                tsp_ok = False
    _report(6, tsp_ok,
            "brute-force optimum lower-bounds all methods; exact TSP matches brute force",
            "20 instances, tightest method-vs-optimum gap %.3g" % worst_gap)


def test_criterion_07_jerk_metric_fidelity():
    dt = 1e-3
    t = np.arange(0.0, 1.0 + dt / 2, dt)
    jerk = finite_difference_max_jerk(t ** 5, dt)
    rel = abs(jerk - 60.0) / 60.0
    t2 = np.arange(0.0, 1.0 + dt / 4, dt / 2)
    jerk2 = finite_difference_max_jerk(t2 ** 5, dt / 2)
    drift = abs(jerk2 - jerk) / jerk
    _report(7, rel < 0.005 and drift < 0.01,
            "finite-difference max jerk matches the analytic quintic profile",
            "relative error %.4f%%, dt-halving drift %.4f%%" % (100 * rel, 100 * drift))


def test_criterion_08_success_rate_direction(bench_report):
    rows = bench_report["rows"]

    def mean_success(method):
        sub = [r["success_rate"] for r in rows if r["method"] == method]
        return sum(sub) / len(sub)

    ours = mean_success("subspace")
    naive = mean_success("naive")
    _report(8, ours >= naive,
            "subspace planner's success rate is at least the naive baseline's",
            "subspace %.3f vs naive %.3f over %d trials"
            % (ours, naive, len(rows) // 4))


def test_criterion_09_bench_determinism(scenario_json, tmp_path):
    scenario = scenario_json("tabletop")
    scenario["bench"] = {"task_counts": [3], "trials": 2}
    path = tmp_path / "scenario.json"
    path.write_text(dumps(scenario))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["bench", "--scenario", str(path), "--out", str(out1),
                 "--format", "json"]) == 0
    assert main(["bench", "--scenario", str(path), "--out", str(out2),
                 "--format", "json"]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    _report(9, identical, "bench runs with identical scenario and seed are byte-identical",
            "%d bytes" % len(out1.read_bytes()))


def test_criterion_10_validity_closure(fig1):
    scenario, graph, dec, _ = fig1
    scene = scenario.full_scene()
    arm = scenario.arm
    params = SequencingParams(scenario.k, scenario.threshold)
    step = scenario.step
    check = Checker(arm, scene)
    checked = 0
    failed = 0
    for trial in range(3):
        rng = np.random.default_rng([77, trial])
        tasks = []
        while len(tasks) < 4:
            p = TaskPoint((float(rng.uniform(-1.2, 1.2)), float(rng.uniform(0.6, 1.2))))
            if ik_solutions(check, p):
                tasks.append(p)
        seed_plan = sequence(tasks, dec, scenario.home_task, params, arm, scene)
        for straight in (False, True):
            adapted = adapt_plan(seed_plan, arm, scene, step, rng_seed=trial,
                                 timeout=scenario.timeout, straight_seeds=straight)
            for leg in adapted.legs:
                if not leg.valid:
                    continue
                for a, b in zip(leg.trajectory.waypoints, leg.trajectory.waypoints[1:]):
                    checked += 1
                    if not motion_valid(arm, a, b, scene, step / 2):
                        failed += 1
        naive = adapt_plan(naive_sequence(tasks, check, scenario.home_task,
                                          home_q=seed_plan.home_config),
                           arm, scene, step, rng_seed=trial, timeout=scenario.timeout)
        for leg in naive.legs:
            if not leg.valid:
                continue
            for a, b in zip(leg.trajectory.waypoints, leg.trajectory.waypoints[1:]):
                checked += 1
                if not motion_valid(arm, a, b, scene, step / 2):
                    failed += 1
    _report(10, checked > 0 and failed == 0,
            "every successful leg re-validates at half the planning step",
            "%d segments rechecked, %d failures" % (checked, failed))
