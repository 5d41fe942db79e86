import itertools
import math

import numpy as np
import pytest

from armseq import (HOME, Checker, CostOracle, TaskPoint, TooLargeError, config_distance,
                    gtsp_bruteforce, ik_solutions, naive_sequence,
                    plan_visit_cost, robotsp_sequence, task_distance)
from armseq.sequencer import closed_tour_cost, solve_tsp


def test_cost_oracle_symmetric_and_cached(check2):
    oracle = CostOracle(check2, rng_seed=5)
    a = np.array([0.1, 0.2])
    b = np.array([1.0, -0.7])
    assert oracle.cost(a, b) == oracle.cost(b, a)
    assert oracle.cost(a, b) == pytest.approx(config_distance(a, b))
    cost1, traj1 = oracle.leg(a, b)
    cost2, traj2 = oracle.leg(b, a)
    assert cost1 == cost2
    assert np.array_equal(traj1.waypoints[0], a)
    assert np.array_equal(traj2.waypoints[0], b)


def test_cost_oracle_deterministic(arm2):
    from armseq import Box, Scene

    scene = Scene((Box(1.2, 1.2, 1.7, 1.7),))
    a = np.array([0.0, 0.0])
    b = np.array([math.pi / 2, 0.0])
    c1 = CostOracle(Checker(arm2, scene), rng_seed=9).cost(a, b)
    c2 = CostOracle(Checker(arm2, scene), rng_seed=9).cost(a, b)
    assert c1 == c2
    assert math.isfinite(c1)


def test_naive_single_task(check2):
    home = TaskPoint((1.2, 0.6))
    plan = naive_sequence([TaskPoint((0.8, 0.9))], check2, home)
    assert plan.visit_order == [HOME, 0, HOME]
    assert len(plan.legs) == 2


def test_naive_order_matches_task_space_brute_force(check2):
    home = TaskPoint((0.0, 1.2))
    tasks = [TaskPoint((-0.9, 0.9)), TaskPoint((0.3, 0.9)), TaskPoint((0.9, 0.9)),
             TaskPoint((-0.3, 0.9))]
    plan = naive_sequence(tasks, check2, home)
    got_order = [v for v in plan.visit_order[1:-1]]
    pts = [home] + tasks
    best = math.inf
    for perm in itertools.permutations(range(1, len(pts))):
        cost = task_distance(pts[0], pts[perm[0]])
        for x, y in zip(perm, perm[1:]):
            cost += task_distance(pts[x], pts[y])
        cost += task_distance(pts[perm[-1]], pts[0])
        best = min(best, cost)
    got_cost = task_distance(pts[0], pts[got_order[0] + 1])
    for x, y in zip(got_order, got_order[1:]):
        got_cost += task_distance(pts[x + 1], pts[y + 1])
    got_cost += task_distance(pts[got_order[-1] + 1], pts[0])
    assert got_cost == pytest.approx(best, abs=1e-9)


def test_naive_first_ik_rule(check2):
    task = TaskPoint((1.0, 1.0))
    plan = naive_sequence([task], check2, TaskPoint((1.5, 0.5)))
    expected = ik_solutions(check2, task)[0]
    assert np.array_equal(plan.visit_configs[1], expected)


def test_robotsp_single_ik_matches_naive(arm2):
    from armseq import Box, Scene

    # the right-hand box strips the elbow-down branch: every task has one IK
    scene = Scene((Box(0.8, -0.5, 1.15, 0.1),))
    tasks = [TaskPoint((0.85, 0.75)), TaskPoint((1.05, 0.65))]
    check = Checker(arm2, scene)
    for t in tasks:
        assert len(ik_solutions(check, t)) == 1
    home = TaskPoint((0.3, 1.1))
    nv = naive_sequence(tasks, check, home)
    rb = robotsp_sequence(tasks, check, home)
    assert nv.visit_order == rb.visit_order
    for a, b in zip(nv.visit_configs, rb.visit_configs):
        assert np.array_equal(a, b)


def test_robotsp_layered_search_matches_enumeration(check2):
    tasks = [TaskPoint((1.0, 1.0)), TaskPoint((1.2, 0.8))]
    home = TaskPoint((0.9, 1.15))
    plan = robotsp_sequence(tasks, check2, home)
    order = [v for v in plan.visit_order[1:-1]]
    home_q = plan.home_config
    ik = [ik_solutions(check2, t) for t in tasks]
    best = math.inf
    for qa in ik[order[0]]:
        for qb in ik[order[1]]:
            c = (config_distance(home_q, qa) + config_distance(qa, qb)
                 + config_distance(qb, home_q))
            best = min(best, c)
    got = sum(config_distance(a, b)
              for a, b in zip(plan.visit_configs, plan.visit_configs[1:]))
    assert got == pytest.approx(best, abs=1e-9)


def test_robotsp_picks_cheap_cross_branch_pairing(check2):
    # two dual-branch tasks: the layered search must choose the consistent pair
    tasks = [TaskPoint((1.0, 1.0)), TaskPoint((0.9, 1.1))]
    home = TaskPoint((1.1, 0.9))
    plan = robotsp_sequence(tasks, check2, home)
    q1, q2 = plan.visit_configs[1], plan.visit_configs[2]
    # consistent elbow choice keeps consecutive configs close
    assert config_distance(q1, q2) < 0.5


def test_robotsp_tie_keeps_lowest_predecessor(monkeypatch, check2):
    import armseq.baselines as baselines_mod

    # from home (0, 0) the last two candidates tie at 0.2 out and 0.2 back
    candidates = [np.array([-1.0, 0.0]), np.array([-0.2, 0.0]), np.array([0.2, 0.0])]
    monkeypatch.setattr(baselines_mod, "_first_ik", lambda check, task: candidates)
    plan = robotsp_sequence([TaskPoint((1.0, 1.0))], check2, TaskPoint((1.2, 0.6)),
                            home_q=np.zeros(2))
    assert np.array_equal(plan.visit_configs[1], candidates[1])


def test_gtsp_single_task_two_ik(check2):
    oracle = CostOracle(check2, rng_seed=1)
    task = TaskPoint((1.0, 1.0))
    home_q = np.array([0.3, 0.8])
    assign, perm, cost = gtsp_bruteforce([task], TaskPoint((1.2, 0.7)), oracle, home_q=home_q)
    ik = ik_solutions(check2, task)
    expected = min(oracle.cost(home_q, q) + oracle.cost(q, home_q) for q in ik)
    assert cost == pytest.approx(expected, abs=1e-12)
    assert perm == (0,)


def test_gtsp_three_tasks_matches_independent_enumeration(check2):
    oracle = CostOracle(check2, rng_seed=2)
    tasks = [TaskPoint((1.0, 1.0)), TaskPoint((0.4, 1.2)), TaskPoint((1.3, 0.5))]
    home_q = np.array([0.5, 0.5])
    assign, perm, cost = gtsp_bruteforce(tasks, TaskPoint((0.9, 0.9)), oracle, home_q=home_q)
    ik = [ik_solutions(check2, t) for t in tasks]
    best = math.inf
    for combo in itertools.product(*ik):
        for order in itertools.permutations(range(3)):
            c = oracle.cost(home_q, combo[order[0]])
            c += oracle.cost(combo[order[0]], combo[order[1]])
            c += oracle.cost(combo[order[1]], combo[order[2]])
            c += oracle.cost(combo[order[2]], home_q)
            best = min(best, c)
    assert cost == pytest.approx(best, abs=1e-12)


def test_gtsp_enforces_limits(arm3, empty_scene, check2):
    oracle = CostOracle(check2)
    tasks = [TaskPoint((0.9, 0.9))] * 7
    with pytest.raises(TooLargeError):
        gtsp_bruteforce(tasks, TaskPoint((1.0, 0.5)), oracle)
    oracle3 = CostOracle(Checker(arm3, empty_scene))
    many_ik = TaskPoint((0.8, 0.4))
    assert len(ik_solutions(oracle3.check, many_ik)) > 4
    with pytest.raises(TooLargeError):
        gtsp_bruteforce([many_ik], TaskPoint((0.7, 0.3)), oracle3)


def test_oracle_lower_bounds_methods_small_instance(check2):
    rng = np.random.default_rng(31)
    home = TaskPoint((0.2, 1.1))
    for _ in range(5):
        tasks = []
        while len(tasks) < 3:
            p = TaskPoint((float(rng.uniform(-1.2, 1.2)), float(rng.uniform(0.5, 1.2))))
            if 1 <= len(ik_solutions(check2, p)) <= 3:
                tasks.append(p)
        oracle = CostOracle(check2, rng_seed=3)
        home_q = ik_solutions(check2, home)[0]
        _, _, opt = gtsp_bruteforce(tasks, home, oracle, home_q=home_q)
        naive = plan_visit_cost(naive_sequence(tasks, check2, home, home_q=home_q), oracle)
        robo = plan_visit_cost(robotsp_sequence(tasks, check2, home, home_q=home_q), oracle)
        assert opt <= naive + 1e-9
        assert opt <= robo + 1e-9
