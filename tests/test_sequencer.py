import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from armseq import (Checker, Decomposition, DecompositionParams, HOME, build_map,
                    DisconnectedError, NoIkSolutionsError, SequencingParams,
                    TaskPoint, config_distance, home_config, ik_solutions,
                    intra_subspace_trajectory, match_task, sequence,
                    solve_tsp)
from armseq.sequencer import TaskMatch, closed_tour_cost

from test_decomposition import make_graph, params


def _single_node_decomposition(assignments, positions=None):
    """Decomposition with one map per assignment dict over a shared graph, whose
    IK sets hold the assigned rows in map order (a placeholder where none is)."""
    positions = positions or [(1.0, 1.0)]
    ik = [[] for _ in positions]
    picks = []
    for assign in assignments:
        pick = [-1] * len(positions)
        for n, q in assign.items():
            pick[n] = len(ik[n])
            ik[n].append(list(q))
        picks.append(pick)
    g = make_graph(positions, [rows or [[0.0, 0.0]] for rows in ik], [], radius=1.0)
    maps = [build_map(g, pick, set(), min(a), 0.0) for pick, a in zip(picks, assignments)]
    return Decomposition(maps, [g], DecompositionParams(epsilon=1.0), 1.0)


def test_match_exact_node(tabletop_scenario, tabletop_decomposition):
    dec = tabletop_decomposition
    sc = tabletop_scenario
    m0 = dec.maps[0]
    node = m0.assigned_nodes()[len(m0.assignment) // 2]
    task = TaskPoint(dec.graphs[0].nodes[node].position)
    mt = match_task(task, dec, 10, 0.7, Checker(sc.arm, sc.scene))
    assert mt.map_index == 0
    assert mt.matched_node == node
    assert mt.similarity <= 1e-9
    assert np.allclose(mt.task_config, m0.assignment[node], atol=1e-9)


def test_match_earlier_map_bias(check2):
    # task (1,1) has Q = {(0, pi/2), (pi/2, -pi/2)}; craft assignments at known
    # L2 offsets so per-map best similarities are (0.9, 0.4)
    q = np.array([0.0, math.pi / 2])
    dec = _single_node_decomposition([
        {0: q + np.array([0.0, 0.9])},
        {0: q + np.array([0.0, 0.4])},
    ])
    mt = match_task(TaskPoint((1.0, 1.0)), dec, 10, 0.7, check2)
    assert mt.map_index == 1
    assert mt.similarity == pytest.approx(0.4)
    # a permissive threshold stops at the first map instead
    mt = match_task(TaskPoint((1.0, 1.0)), dec, 10, 1.0, check2)
    assert mt.map_index == 0


def test_match_global_fallback_above_threshold(check2):
    q = np.array([0.0, math.pi / 2])
    dec = _single_node_decomposition([
        {0: q + np.array([0.0, 1.3])},
        {0: q + np.array([0.0, 1.5])},
    ])
    mt = match_task(TaskPoint((1.0, 1.0)), dec, 10, 0.7, check2)
    assert mt.map_index == 0
    assert mt.similarity == pytest.approx(1.3)


def test_match_tie_keeps_first_ranked_node(check2):
    # node 1 is nearer the task, so it ranks first; each node is assigned one
    # of the task's two IK solutions, so both nodes reach similarity 0
    c0, c1 = ik_solutions(check2, TaskPoint((1.0, 1.0)))
    dec = _single_node_decomposition([{0: c0, 1: c1}], positions=[(1.1, 1.0), (1.0, 1.0)])
    mt = match_task(TaskPoint((1.0, 1.0)), dec, 10, 0.7, check2)
    assert mt.matched_node == 1
    assert np.array_equal(mt.task_config, c1)
    assert mt.similarity == 0.0


def test_match_no_ik(tabletop_decomposition, check2):
    with pytest.raises(NoIkSolutionsError):
        match_task(TaskPoint((3.0, 0.0)), tabletop_decomposition, 10, 0.7, check2)


def _dijkstra_oracle(graph, assignment, start, goal):
    import heapq

    dist = {start: 0.0}
    prev = {}
    heap = [(0.0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        for v, _ in graph.neighbors(u):
            if v not in assignment:
                continue
            nd = d + config_distance(assignment[u], assignment[v])
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    return dist.get(goal, math.inf)


def test_intra_trajectory_adjacent(tabletop_decomposition):
    dec = tabletop_decomposition
    m = dec.maps[0]
    g = dec.graphs[0]
    a, b = sorted(m.tree_edges)[0]
    qa, qb = m.assignment[a], m.assignment[b]
    ma = TaskMatch(TaskPoint(g.nodes[a].position), 0, a, qa + 0.01, 0.01)
    mb = TaskMatch(TaskPoint(g.nodes[b].position), 0, b, qb - 0.01, 0.01)
    tr = intra_subspace_trajectory(m, g, ma, mb)
    assert len(tr.waypoints) == 4
    expected = (config_distance(ma.task_config, qa) + config_distance(qa, qb)
                + config_distance(qb, mb.task_config))
    assert tr.length() == pytest.approx(expected)


def test_intra_trajectory_same_node(tabletop_decomposition):
    dec = tabletop_decomposition
    m = dec.maps[0]
    n = m.assigned_nodes()[0]
    q = m.assignment[n]
    ma = TaskMatch(TaskPoint(dec.graphs[0].nodes[n].position), 0, n, q.copy(), 0.0)
    mb = TaskMatch(TaskPoint(dec.graphs[0].nodes[n].position), 0, n, q.copy(), 0.0)
    tr = intra_subspace_trajectory(m, dec.graphs[0], ma, mb)
    assert len(tr.waypoints) == 3
    assert tr.length() <= 1e-12


def test_intra_trajectory_matches_dijkstra_oracle(tabletop_decomposition):
    dec = tabletop_decomposition
    m = dec.maps[0]
    nodes = m.assigned_nodes()
    a, b = nodes[0], nodes[-1]
    ma = TaskMatch(TaskPoint(dec.graphs[0].nodes[a].position), 0, a, m.assignment[a], 0.0)
    mb = TaskMatch(TaskPoint(dec.graphs[0].nodes[b].position), 0, b, m.assignment[b], 0.0)
    tr = intra_subspace_trajectory(m, dec.graphs[0], ma, mb)
    assert tr.length() == pytest.approx(_dijkstra_oracle(dec.graphs[0], m.assignment, a, b))


def test_intra_trajectory_disconnected():
    g = make_graph([(0.0, 0.0), (0.5, 0.0)], [[[0.0]], [[0.1]]], [], radius=1.0)
    m = build_map(g, [0, 0], set(), 0, 0.0)
    ma = TaskMatch(TaskPoint((0.0, 0.0)), 0, 0, np.array([0.0]), 0.0)
    mb = TaskMatch(TaskPoint((0.5, 0.0)), 0, 1, np.array([0.1]), 0.0)
    with pytest.raises(DisconnectedError):
        intra_subspace_trajectory(m, g, ma, mb)


def test_home_config_argmin(check2):
    # task (1,1) has two IK branches; choose means near each in turn
    q0 = np.array([0.0, math.pi / 2])
    q1 = np.array([math.pi / 2, -math.pi / 2])
    for target in (q0, q1):
        dec = _single_node_decomposition([{0: target}])
        got = home_config(dec, TaskPoint((1.0, 1.0)), check2)
        assert np.allclose(got, target, atol=1e-9)


def test_home_config_tie_keeps_first_candidate(monkeypatch, check2):
    import armseq.sequencer as sequencer_mod

    candidates = [np.array([-0.2, 0.0]), np.array([0.2, 0.0])]
    monkeypatch.setattr(sequencer_mod, "ik_solutions", lambda check, task: candidates)
    dec = _single_node_decomposition([{0: np.zeros(2)}])
    got = home_config(dec, TaskPoint((1.0, 1.0)), check2)
    assert np.array_equal(got, candidates[0])


def test_home_config_no_ik(tabletop_decomposition, check2):
    with pytest.raises(NoIkSolutionsError):
        home_config(tabletop_decomposition, TaskPoint((5.0, 0.0)), check2)


def test_home_config_near_first_map(tabletop_scenario, tabletop_decomposition):
    dec = tabletop_decomposition
    sc = tabletop_scenario
    m0 = dec.maps[0]
    node = m0.assigned_nodes()[len(m0.assignment) // 3]
    home = TaskPoint(dec.graphs[0].nodes[node].position)
    got = home_config(dec, home, Checker(sc.arm, sc.scene))
    eps = sc.decomposition.epsilon
    assert config_distance(got, m0.assignment[node]) <= eps + 0.25


# ----------------------------------------------------------------------- sequence

def test_sequence_empty(tabletop_scenario, tabletop_decomposition):
    sc = tabletop_scenario
    plan = sequence([], tabletop_decomposition, sc.home_task,
                    SequencingParams(), sc.arm, sc.scene)
    assert plan.legs == []
    assert plan.total_config_cost == 0.0
    assert plan.visit_order == []


def test_sequence_single_task(tabletop_scenario, tabletop_decomposition):
    sc = tabletop_scenario
    task = TaskPoint((-0.55, 0.85))
    plan = sequence([task], tabletop_decomposition, sc.home_task,
                    SequencingParams(), sc.arm, sc.scene)
    assert [leg.from_label for leg in plan.legs] == [HOME, 0]
    assert [leg.to_label for leg in plan.legs] == [0, HOME]
    assert plan.visit_order == [HOME, 0, HOME]


def test_sequence_endpoint_continuity_and_locality(single_box_scenario,
                                                   single_box_decomposition):
    sc = single_box_scenario
    plan = sequence(sc.tasks, single_box_decomposition, sc.home_task,
                    SequencingParams(sc.k, sc.threshold), sc.arm, sc.scene)
    assert plan.unplanned == []
    for a, b in zip(plan.legs, plan.legs[1:]):
        assert np.array_equal(a.trajectory.waypoints[-1], b.trajectory.waypoints[0])
    assert plan.visit_order[0] == HOME and plan.visit_order[-1] == HOME
    seen = sorted(v for v in plan.visit_order if v != HOME)
    assert seen == list(range(len(sc.tasks)))
    # within a group, interior waypoints come from that map's assignments
    for leg in plan.legs:
        if leg.trajectory.source == "subspace_seed":
            m = single_box_decomposition.maps[leg.map_index]
            values = list(m.assignment.values())
            for w in leg.trajectory.waypoints[1:-1]:
                assert any(config_distance(w, v) <= 1e-12 for v in values)


def test_sequence_groups_are_contiguous(single_box_scenario, single_box_decomposition):
    sc = single_box_scenario
    plan = sequence(sc.tasks, single_box_decomposition, sc.home_task,
                    SequencingParams(sc.k, sc.threshold), sc.arm, sc.scene)
    order_maps = [leg.map_index for leg in plan.legs]
    # map indices appear in sorted contiguous blocks
    blocks = [mi for mi, _ in itertools.groupby(order_maps)]
    assert blocks == sorted(set(order_maps))


def test_sequence_monotone_grouping(tabletop_scenario, tabletop_decomposition):
    sc = tabletop_scenario
    base_tasks = [TaskPoint((-0.55, 0.85)), TaskPoint((0.6, 0.85))]
    p = SequencingParams()
    plan_a = sequence(base_tasks, tabletop_decomposition, sc.home_task, p,
                      sc.arm, sc.scene)
    extra = TaskPoint((-0.75, 0.9))
    plan_b = sequence(base_tasks + [extra], tabletop_decomposition, sc.home_task,
                      p, sc.arm, sc.scene)

    def assignment(plan, n):
        for mi, members in plan.group_orders.items():
            if n in members:
                return mi
        return None

    for ti in range(len(base_tasks)):
        assert assignment(plan_a, ti) == assignment(plan_b, ti)


def test_sequence_unmatchable_task_reported(tabletop_scenario, tabletop_decomposition):
    sc = tabletop_scenario
    plan = sequence([TaskPoint((-0.55, 0.85)), TaskPoint((3.0, 3.0))],
                    tabletop_decomposition, sc.home_task, SequencingParams(),
                    sc.arm, sc.scene)
    assert plan.unplanned == [1]
    assert sorted(v for v in plan.visit_order if v != HOME) == [0]


# ---------------------------------------------------------------------- solve_tsp

def _brute_force_tour(W, anchor=0):
    n = len(W)
    rest = [i for i in range(n) if i != anchor]
    best, best_cost = None, math.inf
    for perm in itertools.permutations(rest):
        order = [anchor] + list(perm)
        c = closed_tour_cost(W, order)
        if c < best_cost:
            best, best_cost = order, c
    return best, best_cost


def test_tsp_trivial_sizes():
    assert solve_tsp(np.zeros((1, 1)), 0) == [0]
    W = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert solve_tsp(W, 0) == [0, 1]
    assert solve_tsp(W, 1) == [1, 0]


def test_tsp_exact_matches_brute_force():
    rng = np.random.default_rng(9)
    for n in (4, 5, 6, 7, 8):
        for _ in range(5):
            A = rng.uniform(0.1, 3.0, size=(n, n))
            W = (A + A.T) / 2
            np.fill_diagonal(W, 0.0)
            order = solve_tsp(W, 0)
            assert sorted(order) == list(range(n))
            _, best_cost = _brute_force_tour(W, 0)
            assert closed_tour_cost(W, order) == pytest.approx(best_cost, abs=1e-9)


@given(st.data())
def test_tsp_exact_matches_brute_force_on_integer_weights(data):
    # small integer weights make many tours tie; the exact solver must still
    # return an optimal tour from any anchor
    n = data.draw(st.integers(3, 8), label="n")
    pairs = n * (n - 1) // 2
    upper = data.draw(st.lists(st.integers(0, 3), min_size=pairs, max_size=pairs),
                      label="upper triangle")
    anchor = data.draw(st.integers(0, n - 1), label="anchor")
    W = np.zeros((n, n))
    W[np.triu_indices(n, 1)] = upper
    W += W.T
    order = solve_tsp(W, anchor)
    assert order[0] == anchor
    assert sorted(order) == list(range(n))
    assert closed_tour_cost(W, order) == _brute_force_tour(W, anchor)[1]


def test_tsp_tie_rule():
    # equal-cost tours: each step keeps the highest predecessor index, and of
    # equal-cost last nodes the lowest index wins
    W = np.ones((6, 6)) - np.eye(6)
    assert solve_tsp(W, 0) == [0, 2, 3, 4, 5, 1]
    assert solve_tsp(W, 3) == [3, 1, 2, 4, 5, 0]
    W = np.ones((13, 13)) - np.eye(13)
    assert solve_tsp(W, 0) == [0] + list(range(2, 13)) + [1]


def test_tsp_anchor_respected():
    rng = np.random.default_rng(2)
    A = rng.uniform(0.1, 3.0, size=(5, 5))
    W = (A + A.T) / 2
    np.fill_diagonal(W, 0.0)
    for anchor in range(5):
        order = solve_tsp(W, anchor)
        assert order[0] == anchor
        assert sorted(order) == list(range(5))


def test_tsp_heuristic_large_instance():
    rng = np.random.default_rng(4)
    n = 16
    A = rng.uniform(0.1, 3.0, size=(n, n))
    W = (A + A.T) / 2
    np.fill_diagonal(W, 0.0)
    order = solve_tsp(W, 0)
    assert sorted(order) == list(range(n))
    assert order[0] == 0
    # 2-opt never loses to its own starting tour
    from armseq.sequencer import _nearest_neighbor

    assert closed_tour_cost(W, order) <= closed_tour_cost(W, _nearest_neighbor(W, 0)) + 1e-12
    assert solve_tsp(W, 0) == order  # deterministic


def test_tsp_validation():
    with pytest.raises(ValueError):
        solve_tsp(np.ones((2, 3)), 0)
    with pytest.raises(ValueError):
        solve_tsp(np.array([[1.0]]), 0)
    with pytest.raises(ValueError):
        solve_tsp(np.zeros((2, 2)), 5)
