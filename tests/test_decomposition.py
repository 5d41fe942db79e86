import math
import warnings

import numpy as np
import pytest

from armseq import (DecompositionParams, EmptyGraphError, build_map,
                    NoFeasibleRootError, NoProgressWarning, Scene, TaskGraph,
                    TaskPoint, config_distance, decompose,
                    decompose_mobile, generate_map, get_mapping, update,
                    verify_gha)
from armseq.decomposition import _Sweep
from armseq.serialize import map_to_dict


def make_graph(positions, ik_sets, edges, radius=1.0):
    """Synthetic graph; ik_sets entries are lists of plain float lists."""
    nodes = [TaskPoint(p) for p in positions]
    weights = {}
    for i, j in edges:
        i, j = min(i, j), max(i, j)
        weights[(i, j)] = math.dist(positions[i], positions[j])
    return TaskGraph(nodes, ik_sets, weights, radius)


def params(**kw):
    base = dict(epsilon=1.0, c_max=5.0, rho=0.0, rho_s=0.0, max_subspaces=5,
                root_sample_count=10, rng_seed=0)
    base.update(kw)
    return DecompositionParams(**base)


# ------------------------------------------------------------------ get_mapping

def test_get_mapping_empty_filter():
    g = make_graph([(0.0, 0.0), (0.1, 0.0)], [[[0.0]], [[0.5]]], [(0, 1)])
    # bound = eps + d_T = 0.35 + 0.1; candidate d_C = 0.5 >= 0.45 -> excluded
    assert get_mapping(1, np.array([0.0]), g.edges[(0, 1)], g, 0.35) is None


def test_get_mapping_argmin():
    g = make_graph([(0.0, 0.0), (0.1, 0.0)], [[[0.0]], [[0.2], [0.4]]], [(0, 1)])
    i, l = get_mapping(1, np.array([0.0]), g.edges[(0, 1)], g, 1.0)
    assert l == pytest.approx(0.2)
    assert i == 0 and g.ik_sets[1][i][0] == pytest.approx(0.2)
    # equidistant candidates: the first one wins
    g = make_graph([(0.0, 0.0), (0.1, 0.0)], [[[0.0]], [[-0.2], [0.2]]], [(0, 1)])
    i, l = get_mapping(1, np.array([0.0]), g.edges[(0, 1)], g, 1.0)
    assert i == 0 and l == 0.2


def test_get_mapping_matches_loop_reference():
    # candidates on a coarse lattice make equal distances common
    rng = np.random.default_rng(3)
    for _ in range(300):
        cands = (rng.integers(-4, 5, size=(int(rng.integers(1, 6)), 2)) * 0.25).tolist()
        q_t = rng.integers(-4, 5, size=2) * 0.25
        eps = float(rng.choice([0.2, 0.5, 1.0]))
        g = make_graph([(0.0, 0.0), (0.1, 0.0)], [[[0.0, 0.0]], cands], [(0, 1)])
        bound = eps + g.edges[(0, 1)]
        best = None
        for i, p in enumerate(g.ik_sets[1]):
            l = config_distance(q_t, p)
            if l < bound and (best is None or l < best[1]):
                best = (i, l)
        assert get_mapping(1, q_t, g.edges[(0, 1)], g, eps) == best


def test_get_mapping_threshold_arithmetic():
    g = make_graph([(0.0, 0.0), (0.1, 0.0)], [[[0.0]], [[0.449], [0.451]]], [(0, 1)])
    i, l = get_mapping(1, np.array([0.0]), g.edges[(0, 1)], g, 0.35)
    assert i == 0 and l == pytest.approx(0.449)  # 0.451 is filtered, 0.449 passes


# ----------------------------------------------------------------------- update

def sweep(g, node_pen=(0.0, 0.0), cand_pen=((0.0,), (0.0,))):
    """Two-node sweep state with node 0 assigned its candidate 0."""
    return _Sweep(list(g), [0, -1], [-1, -1], [], list(node_pen), [list(c) for c in cand_pen])


def test_update_no_change_when_not_better():
    s = sweep([0.0, 1.0])
    changed = update(s, 1, 0, 0, 1.5)
    assert not changed and s.g[1] == 1.0 and s.pick[1] == -1 and s.heap == []


def test_update_assigns_fresh_node():
    s = sweep([0.0, 5.0], cand_pen=((0.0,), (0.0, 0.0)))
    changed = update(s, 1, 0, 0, 0.7)
    assert changed and s.g[1] == pytest.approx(0.7)
    assert s.pick[1] == 0 and s.parent[1] == 0
    assert s.heap == [(pytest.approx(0.7), 1)]
    # a cheaper edge later lowers the cost but never replaces the first candidate
    assert update(s, 1, 0, 1, 0.5) and s.g[1] == 0.5 and s.pick[1] == 0


def test_update_exploration_penalty():
    g = make_graph([(0.0, 0.0), (0.1, 0.0)], [[[0.0]], [[0.3]]], [(0, 1)])
    J, _ = generate_map(g, 0, params(rho=2.0), omega=[5, 1])
    assert J == pytest.approx(2.3)  # l' = 0.3 + 2.0 * 1; the root's count is never charged
    s = sweep([0.0, 5.0], node_pen=(0.0, 2.0), cand_pen=((0.0,), (0.25,)))
    update(s, 1, 0, 0, 0.3)
    assert s.g[1] == ((0.3 + 2.0) + 0.25) + 0.0


def test_update_mean_proximity_penalty_from_iteration_one():
    g = make_graph([(0.0, 0.0), (0.1, 0.0)], [[[0.0]], [[0.5]]], [(0, 1)])
    J0, _ = generate_map(g, 0, params(rho_s=0.02), q_avg0=None)
    assert J0 == pytest.approx(0.5)  # no first map yet (iteration 0): no penalty
    J1, _ = generate_map(g, 0, params(rho_s=0.02), q_avg0=np.array([1.0]))
    assert J1 == pytest.approx(0.5 + 0.02 * 0.5)


# ----------------------------------------------------------------- generate_map

def test_single_node_map():
    g = make_graph([(0.0, 0.0)], [[[0.3, 0.4]]], [])
    J, m = generate_map(g, 0, params())
    assert J == 0.0
    assert m.root == 0 and set(m.assignment) == {0}
    assert m.tree_edges == set()


def test_two_node_hand_enumeration():
    g = make_graph([(0.0, 0.0), (0.1, 0.0)], [[[0.0]], [[0.05], [0.4]]], [(0, 1)],
                   radius=0.2)
    J, m = generate_map(g, 0, params(epsilon=0.2))
    # only 0.05 passes the filter (0.4 >= 0.2 + 0.1); J = d_C = 0.05
    assert J == pytest.approx(0.05)
    assert m.assignment[1][0] == pytest.approx(0.05)
    assert m.tree_edges == {(0, 1)}


def test_unreachable_node_contributes_c_max():
    g = make_graph([(0.0, 0.0), (0.1, 0.0)], [[[0.0]], [[3.0]]], [(0, 1)])
    J, m = generate_map(g, 0, params(epsilon=0.2, c_max=5.0))
    assert J == pytest.approx(5.0)
    assert 1 not in m.assignment


def test_root_candidate_argmin():
    g = make_graph([(0.0, 0.0), (0.1, 0.0)], [[[0.0], [1.0]], [[0.1], [1.05]]],
                   [(0, 1)], radius=0.2)
    J, m = generate_map(g, 0, params(epsilon=0.3))
    # root candidate 0.0 pairs with 0.1 (J = 0.1); candidate 1.0 with 1.05 (J = 0.05)
    assert J == pytest.approx(0.05)
    assert m.root_config[0] == pytest.approx(1.0)
    # minimum over per-candidate searches equals the returned J
    for k, q0 in enumerate(g.ik_sets[0]):
        g_k = make_graph([(0.0, 0.0), (0.1, 0.0)],
                         [[list(q0)], [[0.1], [1.05]]], [(0, 1)], radius=0.2)
        J_k, _ = generate_map(g_k, 0, params(epsilon=0.3))
        assert J <= J_k + 1e-12


def test_zeta_filters_all_roots():
    g = make_graph([(0.0, 0.0)], [[[0.0]]], [])
    with pytest.raises(NoFeasibleRootError):
        generate_map(g, 0, params(zeta=0.1), q_avg0=np.array([2.0]))


def test_assignment_stable_but_parent_edge_improves():
    # x assigns node a first (through an expensive root edge); y later relaxes
    # a's path cost without changing its configuration
    positions = [(0.0, 0.0), (0.1, 0.0), (0.1, 0.1), (0.2, 0.05)]
    r, x, y, a = 0, 1, 2, 3
    ik = [[[0.0]], [[0.1]], [[-0.12]], [[-0.15], [-0.5]]]
    edges = [(r, x), (r, y), (x, a), (y, a)]
    g = make_graph(positions, ik, edges, radius=0.3)
    J, m = generate_map(g, r, params(epsilon=1.0))
    assert m.assignment[a][0] == pytest.approx(-0.15)  # never re-picked
    assert (min(y, a), max(y, a)) in m.tree_edges      # parent swapped to y
    assert (min(x, a), max(x, a)) not in m.tree_edges


# -------------------------------------------------------------------- decompose

def test_decompose_empty_graph():
    g = make_graph([], [], [])
    with pytest.raises(EmptyGraphError):
        decompose(g, params())


def test_decompose_radius_exceeding_epsilon():
    g = make_graph([(0.0, 0.0)], [[[0.0]]], [], radius=2.0)
    with pytest.raises(ValueError):
        decompose(g, params(epsilon=1.0))


def test_decompose_single_node():
    g = make_graph([(0.0, 0.0)], [[[0.25]]], [], radius=0.5)
    dec = decompose(g, params())
    assert len(dec.maps) == 1
    assert dec.maps[0].objective == 0.0
    assert dec.coverage == 1.0


def test_decompose_no_progress_warning():
    # zeta rejects every root from iteration 1 on, leaving nodes uncovered
    g = make_graph([(0.0, 0.0), (0.5, 0.0)], [[[0.0]], [[5.0]]], [], radius=0.5)
    with pytest.warns(NoProgressWarning):
        dec = decompose(g, params(epsilon=0.6, zeta=0.5))
    assert dec.coverage == pytest.approx(0.5)


def test_tabletop_two_disjoint_maps(tabletop_scenario, tabletop_decomposition):
    dec = tabletop_decomposition
    eps = tabletop_scenario.decomposition.epsilon
    assert len(dec.maps) == 2
    assert dec.coverage == 1.0
    a, b = dec.maps
    min_cross = min(config_distance(qa, qb)
                    for qa in a.assignment.values() for qb in b.assignment.values())
    assert min_cross > eps
    # branch purity: opposite elbow signs
    signs_a = {np.sign(q[1]) for q in a.assignment.values()}
    signs_b = {np.sign(q[1]) for q in b.assignment.values()}
    assert len(signs_a) == 1 and len(signs_b) == 1 and signs_a != signs_b


def test_tabletop_maps_verify_clean(tabletop_scenario, tabletop_graph, tabletop_decomposition):
    eps = tabletop_scenario.decomposition.epsilon
    for m in tabletop_decomposition.maps:
        rep = verify_gha(m, tabletop_graph, eps, hop_samples=300, geodesic_samples=60)
        assert rep.clean()
        assert rep.edges_checked == len(m.tree_edges)


def test_tabletop_assignments_are_ik_members(tabletop_graph, tabletop_decomposition):
    for m in tabletop_decomposition.maps:
        for n, q in m.assignment.items():
            assert any(config_distance(q, cand) <= 1e-12
                       for cand in tabletop_graph.ik_sets[n])
    # tree edges satisfy the strict edge condition and exist in the graph
    for m in tabletop_decomposition.maps:
        for (i, j) in m.tree_edges:
            assert (i, j) in tabletop_graph.edges


def test_decompose_deterministic(tabletop_scenario, tabletop_graph, tabletop_decomposition):
    dec2 = decompose(tabletop_graph, tabletop_scenario.decomposition)
    assert len(dec2.maps) == len(tabletop_decomposition.maps)
    for m1, m2 in zip(tabletop_decomposition.maps, dec2.maps):
        assert map_to_dict(m1) == map_to_dict(m2)


def test_exploration_penalty_shrinks_overlap(tabletop_scenario, tabletop_graph):
    import dataclasses

    base = tabletop_scenario.decomposition
    overlaps = {}
    for rho in (0.0, 2.0):
        p = dataclasses.replace(base, rho=rho)
        dec = decompose(tabletop_graph, p)
        assert len(dec.maps) >= 2
        first = set(dec.maps[0].assignment)
        second = set(dec.maps[1].assignment)
        overlaps[rho] = len(first & second)
    assert overlaps[2.0] <= overlaps[0.0]


def test_epsilon_sweep_reaches_single_map(arm2, empty_scene):
    from armseq import build_graph, build_task_grid

    pts = build_task_grid((-0.4, 0.6, 0.4, 1.0), 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = build_graph(pts, 0.22, arm2, empty_scene)
    found = None
    for eps in (0.25, 0.5, 1.0, 2.0, 4.0):
        dec = decompose(g, params(epsilon=eps, rng_seed=3))
        if len(dec.maps) == 1 and dec.coverage == 1.0:
            found = eps
            break
    assert found is not None
    rep = verify_gha(dec.maps[0], g, found, hop_samples=200, geodesic_samples=40)
    assert rep.clean()


def test_build_map_derives_rows_from_picks():
    g = make_graph([(0.0, 0.0), (0.1, 0.0), (0.2, 0.0)],
                   [[[0.0]], [[0.2], [0.4]], [[1.0]]], [(0, 1)])
    m = build_map(g, [0, 1, -1], {(0, 1)}, 1, 0.5)
    assert sorted(m.assignment) == [0, 1]
    assert m.assignment[0] is g.ik_sets[0][0] and m.assignment[1] is g.ik_sets[1][1]
    assert m.root_config is g.ik_sets[1][1]
    assert np.array_equal(m.mean_config, [0.2])
    assert m.pick == [0, 1, -1] and m.objective == 0.5


# ------------------------------------------------------------------- verify_gha

def test_verify_flags_edge_violation():
    eps = 0.1
    g = make_graph([(0.0, 0.0), (0.1, 0.0)], [[[0.0]], [[0.3]]], [(0, 1)])
    bad = build_map(g, [0, 0], {(0, 1)}, 0, 0.3)
    rep = verify_gha(bad, g, eps)
    assert len(rep.edge_violations) == 1  # d_C - d_T = 0.2 = 2 * eps


def test_verify_hop_bound_allows_point9_slack():
    eps = 0.1
    # line graph, each edge d_T = 0.1 and d_C = d_T + 0.9 eps
    positions = [(0.1 * i, 0.0) for i in range(4)]
    step = 0.1 + 0.9 * eps
    cfg = [[i * step] for i in range(4)]
    g = make_graph(positions, [[c] for c in cfg], [(i, i + 1) for i in range(3)])
    m = build_map(g, [0] * 4, {(i, i + 1) for i in range(3)}, 0, 0.0)
    rep = verify_gha(m, g, eps, hop_samples=500, geodesic_samples=0)
    assert rep.hop_pairs_checked > 0
    assert rep.hop_bound_violations == []
    assert rep.edge_violations == []


def test_verify_flags_hop_violation():
    eps = 0.05
    positions = [(0.1 * i, 0.0) for i in range(3)]
    # per-edge distortion just under eps: two-hop deviation 0.098 < 2 eps, clean
    cfg = [[0.0], [0.1 + 0.049], [0.2 + 0.098]]
    g = make_graph(positions, [[c] for c in cfg], [(0, 1), (1, 2)])
    m = build_map(g, [0] * 3, {(0, 1), (1, 2)}, 0, 0.0)
    rep = verify_gha(m, g, eps, hop_samples=500, geodesic_samples=0)
    assert rep.hop_bound_violations == []
    # per-edge overshoot of 1.5 eps accumulates past the two-hop bound
    cfg_bad = [[0.0], [0.1 + 0.075], [0.2 + 0.15]]
    g_bad = make_graph(positions, [[c] for c in cfg_bad], [(0, 1), (1, 2)])
    m_bad = build_map(g_bad, [0] * 3, {(0, 1), (1, 2)}, 0, 0.0)
    rep = verify_gha(m_bad, g_bad, eps, hop_samples=500, geodesic_samples=0)
    assert len(rep.edge_violations) == 2
    assert len(rep.hop_bound_violations) > 0


def test_verify_geodesic_bound_on_line():
    eps = 0.1
    positions = [(0.1 * i, 0.0) for i in range(5)]
    cfg = [[0.105 * i] for i in range(5)]
    g = make_graph(positions, [[c] for c in cfg],
                   [(i, i + 1) for i in range(4)], radius=0.1)
    m = build_map(g, [0] * 5, {(i, i + 1) for i in range(4)}, 0, 0.0)
    rep = verify_gha(m, g, eps, hop_samples=10, geodesic_samples=100)
    assert rep.geodesics_checked > 0
    assert rep.geodesic_bound_violations == []


# ------------------------------------------------------------------- mobile base

def test_mobile_single_base_matches_static(arm2, empty_scene):
    region = (-0.4, 0.6, 0.4, 1.0)
    p = params(epsilon=0.5, rng_seed=4)
    from armseq import build_graph, build_task_grid

    pts = build_task_grid(region, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = build_graph(pts, 0.22, arm2, empty_scene)
        static = decompose(g, p)
        mobile = decompose_mobile(region, 0.2, 0.22, [arm2.base_position], arm2,
                                  empty_scene, p)
    assert len(mobile.maps) == len(static.maps)
    assert mobile.coverage == static.coverage
    for ms, mm in zip(static.maps, mobile.maps):
        assert ms.objective == pytest.approx(mm.objective)
        assert set(ms.assignment) == set(mm.assignment)
        assert mm.base_pose == arm2.base_position


def test_mobile_reach_split(arm2, empty_scene):
    # bases far apart; each side of the strip is reachable from one base only
    region = (-2.6, 0.5, 2.6, 0.7)
    bases = [(-1.4, 0.0), (1.4, 0.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dec = decompose_mobile(region, 0.2, 0.22, bases, arm2, empty_scene,
                               params(epsilon=0.5, rng_seed=2))
    assert dec.coverage == 1.0
    assert {m.base_index for m in dec.maps} == {0, 1}
    for m in dec.maps:
        g = dec.graph_for(m)
        for n in m.assignment:
            x = g.nodes[n].position[0]
            if m.base_index == 0:
                assert x <= bases[0][0] + 2.0 + 1e-9
            else:
                assert x >= bases[1][0] - 2.0 - 1e-9
    right_owner = {m.base_index for m in dec.maps
                   for n in m.assignment if dec.graph_for(m).nodes[n].position[0] > 0.7}
    assert right_owner == {1}


def test_mobile_bases_exhausted_partial_coverage(tabletop_scenario):
    # the two-subspace scene needs two maps; a single base pose runs out first
    sc = tabletop_scenario
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dec = decompose_mobile(sc.grid_region, sc.grid_spacing, sc.connection_radius,
                               [sc.arm.base_position], sc.arm, sc.scene,
                               sc.decomposition)
    assert len(dec.maps) == 1
    assert dec.coverage < 1.0


def test_three_dof_pipeline(arm3, empty_scene):
    # the redundant arm sweeps its first joint; the pipeline is otherwise identical
    from armseq import build_graph, build_task_grid

    pts = build_task_grid((0.5, 0.2, 0.9, 0.4), 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = build_graph(pts, 0.22, arm3, empty_scene)
    assert len(g) == len(pts)
    assert all(len(s) > 10 for s in g.ik_sets)
    dec = decompose(g, params(epsilon=0.4, rng_seed=5))
    assert dec.coverage == 1.0
    for m in dec.maps:
        assert verify_gha(m, g, 0.4, hop_samples=100, geodesic_samples=20).clean()
        for q in m.assignment.values():
            assert len(q) == 3
