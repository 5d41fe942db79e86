import itertools
import math
import warnings

import numpy as np
import pytest

from armseq import (Box, Checker, IslandWarning, Scene, TaskPoint, build_graph,
                    build_task_grid, ik_solutions, task_distance)


def test_grid_3x3():
    pts = build_task_grid((0.0, 0.0, 1.0, 1.0), 0.5)
    assert len(pts) == 9
    assert pts[0].position == (0.0, 0.0)
    assert pts[-1].position == (1.0, 1.0)
    # row-major: x varies fastest
    assert pts[1].position == (0.5, 0.0)


def test_grid_collinear():
    pts = build_task_grid((0.0, 0.0, 1.0, 0.0), 0.25)
    assert len(pts) == 5
    assert all(p.position[1] == 0.0 for p in pts)


def test_grid_5x3():
    assert len(build_task_grid((0.0, 0.0, 2.0, 1.0), 0.5)) == 15


def test_grid_validation():
    with pytest.raises(ValueError):
        build_task_grid((0.0, 0.0, 1.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        build_task_grid((1.0, 1.0, 1.0, 1.0), 0.5)


@pytest.mark.filterwarnings("ignore::armseq.IslandWarning")
def test_two_nodes_edge_by_radius(arm2, empty_scene):
    near = [TaskPoint((0.5, 0.5)), TaskPoint((0.9, 0.5))]
    g = build_graph(near, 0.5, arm2, empty_scene)
    assert len(g.edges) == 1 and (0, 1) in g.edges
    assert g.edges[(0, 1)] == pytest.approx(0.4)
    far = [TaskPoint((0.5, 0.5)), TaskPoint((1.1, 0.5))]
    g = build_graph(far, 0.5, arm2, empty_scene)
    assert len(g.edges) == 0


def test_lattice_edges_match_pair_enumeration(arm2, empty_scene):
    pts = build_task_grid((0.4, 0.4, 1.4, 1.4), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = build_graph(pts, 0.55, arm2, empty_scene)
    assert len(g.nodes) == 9
    expected = {
        (i, j)
        for i, j in itertools.combinations(range(len(g.nodes)), 2)
        if task_distance(g.nodes[i], g.nodes[j]) <= 0.55
    }
    assert set(g.edges) == expected
    assert len(g.edges) == 12  # 4-connected 3x3 lattice


def test_unreachable_nodes_dropped(arm2, empty_scene):
    pts = [TaskPoint((0.5, 0.5)), TaskPoint((3.0, 0.0)), TaskPoint((0.9, 0.5))]
    g = build_graph(pts, 0.5, arm2, empty_scene)
    assert len(g.nodes) == 2
    assert all(len(s) >= 1 for s in g.ik_sets)


def test_edge_weights_and_symmetry(tabletop_graph):
    g = tabletop_graph
    for (i, j), w in g.edges.items():
        assert i < j
        assert w == pytest.approx(task_distance(g.nodes[i], g.nodes[j]))
        assert w <= g.connection_radius
        assert (j, w) in g.neighbors(i)
        assert (i, w) in g.neighbors(j)


def test_island_warning(arm2, empty_scene):
    pts = [TaskPoint((-0.6, 0.5)), TaskPoint((-0.5, 0.5)),
           TaskPoint((0.5, 0.5)), TaskPoint((0.6, 0.5))]
    with pytest.warns(IslandWarning):
        g = build_graph(pts, 0.15, arm2, empty_scene)
    assert g.component_count() == 2


def test_scene_relaxation_keeps_edges(arm2):
    pts = build_task_grid((-0.4, 0.5, 0.6, 1.1), 0.2)
    blocked = Scene((Box(0.05, 0.2, 0.4, 0.55),))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g_blocked = build_graph(pts, 0.22, arm2, blocked)
        g_free = build_graph(pts, 0.22, arm2, Scene())

    def edge_positions(g):
        return {tuple(sorted((g.nodes[i].position, g.nodes[j].position)))
                for i, j in g.edges}

    assert edge_positions(g_blocked) <= edge_positions(g_free)


@pytest.mark.filterwarnings("ignore::armseq.IslandWarning")
def test_mid_edge_ik_checked(empty_scene):
    # endpoints reachable but the straight segment dips inside the annulus hole
    from armseq import ArmModel

    arm = ArmModel(link_lengths=(1.0, 0.6), joint_limits=((-math.pi, math.pi),) * 2,
                   link_thickness=(0.03, 0.03))
    pts = [TaskPoint((-1.5, 0.0)), TaskPoint((1.5, 0.0))]
    g = build_graph(pts, 3.1, arm, empty_scene, edge_check_count=5)
    assert len(g.nodes) == 2
    assert len(g.edges) == 0
    assert ik_solutions(Checker(arm, empty_scene), TaskPoint((0.75, 0.0)))  # quarter point is fine
