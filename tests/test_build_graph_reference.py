"""The task graph build against a frozen per-target reference.

The reference below asks for the IK set of one target at a time, grid points
and interior segment points alike, and stops checking an edge at its first
unreachable segment point. :func:`task_graphs` must give the same nodes, the
same IK candidate rows bit for bit, in the same order, and the same weighted
edges on every shipped scenario, for every base pose.
"""

import math
import warnings

import numpy as np
import pytest

from armseq import Checker, TaskPoint, config_distance, forward_kinematics, task_distance
from armseq.kinematics import IK_DEDUP_TOLERANCE, TIP_TOLERANCE, TWO_PI
from armseq.taskgraph import build_task_grid, task_graphs

SCENARIOS = ["rail_mobile", "tabletop", "tabletop_3link", "tabletop_single_box"]


def _branches(l1, l2, dx, dy):
    c2 = (dx * dx + dy * dy - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    if c2 > 1.0 + 1e-12 or c2 < -1.0 - 1e-12:
        return []
    c2 = min(1.0, max(-1.0, c2))
    heading = math.atan2(dy, dx)
    out = []
    for sign in (1.0, -1.0):
        t2 = sign * math.acos(c2)
        out.append((heading - math.atan2(l2 * math.sin(t2), l1 + l2 * math.cos(t2)), t2))
    return out


def _shifted(angle, lo, hi):
    out = []
    a = angle + TWO_PI * math.ceil((lo - angle) / TWO_PI)
    while a <= hi:
        if a >= lo:
            out.append(a)
        a += TWO_PI
    return out


def _ref_candidates(arm, target):
    dx, dy = float(target[0]) - arm.base_position[0], float(target[1]) - arm.base_position[1]
    cands = []
    if arm.dof == 2:
        l1, l2 = arm.link_lengths
        for t1, t2 in _branches(l1, l2, dx, dy):
            for a1 in _shifted(t1, *arm.joint_limits[0]):
                for a2 in _shifted(t2, *arm.joint_limits[1]):
                    cands.append(np.array([a1, a2]))
        return cands
    l1, l2, l3 = arm.link_lengths
    lo, hi = arm.joint_limits[0]
    res = arm.free_joint_resolution
    for i in range(int(math.floor((hi - lo) / res + 1e-9)) + 1):
        q1 = lo + i * res
        ox, oy = l1 * math.cos(q1), l1 * math.sin(q1)
        for a2_abs, t3 in _branches(l2, l3, dx - ox, dy - oy):
            for q2 in _shifted(a2_abs - q1, *arm.joint_limits[1]):
                for q3 in _shifted(t3, *arm.joint_limits[2]):
                    cands.append(np.array([q1, q2, q3]))
    return cands


def _ref_ik(check, task):
    target = np.asarray(task.position, dtype=float)
    reach = [q for q in _ref_candidates(check.arm, target)
             if math.hypot(*(forward_kinematics(check.arm, q)[0] - target)) <= TIP_TOLERANCE]
    kept = [q for q, ok in zip(reach, check.valid_many(reach)) if ok]
    kept.sort(key=tuple)
    out = []
    for q in kept:
        if all(config_distance(q, p) > IK_DEDUP_TOLERANCE for p in out):
            out.append(q)
    return out


def _ref_build(points, radius, arm, scene, edge_check_count):
    check = Checker(arm, scene)
    nodes, ik_sets = [], []
    for p in points:
        sols = _ref_ik(check, p)
        if sols:
            nodes.append(p)
            ik_sets.append(sols)
    edges = {}
    for i in range(len(nodes)):
        xi, yi = nodes[i].position
        for j in range(i + 1, len(nodes)):
            d = task_distance(nodes[i], nodes[j])
            if d > radius:
                continue
            xj, yj = nodes[j].position
            feasible = True
            for k in range(1, edge_check_count - 1):
                s = k / (edge_check_count - 1)
                mid = TaskPoint((xi + s * (xj - xi), yi + s * (yj - yi)),
                                base_index=nodes[i].base_index)
                if not _ref_ik(check, mid):
                    feasible = False
                    break
            if feasible:
                edges[(i, j)] = d
    return nodes, ik_sets, edges


@pytest.mark.parametrize("name", SCENARIOS)
def test_task_graphs_match_per_target_reference(name, scenario_json):
    from armseq.serialize import Scenario

    sc = Scenario(scenario_json(name))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        graphs = task_graphs(sc.grid_region, sc.grid_spacing, sc.connection_radius, sc.arm,
                             sc.scene, sc.edge_check_count, sc.base_poses)
    grid = build_task_grid(sc.grid_region, sc.grid_spacing)
    bases = sc.base_poses or [None]
    assert len(graphs) == len(bases)
    for bi, (graph, base) in enumerate(zip(graphs, bases)):
        points = grid if base is None else [TaskPoint(p.position, base_index=bi) for p in grid]
        nodes, ik_sets, edges = _ref_build(points, sc.connection_radius, sc.arm.at_base(base),
                                           sc.scene, sc.edge_check_count)
        assert graph.nodes == nodes
        assert [[q.tobytes() for q in rows] for rows in graph.ik_sets] == \
            [[q.tobytes() for q in rows] for rows in ik_sets]
        assert list(graph.edges.items()) == list(edges.items())
