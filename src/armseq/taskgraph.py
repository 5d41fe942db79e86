"""Discretised task space: uniform point grids and ball-radius graphs.

Nodes are task points that retain at least one valid IK solution; edges join
nodes within a connection radius whose joining segment admits valid IK at a
discrete set of intermediate workspace points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from .kinematics import ArmModel, TaskPoint, ik_solutions_many, task_distance
from .world import Checker, Scene


class IslandWarning(UserWarning):
    """The task graph is disconnected; some node pairs have no path."""


def build_task_grid(region, spacing: float) -> list[TaskPoint]:
    """Row-major uniform lattice covering ``region`` = (xmin, ymin, xmax, ymax)."""
    xmin, ymin, xmax, ymax = (float(v) for v in region)
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    if xmax < xmin or ymax < ymin or (xmax == xmin and ymax == ymin):
        raise ValueError("region must be nondegenerate")
    nx = int(math.floor((xmax - xmin) / spacing + 1e-9))
    ny = int(math.floor((ymax - ymin) / spacing + 1e-9))
    return [
        TaskPoint((xmin + i * spacing, ymin + j * spacing))
        for j in range(ny + 1)
        for i in range(nx + 1)
    ]


@dataclass(eq=False)
class TaskGraph:
    """Undirected task graph with per-node IK candidate sets and cached d_T weights.

    ``ik_arrays[u]`` stacks node u's IK candidates into one (k, dof) array, and
    ``ik_sets[u]`` lists that array's rows; maps and plans keep those rows.
    """

    nodes: list[TaskPoint]
    ik_sets: list[list[np.ndarray]]
    edges: dict[tuple[int, int], float]
    connection_radius: float
    adjacency: list[list[tuple[int, float]]] = field(default_factory=list, repr=False)
    ik_arrays: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.ik_arrays = [np.array(sols, dtype=float) for sols in self.ik_sets]
        if any(a.ndim != 2 or not len(a) for a in self.ik_arrays):
            raise ValueError("every node needs a nonempty (k, dof) set of IK candidates")
        self.ik_sets = [list(a) for a in self.ik_arrays]
        adj: list[list[tuple[int, float]]] = [[] for _ in self.nodes]
        for (i, j), w in self.edges.items():
            adj[i].append((j, w))
            adj[j].append((i, w))
        for lst in adj:
            lst.sort()
        self.adjacency = adj

    def __len__(self) -> int:
        return len(self.nodes)

    def neighbors(self, i: int) -> list[tuple[int, float]]:
        return self.adjacency[i]

    def shortest_path(self, a: int, b: int, allowed, weight):
        """Dijkstra from ``a`` to ``b`` over the subgraph induced by ``allowed``.

        ``weight(u, v, d_t)`` prices the edge (u, v) whose task distance is
        d_t. Returns (path, length), or (None, inf) when ``b`` is unreachable.
        Heap ties pop the lower node, and a node keeps the first predecessor
        that reaches it at its final length.
        """
        dist = {a: 0.0}
        prev: dict[int, int] = {}
        queue = [(0.0, a)]
        while queue:
            d, u = heappop(queue)
            if d != dist[u]:
                continue  # stale heap entry
            if u == b:
                break
            for v, d_t in self.adjacency[u]:
                if v not in allowed:
                    continue
                nd = d + weight(u, v, d_t)
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    prev[v] = u
                    heappush(queue, (nd, v))
        if b not in dist:
            return None, math.inf
        path = [b]
        while path[-1] != a:
            path.append(prev[path[-1]])
        return path[::-1], dist[b]

    def component_count(self) -> int:
        seen = [False] * len(self.nodes)
        count = 0
        for start in range(len(self.nodes)):
            if seen[start]:
                continue
            count += 1
            stack = [start]
            seen[start] = True
            while stack:
                u = stack.pop()
                for v, _ in self.adjacency[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
        return count


def build_graph(points, radius: float, arm: ArmModel, scene: Scene,
                edge_check_count: int = 5) -> TaskGraph:
    """Build the task graph over ``points``.

    Points without a valid IK solution are dropped. An edge joins nodes i, j iff
    d_T(i, j) <= radius and a valid IK solution exists at ``edge_check_count``
    equally spaced workspace points along the straight segment between them.
    One :func:`ik_solutions_many` call answers every point and one every
    interior segment point. A disconnected result is reported with
    :class:`IslandWarning` (not fatal).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if edge_check_count < 2:
        raise ValueError("edge_check_count must be at least 2")
    check = Checker(arm, scene)
    sets = ik_solutions_many(check, [p.position for p in points])
    nodes = [p for p, sols in zip(points, sets) if sols]
    ik_sets = [sols for sols in sets if sols]
    pairs = [(i, j, task_distance(nodes[i], nodes[j]))
             for i in range(len(nodes)) for j in range(i + 1, len(nodes))]
    pairs = [(i, j, d) for i, j, d in pairs if d <= radius]
    steps = [k / (edge_check_count - 1) for k in range(1, edge_check_count - 1)]
    mids = []
    for i, j, _ in pairs:
        (xi, yi), (xj, yj) = nodes[i].position, nodes[j].position
        mids += [(xi + s * (xj - xi), yi + s * (yj - yi)) for s in steps]
    reach = ik_solutions_many(check, mids)
    per = len(steps)
    edges = {(i, j): d for e, (i, j, d) in enumerate(pairs)
             if all(reach[e * per:(e + 1) * per])}
    graph = TaskGraph(nodes, ik_sets, edges, float(radius))
    if len(graph) > 1 and graph.component_count() > 1:
        warnings.warn(IslandWarning("task graph has %d disconnected components"
                                    % graph.component_count()))
    return graph


def task_graphs(region, spacing: float, radius: float, arm: ArmModel, scene: Scene,
                edge_check_count: int = 5, base_poses=None) -> list[TaskGraph]:
    """The task graphs of a scenario over its grid (see :func:`build_task_grid`):
    one for a fixed base (``base_poses`` None), else one per base pose, with the
    arm moved there and the nodes carrying that pose's index."""
    points = build_task_grid(region, spacing)
    if base_poses is None:
        return [build_graph(points, radius, arm, scene, edge_check_count)]
    return [build_graph([TaskPoint(p.position, base_index=bi) for p in points], radius,
                        arm.at_base(bp), scene, edge_check_count)
            for bi, bp in enumerate(base_poses)]
