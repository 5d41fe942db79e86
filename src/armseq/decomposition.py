"""Offline subspace decomposition of the task graph.

The engine searches for a small set of approximate isometries ("maps"), each a
partial assignment of one IK solution per graph node such that assigned edges
distort distance by less than epsilon between task space (d_T) and
configuration space (d_C). Each map is grown by a modified Dijkstra search
from a sampled root node. One loop, :func:`_cover`, repeats that search with
an exploration penalty until the graph is covered; it runs over a list of
candidate graphs, each with a budget of maps. :func:`decompose` gives it one
graph, :func:`decompose_mobile` one graph per base pose with one map each.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from .kinematics import config_distance, task_distance
from .taskgraph import TaskGraph, task_graphs


class EmptyGraphError(ValueError):
    """Decomposition was asked to cover a graph with no nodes."""


class NoFeasibleRootError(RuntimeError):
    """Every root IK candidate was rejected by the root-proximity threshold."""


class NoProgressWarning(UserWarning):
    """An iteration assigned no new nodes; coverage stays below 1."""


@dataclass(eq=False)
class DecompositionParams:
    """Tuning knobs for the decomposition search.

    ``epsilon`` is the distortion bound (L-infinity sense), ``c_max`` the
    non-infinite initial path cost, ``rho`` the revisit (exploration) penalty
    weight, ``rho_s`` the weight pulling later maps toward the first map's mean
    configuration, and ``zeta`` an optional cap on the root configuration's
    distance to that mean.
    """

    epsilon: float = 0.35
    c_max: float = 5.0
    rho: float = 2.0
    rho_s: float = 0.02
    zeta: float | None = None
    max_subspaces: int = 5
    root_sample_count: int = 10
    rng_seed: int = 0

    def __post_init__(self):
        if self.epsilon <= 0 or self.c_max <= 0:
            raise ValueError("epsilon and c_max must be positive")
        if self.rho < 0 or self.rho_s < 0:
            raise ValueError("penalty weights must be nonnegative")
        if self.max_subspaces < 1 or self.root_sample_count < 1:
            raise ValueError("max_subspaces and root_sample_count must be >= 1")


@dataclass(eq=False)
class GhaMap:
    """One approximate-isometry map: a partial node -> configuration assignment.

    ``pick[u]`` is the index of node u's configuration in its graph's
    ``ik_sets[u]`` (-1 when unassigned), and everything else about the
    assignment follows from it (see :func:`build_map`). ``tree_edges`` are the
    parent edges accepted during the search; every such edge satisfies
    |d_C - d_T| < epsilon.
    """

    assignment: dict[int, np.ndarray]
    tree_edges: set[tuple[int, int]]
    root: int
    root_config: np.ndarray
    mean_config: np.ndarray
    objective: float
    pick: list[int]
    base_pose: tuple[float, float] | None = None
    base_index: int | None = None

    def assigned_nodes(self) -> list[int]:
        return sorted(self.assignment)


def build_map(graph: TaskGraph, pick: list[int], tree_edges, root: int,
              objective: float) -> GhaMap:
    """The map giving node u the row ``graph.ik_sets[u][pick[u]]`` (none when -1).

    Rows are the graph's own objects, ``root_config`` is the root's row and
    ``mean_config`` the mean of the rows in ascending node order.
    """
    theta = {u: graph.ik_sets[u][i] for u, i in enumerate(pick) if i >= 0}
    mean = np.array(list(theta.values())).mean(axis=0)
    return GhaMap(theta, tree_edges, root, theta[root], mean, objective, pick)


@dataclass(eq=False)
class Decomposition:
    """Ordered maps (discovery order) plus the graphs they were built on: one
    graph for a fixed base, or one per pose in ``base_poses`` for a mobile one."""

    maps: list[GhaMap]
    graphs: list[TaskGraph]
    params: DecompositionParams
    coverage: float
    base_poses: list[tuple[float, float]] | None = None

    def graph_for(self, m: GhaMap) -> TaskGraph:
        return self.graphs[m.base_index or 0]


def get_mapping(u: int, q_t, d_t: float, graph: TaskGraph, epsilon: float):
    """Index in ``graph.ik_sets[u]`` of u's IK candidate nearest to ``q_t``, and that d_C.

    Only candidates with d_C < epsilon + ``d_t`` (the edge's d_T) count; None
    when none does. Ties keep the earlier candidate.
    """
    dist = np.abs(graph.ik_arrays[u] - q_t).max(axis=1)
    i = int(dist.argmin())
    if not dist[i] < epsilon + d_t:
        return None
    return i, float(dist[i])


@dataclass(eq=False, slots=True)
class _Sweep:
    """One sweep's state: path costs ``g``, each node's candidate index ``pick``
    (-1 while unassigned), tree ``parent`` (-1 for none), the (cost, node)
    ``heap``, and the map's penalty prices (see :func:`generate_map`)."""

    g: list[float]
    pick: list[int]
    parent: list[int]
    heap: list[tuple[float, int]]
    node_pen: list[float]
    cand_pen: list[list[float]]


def update(s: _Sweep, u: int, t: int, i: int, l: float) -> bool:
    """Relax the edge (t, u) with u's candidate ``i`` at d_C ``l``; True when g[u] fell.

    Penalties enter path costs only (the edge was already screened against
    the raw epsilon condition), and a node keeps its first candidate.
    """
    # artifacts depend on path costs bit for bit, so this summation order is fixed
    cand = ((l + s.node_pen[u]) + s.cand_pen[u][i]) + s.g[t]
    if cand < s.g[u]:
        if s.pick[u] < 0:
            s.pick[u] = i
        s.parent[u] = t
        s.g[u] = cand
        heappush(s.heap, (cand, u))
        return True
    return False


def _search_from_root(graph: TaskGraph, root: int, k: int, params: DecompositionParams,
                      node_pen: list[float], cand_pen: list[list[float]]):
    """One Dijkstra-style sweep from the root's candidate ``k``; returns (J, sweep)."""
    n = len(graph)
    s = _Sweep([float(params.c_max)] * n, [-1] * n, [-1] * n, [(0.0, root)],
               node_pen, cand_pen)
    g, pick, heap, rows = s.g, s.pick, s.heap, graph.ik_sets
    g[root] = 0.0
    pick[root] = k
    while heap:
        gt, t = heappop(heap)
        if gt != g[t]:
            continue  # stale heap entry
        q_t = rows[t][pick[t]]
        for u, d_t in graph.neighbors(t):
            i = pick[u]
            if i >= 0:
                l = float(np.abs(q_t - rows[u][i]).max())
                # edge may only join the map if it meets the raw epsilon condition
                if abs(l - d_t) >= params.epsilon:
                    continue
            else:
                got = get_mapping(u, q_t, d_t, graph, params.epsilon)
                if got is None:
                    continue
                i, l = got
            update(s, u, t, i, l)
    return float(np.sum(g) - g[root]), s


def generate_map(graph: TaskGraph, root: int, params: DecompositionParams,
                 omega: Sequence[int] | None = None, q_avg0=None) -> tuple[float, GhaMap]:
    """Best map rooted at ``root``: minimum objective over the root's IK candidates.

    Penalties are priced once per call, and one that is off costs 0.0. Node
    u costs rho * omega[u] on every edge into it, ``omega`` counting the
    accepted maps that assigned it. Once a first map exists (``q_avg0`` is its
    mean configuration), candidate p costs rho_s * d_C(p, q_avg0), and root
    candidates at d_C ``zeta`` or more from q_avg0 are skipped. The objective J
    sums the final path costs of non-root nodes (``c_max`` if unassigned).
    Ties keep the earlier root candidate.
    """
    node_pen = [0.0] * len(graph) if omega is None else [params.rho * w for w in omega]
    if q_avg0 is None:
        cand_pen = [[0.0] * len(rows) for rows in graph.ik_sets]
    else:
        d_avg = [np.abs(a - q_avg0).max(axis=1) for a in graph.ik_arrays]
        cand_pen = [(params.rho_s * d).tolist() for d in d_avg]
    best = None
    for k in range(len(graph.ik_sets[root])):
        if q_avg0 is not None and params.zeta is not None and d_avg[root][k] >= params.zeta:
            continue
        J, s = _search_from_root(graph, root, k, params, node_pen, cand_pen)
        if best is None or J < best[0]:
            best = (J, s)
    if best is None:
        raise NoFeasibleRootError("all %d root candidates rejected by zeta"
                                  % len(graph.ik_sets[root]))
    J, s = best
    tree = {(min(u, p), max(u, p)) for u, p in enumerate(s.parent) if p >= 0}
    return J, build_map(graph, s.pick, tree, root, J)


def _cover(graphs: list[TaskGraph], params: DecompositionParams,
           budget: list[int]) -> tuple[list[tuple[int, GhaMap]], float]:
    """The map search: sample roots, keep the best map, repeat.

    Coverage and visit counts are kept per task position, across all graphs.
    Each iteration samples ``root_sample_count`` roots uniformly (seeded) from
    the open nodes of every graph whose ``budget`` (maps it may still give)
    is positive, in graph order, and keeps the map of minimal objective over
    all of them (ties keep the earlier one). Its positions leave the open set
    and their visit counts grow by one. Stops when the open set empties, the
    budgets or ``max_subspaces`` run out, or an iteration assigns nothing new
    (reported as :class:`NoProgressWarning`). Returns the (graph index, map)
    pairs in discovery order and the covered share of positions.
    """
    budget = list(budget)
    visits = {p.position: 0 for g in graphs for p in g.nodes}
    open_pos = set(visits)
    rng = np.random.default_rng(params.rng_seed)
    found: list[tuple[int, GhaMap]] = []
    q_avg0 = None
    while open_pos and any(budget) and len(found) < params.max_subspaces:
        best = None
        for gi, g in enumerate(graphs):
            if budget[gi] < 1:
                continue
            open_nodes = [i for i, p in enumerate(g.nodes) if p.position in open_pos]
            if not open_nodes:
                continue
            k = min(params.root_sample_count, len(open_nodes))
            picks = rng.choice(len(open_nodes), size=k, replace=False)
            omega = [visits[p.position] for p in g.nodes]
            for pick in picks:
                try:
                    J, m = generate_map(g, open_nodes[int(pick)], params, omega, q_avg0)
                except NoFeasibleRootError:
                    continue
                if best is None or J < best[0]:
                    best = (J, gi, m)
        positions = set()
        if best is not None:
            _, gi, m = best
            positions = {graphs[gi].nodes[i].position for i in m.assignment}
        if not positions & open_pos:
            warnings.warn(NoProgressWarning(
                "iteration %d assigned no new nodes; stopping at coverage %.3f"
                % (len(found), 1.0 - len(open_pos) / len(visits))))
            break
        open_pos -= positions
        for p in positions:
            visits[p] += 1
        budget[gi] -= 1
        found.append((gi, m))
        if q_avg0 is None:
            q_avg0 = m.mean_config
    return found, (len(visits) - len(open_pos)) / len(visits)


def decompose(graph: TaskGraph, params: DecompositionParams) -> Decomposition:
    """Cover one task graph with up to ``max_subspaces`` maps (see :func:`_cover`)."""
    if len(graph) == 0:
        raise EmptyGraphError("cannot decompose an empty task graph")
    if graph.connection_radius > params.epsilon:
        raise ValueError(
            "connection radius %.6g exceeds epsilon %.6g; the one-sided edge filter "
            "would not bound distortion both ways" % (graph.connection_radius, params.epsilon))
    found, coverage = _cover([graph], params, [params.max_subspaces])
    return Decomposition([m for _, m in found], [graph], params, coverage)


def decompose_mobile(grid_region, spacing: float, connection_radius: float,
                     base_poses, arm, scene, params: DecompositionParams,
                     edge_check_count: int = 5) -> Decomposition:
    """Mobile-base decomposition: one task graph per base pose, one map per base.

    Runs the map search of :func:`_cover` over all base poses at once: each
    iteration samples roots on every base pose that has no map yet, and the
    globally best map claims its base pose.
    """
    base_poses = [(float(b[0]), float(b[1])) for b in base_poses]
    if not base_poses:
        raise ValueError("base_poses must be nonempty")
    if connection_radius > params.epsilon:
        raise ValueError("connection radius %.6g exceeds epsilon %.6g"
                         % (connection_radius, params.epsilon))
    graphs = task_graphs(grid_region, spacing, connection_radius, arm, scene,
                         edge_check_count, base_poses)
    if not any(g.nodes for g in graphs):
        raise EmptyGraphError("no grid point is reachable from any base pose")
    found, coverage = _cover(graphs, params, [1] * len(graphs))
    for bi, m in found:
        m.base_pose = base_poses[bi]
        m.base_index = bi
    return Decomposition([m for _, m in found], graphs, params, coverage, base_poses)


@dataclass(eq=False)
class GhaVerification:
    """Distortion audit of one map against its graph."""

    edge_violations: list = field(default_factory=list)
    hop_bound_violations: list = field(default_factory=list)
    geodesic_bound_violations: list = field(default_factory=list)
    edges_checked: int = 0
    hop_pairs_checked: int = 0
    geodesics_checked: int = 0

    def clean(self) -> bool:
        return not (self.edge_violations or self.hop_bound_violations
                    or self.geodesic_bound_violations)


def _tree_paths(m: GhaMap):
    """Rooted parent/depth structure over the map's tree edges."""
    adj: dict[int, list[int]] = {u: [] for u in m.assignment}
    for a, b in m.tree_edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = {m.root: None}
    depth = {m.root: 0}
    stack = [m.root]
    while stack:
        u = stack.pop()
        for v in sorted(adj[u]):
            if v not in parent:
                parent[v] = u
                depth[v] = depth[u] + 1
                stack.append(v)
    return parent, depth


def _tree_path_between(a: int, b: int, parent, depth) -> list[int] | None:
    if a not in depth or b not in depth:
        return None
    pa, pb = [a], [b]
    x, y = a, b
    while depth[x] > depth[y]:
        x = parent[x]
        pa.append(x)
    while depth[y] > depth[x]:
        y = parent[y]
        pb.append(y)
    while x != y:
        x = parent[x]
        y = parent[y]
        pa.append(x)
        pb.append(y)
    return pa + pb[-2::-1]


def verify_gha(m: GhaMap, graph: TaskGraph, epsilon: float,
               hop_samples: int = 1000, geodesic_samples: int = 200,
               seed: int = 0) -> GhaVerification:
    """Audit a map: per-edge, chained-hop and geodesic distortion bounds.

    Checks (a) |d_C - d_T| < epsilon on every tree edge; (b) for sampled node
    pairs joined by an N-hop tree path, |d_C of the endpoint images - the
    path-summed d_T| < N * epsilon; (c) for sampled graph geodesics of N
    segments, the endpoint image distance differs from the summed image
    segment lengths by at most (N + 1) * epsilon.

    The search in this module screens the edges it accepts into the tree, so
    (a) holds for every map it produces. (b) is not implied: the triangle
    inequality gives its upper side from (a), but nothing bounds d_C of the
    endpoints from below. (c) is not implied either: geodesics may run over
    graph edges outside the tree, whose d_C the search never bounds, and
    searched maps of 3-link task graphs have been seen to fail it.
    """
    report = GhaVerification()
    theta = m.assignment
    for a, b in sorted(m.tree_edges):
        d_c = config_distance(theta[a], theta[b])
        d_t = graph.edges[(a, b)]
        report.edges_checked += 1
        if abs(d_c - d_t) >= epsilon:
            report.edge_violations.append((a, b, d_c, d_t))
    nodes = m.assigned_nodes()
    if len(nodes) < 2:
        return report
    rng = np.random.default_rng(seed)
    parent, depth = _tree_paths(m)
    for _ in range(hop_samples):
        a, b = (nodes[int(i)] for i in rng.choice(len(nodes), size=2, replace=False))
        path = _tree_path_between(a, b, parent, depth)
        if path is None or len(path) < 2:
            continue
        hops = len(path) - 1
        d_t_sum = sum(graph.edges[(min(x, y), max(x, y))] for x, y in zip(path, path[1:]))
        d_c = config_distance(theta[a], theta[b])
        report.hop_pairs_checked += 1
        if abs(d_c - d_t_sum) >= hops * epsilon:
            report.hop_bound_violations.append((a, b, hops, d_c, d_t_sum))
    # geodesics: shortest d_T paths in the assigned subgraph whose length
    # equals the direct endpoint distance
    assigned = set(nodes)
    attempts = 0
    while report.geodesics_checked < geodesic_samples and attempts < geodesic_samples * 20:
        attempts += 1
        a, b = (nodes[int(i)] for i in rng.choice(len(nodes), size=2, replace=False))
        path, total = graph.shortest_path(a, b, assigned, lambda u, v, d_t: d_t)
        if path is None or len(path) < 2:
            continue
        direct = task_distance(graph.nodes[a], graph.nodes[b])
        if abs(total - direct) > 1e-9:
            continue
        segs = len(path) - 1
        image_sum = sum(config_distance(theta[x], theta[y]) for x, y in zip(path, path[1:]))
        d_c = config_distance(theta[a], theta[b])
        report.geodesics_checked += 1
        if abs(d_c - image_sum) > (segs + 1) * epsilon:
            report.geodesic_bound_violations.append((a, b, segs, d_c, image_sum))
    return report

