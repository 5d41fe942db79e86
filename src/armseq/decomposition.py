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
from .taskgraph import TaskGraph


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

    ``tree_edges`` are the parent edges accepted during the search; every such
    edge satisfies |d_C - d_T| < epsilon. ``mean_config`` is the component-wise
    mean of the assigned configurations.
    """

    assignment: dict[int, np.ndarray]
    tree_edges: set[tuple[int, int]]
    root: int
    root_config: np.ndarray
    mean_config: np.ndarray
    objective: float
    base_pose: tuple[float, float] | None = None
    base_index: int | None = None

    def assigned_nodes(self) -> list[int]:
        return sorted(self.assignment)


@dataclass(eq=False)
class Decomposition:
    """Ordered maps (discovery order) plus the graph(s) they were built on."""

    maps: list[GhaMap]
    graph: TaskGraph | None
    params: DecompositionParams
    coverage: float
    base_graphs: list[TaskGraph] | None = None
    base_poses: list[tuple[float, float]] | None = None

    def graph_for(self, m: GhaMap) -> TaskGraph:
        if m.base_index is None:
            return self.graph
        return self.base_graphs[m.base_index]


def get_mapping(u: int, q_t, t: int, graph: TaskGraph, params: DecompositionParams):
    """Candidate assignment for an unassigned neighbour ``u`` expanded from ``t``.

    Among IK solutions p of ``u`` with d_C(q_t, p) < epsilon + d_T(u, t),
    returns the one minimising d_C(q_t, p) together with that edge cost, or
    None when the filtered set is empty (ties keep the earlier candidate).
    """
    d_t = graph.edges[(min(u, t), max(u, t))]
    dist = np.abs(graph.ik_arrays[u] - q_t).max(axis=1)
    i = int(dist.argmin())
    if not dist[i] < params.epsilon + d_t:
        return None
    return graph.ik_sets[u][i], float(dist[i])


def update(queue, g, theta, parent, u: int, t: int, q_u, l: float,
           params: DecompositionParams, omega: Sequence[int] | None = None,
           q_avg0=None) -> bool:
    """Relax the edge (u, t): assign/keep q_u and improve u's path cost.

    The effective cost adds the revisit penalty rho * omega[u], where
    ``omega`` counts per node how many accepted maps assigned it (charged on
    the target u only, so expanding the root is never penalized), and, once a
    first map exists (``q_avg0`` is its mean configuration), the
    mean-proximity penalty rho_s * d_C(q_u, q_avg0). Penalties enter path
    costs only; the edge itself was already screened against the raw epsilon
    condition. Returns True when state changed. Assignments made earlier in
    the same search are never overwritten.
    """
    eff = l
    if omega is not None and params.rho:
        eff += params.rho * omega[u]
    if q_avg0 is not None and params.rho_s:
        eff += params.rho_s * config_distance(q_u, q_avg0)
    cand = eff + g[t]
    if cand < g[u]:
        if u not in theta:
            theta[u] = q_u
        parent[u] = t
        g[u] = cand
        heappush(queue, (cand, u))
        return True
    return False


def _search_from_root(graph: TaskGraph, root: int, q0, params: DecompositionParams,
                      omega: Sequence[int] | None, q_avg0):
    """One Dijkstra-style sweep from (root, q0); returns (J, theta, parent, g)."""
    n = len(graph)
    g = np.full(n, params.c_max, dtype=float)
    g[root] = 0.0
    theta: dict[int, np.ndarray] = {root: q0}
    parent: dict[int, int] = {}
    queue: list[tuple[float, int]] = [(0.0, root)]
    eps = params.epsilon
    while queue:
        gt, t = heappop(queue)
        if gt != g[t]:
            continue  # stale heap entry
        q_t = theta[t]
        for u, d_t in graph.neighbors(t):
            if u in theta:
                q_u = theta[u]
                l = config_distance(q_t, q_u)
                # edge may only join the map if it meets the raw epsilon condition
                if abs(l - d_t) >= eps:
                    continue
            else:
                got = get_mapping(u, q_t, t, graph, params)
                if got is None:
                    continue
                q_u, l = got
            update(queue, g, theta, parent, u, t, q_u, l, params, omega, q_avg0)
    J = float(g.sum() - g[root])
    return J, theta, parent, g


def _mean_config(theta: dict[int, np.ndarray]) -> np.ndarray:
    stacked = np.array([theta[i] for i in sorted(theta)], dtype=float)
    return stacked.mean(axis=0)


def generate_map(graph: TaskGraph, root: int, params: DecompositionParams,
                 omega: Sequence[int] | None = None, q_avg0=None) -> tuple[float, GhaMap]:
    """Best map rooted at ``root``: minimum objective over the root's IK candidates.

    The objective J is the sum over non-root nodes of their final path cost;
    nodes left unassigned contribute ``c_max``. When ``q_avg0`` is given,
    root candidates at distance ``zeta`` or more from it are skipped.
    Ties keep the earlier candidate.
    """
    candidates = graph.ik_sets[root]
    best = None
    for q0 in candidates:
        if (q_avg0 is not None and params.zeta is not None
                and config_distance(q0, q_avg0) >= params.zeta):
            continue
        J, theta, parent, _ = _search_from_root(graph, root, q0, params, omega, q_avg0)
        if best is None or J < best[0]:
            best = (J, theta, parent, q0)
    if best is None:
        raise NoFeasibleRootError("all %d root candidates rejected by zeta" % len(candidates))
    J, theta, parent, q0 = best
    tree = {(min(u, p), max(u, p)) for u, p in parent.items()}
    m = GhaMap(
        assignment=theta,
        tree_edges=tree,
        root=root,
        root_config=q0,
        mean_config=_mean_config(theta),
        objective=J,
    )
    return J, m


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
    return Decomposition([m for _, m in found], graph, params, coverage=coverage)


def decompose_mobile(grid_region, spacing: float, connection_radius: float,
                     base_poses, arm, scene, params: DecompositionParams,
                     edge_check_count: int = 5) -> Decomposition:
    """Mobile-base decomposition: one task graph per base pose, one map per base.

    Runs the map search of :func:`_cover` over all base poses at once: each
    iteration samples roots on every base pose that has no map yet, and the
    globally best map claims its base pose.
    """
    from .kinematics import TaskPoint
    from .taskgraph import build_graph, build_task_grid

    base_poses = [(float(b[0]), float(b[1])) for b in base_poses]
    if not base_poses:
        raise ValueError("base_poses must be nonempty")
    if connection_radius > params.epsilon:
        raise ValueError("connection radius %.6g exceeds epsilon %.6g"
                         % (connection_radius, params.epsilon))
    points = build_task_grid(grid_region, spacing)
    graphs: list[TaskGraph] = []
    for bi, bp in enumerate(base_poses):
        pts = [TaskPoint(p.position, base_index=bi) for p in points]
        graphs.append(build_graph(pts, connection_radius, arm.at_base(bp), scene,
                                  edge_check_count))
    if not any(g.nodes for g in graphs):
        raise EmptyGraphError("no grid point is reachable from any base pose")
    found, coverage = _cover(graphs, params, [1] * len(graphs))
    for bi, m in found:
        m.base_pose = base_poses[bi]
        m.base_index = bi
    return Decomposition([m for _, m in found], None, params, coverage=coverage,
                         base_graphs=graphs, base_poses=base_poses)


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

