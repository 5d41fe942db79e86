"""The map search against a frozen dict-based reference.

The reference below holds θ in a dict and prices both penalties on every
relaxation with ``config_distance``. ``generate_map`` must give the same
assignment rows, tree, objective and mean configuration, and fail with the
same ``NoFeasibleRootError``, on synthetic graphs whose positions and IK
candidates lie on a 0.25 lattice, so that equal distances, equal path costs
and heap ties are common.
"""

import math
from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from armseq import (DecompositionParams, NoFeasibleRootError, TaskGraph, TaskPoint,
                    config_distance, generate_map)


def _ref_get_mapping(u, q_t, t, graph, params):
    bound = params.epsilon + graph.edges[(min(u, t), max(u, t))]
    best = None
    for p in graph.ik_sets[u]:
        l = config_distance(q_t, p)
        if l < bound and (best is None or l < best[1]):
            best = (p, l)
    return best


def _ref_update(queue, g, theta, parent, u, t, q_u, l, params, omega=None, q_avg0=None):
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


def _ref_search_from_root(graph, root, q0, params, omega, q_avg0):
    n = len(graph)
    g = np.full(n, params.c_max, dtype=float)
    g[root] = 0.0
    theta = {root: q0}
    parent = {}
    queue = [(0.0, root)]
    eps = params.epsilon
    while queue:
        gt, t = heappop(queue)
        if gt != g[t]:
            continue
        q_t = theta[t]
        for u, d_t in graph.neighbors(t):
            if u in theta:
                q_u = theta[u]
                l = config_distance(q_t, q_u)
                if abs(l - d_t) >= eps:
                    continue
            else:
                got = _ref_get_mapping(u, q_t, t, graph, params)
                if got is None:
                    continue
                q_u, l = got
            _ref_update(queue, g, theta, parent, u, t, q_u, l, params, omega, q_avg0)
    J = float(g.sum() - g[root])
    return J, theta, parent, g


def _ref_generate_map(graph, root, params, omega=None, q_avg0=None):
    """(J, assignment, tree_edges, root_config, mean_config) of the reference search."""
    candidates = graph.ik_sets[root]
    best = None
    for q0 in candidates:
        if (q_avg0 is not None and params.zeta is not None
                and config_distance(q0, q_avg0) >= params.zeta):
            continue
        J, theta, parent, _ = _ref_search_from_root(graph, root, q0, params, omega, q_avg0)
        if best is None or J < best[0]:
            best = (J, theta, parent, q0)
    if best is None:
        raise NoFeasibleRootError("all %d root candidates rejected by zeta" % len(candidates))
    J, theta, parent, q0 = best
    tree = {(min(u, p), max(u, p)) for u, p in parent.items()}
    mean = np.array([theta[i] for i in sorted(theta)], dtype=float).mean(axis=0)
    return J, theta, tree, q0, mean


def _lattice(draw, size, lo=-4, hi=4):
    return [draw(st.integers(lo, hi)) * 0.25 for _ in range(size)]


@st.composite
def search_cases(draw):
    n = draw(st.integers(1, 8))
    dof = draw(st.integers(1, 3))
    positions = []
    while len(positions) < n:
        p = tuple(_lattice(draw, 2, 0, 4))
        if p not in positions:
            positions.append(p)
    ik_sets = [[_lattice(draw, dof) for _ in range(draw(st.integers(1, 4)))]
               for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = {(i, j): math.dist(positions[i], positions[j])
             for i, j in pairs if draw(st.booleans())}
    graph = TaskGraph([TaskPoint(p) for p in positions], ik_sets, edges, 1.5)
    params = DecompositionParams(
        epsilon=draw(st.sampled_from([0.2, 0.5, 1.0, 2.0])),
        c_max=draw(st.sampled_from([1.0, 5.0])),
        rho=draw(st.sampled_from([0.0, 0.5, 2.0])),
        rho_s=draw(st.sampled_from([0.0, 0.02, 0.5])),
        zeta=draw(st.sampled_from([None, 0.25, 0.5, 1.0])),
    )
    omega = draw(st.one_of(st.none(), st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    q_avg0 = np.array(_lattice(draw, dof)) if draw(st.booleans()) else None
    root = draw(st.integers(0, n - 1))
    return graph, root, params, omega, q_avg0


@settings(max_examples=300)
@given(search_cases())
def test_generate_map_matches_reference_search(case):
    graph, root, params, omega, q_avg0 = case
    try:
        J_ref, theta, tree, q0, mean = _ref_generate_map(graph, root, params, omega, q_avg0)
    except NoFeasibleRootError as exc:
        with pytest.raises(NoFeasibleRootError, match="^%s$" % exc):
            generate_map(graph, root, params, omega, q_avg0)
        return
    J, m = generate_map(graph, root, params, omega, q_avg0)
    assert J == J_ref and m.objective == J_ref
    assert sorted(m.assignment) == sorted(theta)
    assert all(m.assignment[u] is theta[u] for u in theta)  # the graph's own rows
    assert m.tree_edges == tree
    assert m.root == root and m.root_config is q0
    assert np.array_equal(m.mean_config, mean)
