"""Online task sequencing over a precomputed decomposition.

Pipeline: match each task to a map by IK similarity, group tasks by map,
retrieve intra-map trajectories by graph search, solve one anchored TSP per
group and concatenate the groups through the home configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decomposition import Decomposition, GhaMap
from .kinematics import ArmModel, TaskPoint, config_distance, ik_solutions
from .motion import (SOURCE_STRAIGHT, SOURCE_SUBSPACE, Trajectory, plan_leg,
                     trajectory_metrics)
from .taskgraph import TaskGraph
from .world import Checker, Scene

HOME = -1  # marker used in visit orders


class NoIkSolutionsError(RuntimeError):
    """A task has no valid IK solution in the given scene."""


class DisconnectedError(RuntimeError):
    """No intra-map path joins the two matched nodes."""


@dataclass
class SequencingParams:
    k: int = 10
    threshold: float = 0.7

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")


@dataclass(eq=False)
class TaskMatch:
    """A task bound to a map: matched node, chosen IK solution and L2 similarity."""

    task: TaskPoint
    map_index: int
    matched_node: int
    task_config: np.ndarray
    similarity: float


@dataclass(eq=False)
class Leg:
    from_label: int  # task index or HOME
    to_label: int
    trajectory: Trajectory
    map_index: int | None = None
    valid: bool | None = None
    metrics: object | None = None


@dataclass(eq=False)
class SequencePlan:
    """Ordered legs anchored at home, with the visit order and bookkeeping."""

    legs: list[Leg]
    visit_order: list[int]
    visit_configs: list[np.ndarray]
    total_config_cost: float
    group_orders: dict[int, list[int]] = field(default_factory=dict)
    unplanned: list[int] = field(default_factory=list)
    home_config: np.ndarray | None = None

    def failed_legs(self) -> list[int]:
        return [i for i, leg in enumerate(self.legs) if leg.valid is False]


def match_task(task: TaskPoint, decomposition: Decomposition, k: int,
               threshold: float, check: Checker) -> TaskMatch:
    """Match a task to a map via the k nearest mapped nodes and IK similarity.

    Maps are tried in discovery order and the first whose best (task IK,
    node assignment) pair has L2 distance below ``threshold`` wins, biasing
    matches to earlier maps. If no map clears the threshold the globally
    best pair is returned instead. The task's IK comes from ``check`` moved to
    each map's base pose, once per base.
    """
    tx, ty = task.position
    ik_cache: dict[int | None, list[np.ndarray]] = {}
    global_best: TaskMatch | None = None
    any_ik = False
    for mi, m in enumerate(decomposition.maps):
        key = m.base_index
        if key not in ik_cache:
            ik_cache[key] = ik_solutions(check.at_base(m.base_pose), TaskPoint(task.position))
        candidates = ik_cache[key]
        if not candidates:
            continue
        any_ik = True
        graph = decomposition.graph_for(m)
        ranked = [n for _, n in sorted(
            (math.hypot(graph.nodes[n].position[0] - tx, graph.nodes[n].position[1] - ty), n)
            for n in m.assignment
        )[:k]]
        # L2 similarity of every (ranked node, candidate) pair; the row-major
        # first argmin keeps the first ranked node, then the first candidate
        diff = np.array([m.assignment[n] for n in ranked])[:, None] - np.array(candidates)
        sims = np.sqrt((diff * diff).sum(axis=2))
        r, c = np.unravel_index(int(sims.argmin()), sims.shape)
        best = TaskMatch(task, mi, ranked[r], candidates[c], float(sims[r, c]))
        if best.similarity < threshold:
            return best
        if global_best is None or best.similarity < global_best.similarity:
            global_best = best
    if not any_ik or global_best is None:
        raise NoIkSolutionsError("task at %r has no valid IK solution" % (task.position,))
    return global_best


def intra_subspace_trajectory(m: GhaMap, graph: TaskGraph, match_a: TaskMatch,
                              match_b: TaskMatch) -> Trajectory:
    """Seed trajectory between two matches of the same map.

    Shortest path over graph edges whose endpoints are both assigned, weighted
    by d_C of the assigned configurations; the matched task configurations are
    prepended/appended to the configuration path.
    """
    if match_a.map_index != match_b.map_index:
        raise ValueError("matches reference different maps")
    assigned = m.assignment
    start, goal = match_a.matched_node, match_b.matched_node
    path, _ = graph.shortest_path(
        start, goal, assigned, lambda u, v, d_t: config_distance(assigned[u], assigned[v]))
    if path is None:
        raise DisconnectedError("nodes %d and %d are disconnected within the map"
                                % (start, goal))
    wps = [match_a.task_config] + [assigned[n] for n in path] + [match_b.task_config]
    return Trajectory(wps, source=SOURCE_SUBSPACE)


def home_config(decomposition: Decomposition, home_task: TaskPoint,
                check: Checker) -> np.ndarray:
    """Home IK solution closest (d_C) to the first map's mean configuration."""
    candidates = ik_solutions(check, home_task)
    if not candidates:
        raise NoIkSolutionsError("home task at %r has no valid IK solution"
                                 % (home_task.position,))
    d = np.abs(np.array(candidates) - decomposition.maps[0].mean_config).max(axis=1)
    return candidates[int(d.argmin())]


def closed_tour_cost(weights: np.ndarray, order) -> float:
    """Cost of visiting ``order`` and returning to its first element."""
    total = 0.0
    for a, b in zip(order, order[1:]):
        total += weights[a][b]
    total += weights[order[-1]][order[0]]
    return total


def _held_karp(weights: np.ndarray, anchor: int) -> list[int]:
    others = [i for i in range(len(weights)) if i != anchor]
    m = len(others)
    Wt = weights[np.ix_(others, others)].T  # Wt[k, j]: cost of others[j] -> others[k]
    # dp[mask, j]: best cost of a path anchor -> ... -> others[j] covering mask;
    # back[mask, j]: the index before j on that path (-1 for the anchor)
    dp = np.full((1 << m, m), math.inf)
    back = np.full((1 << m, m), -1)
    dp[1 << np.arange(m), np.arange(m)] = weights[anchor, others]
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    size = bits.sum(axis=1)
    for s in range(2, m + 1):
        masks, ks = np.nonzero(bits & (size == s)[:, None])
        # chunks of at most 2^m (mask, k) pairs keep cand no larger than dp
        for c in range(0, len(masks), 1 << m):
            mask, k = masks[c:c + (1 << m)], ks[c:c + (1 << m)]
            cand = dp[mask ^ (1 << k)] + Wt[k]
            # ties keep the highest predecessor j
            back[mask, k] = m - 1 - np.argmin(cand[:, ::-1], axis=1)
            dp[mask, k] = cand.min(axis=1)
    # ties keep the lowest last j
    j = int(np.argmin(dp[-1] + weights[others, anchor]))
    order = []
    mask = (1 << m) - 1
    while j != -1:
        order.append(others[j])
        mask, j = mask ^ (1 << j), int(back[mask, j])
    order.reverse()
    return [anchor] + order


def _nearest_neighbor(weights: np.ndarray, anchor: int) -> list[int]:
    n = len(weights)
    order = [anchor]
    remaining = [i for i in range(n) if i != anchor]
    while remaining:
        cur = order[-1]
        best = min(remaining, key=lambda i: (weights[cur][i], i))
        order.append(best)
        remaining.remove(best)
    return order


def _two_opt(weights: np.ndarray, order: list[int]) -> list[int]:
    n = len(order)
    cap = 10 * n * n
    moves = 0
    improved = True
    while improved and moves < cap:
        improved = False
        for i in range(1, n - 1):
            for j in range(i + 1, n):
                a, b = order[i - 1], order[i]
                c, d = order[j], order[(j + 1) % n]
                delta = (weights[a][c] + weights[b][d]) - (weights[a][b] + weights[c][d])
                if delta < -1e-12:
                    order[i:j + 1] = order[i:j + 1][::-1]
                    moves += 1
                    improved = True
                    if moves >= cap:
                        return order
        # first-improvement passes repeat until a full pass finds nothing
    return order


def solve_tsp(weights, anchor: int = 0) -> list[int]:
    """Closed-tour order starting at ``anchor`` (return edge implied).

    Exact Held-Karp dynamic program for n <= 13; nearest-neighbour
    construction plus 2-opt improvement beyond that. Deterministic.
    """
    W = np.asarray(weights, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("weights must be a square matrix")
    n = W.shape[0]
    if not 0 <= anchor < n:
        raise ValueError("anchor out of range")
    if np.any(np.diag(W) != 0.0):
        raise ValueError("weights must have a zero diagonal")
    if n == 1:
        return [anchor]
    if n == 2:
        return [anchor, 1 - anchor]
    if n <= 13:
        return _held_karp(W, anchor)
    order = _nearest_neighbor(W, anchor)
    return _two_opt(W, order)


def _straight_leg(q_a, q_b) -> Trajectory:
    return Trajectory([q_a, q_b], source=SOURCE_STRAIGHT)


def sequence(tasks, decomposition: Decomposition, home_task: TaskPoint,
             params: SequencingParams, arm: ArmModel, scene: Scene,
             home_q: np.ndarray | None = None) -> SequencePlan:
    """Plan a full mission: match, group, per-group anchored TSP, concatenate.

    Groups are concatenated in map discovery order and joined through the home
    configuration, so consecutive legs share their junction configuration
    exactly. Tasks with no IK solution are listed in ``unplanned`` rather
    than silently dropped.
    """
    check = Checker(arm, scene)
    matches: dict[int, TaskMatch] = {}
    unplanned: list[int] = []
    for ti, task in enumerate(tasks):
        try:
            matches[ti] = match_task(task, decomposition, params.k, params.threshold, check)
        except NoIkSolutionsError:
            unplanned.append(ti)
    if home_q is None:
        home_q = home_config(decomposition, home_task, check)
    groups: dict[int, list[int]] = {}
    for ti in sorted(matches):
        groups.setdefault(matches[ti].map_index, []).append(ti)
    legs: list[Leg] = []
    visit_order: list[int] = []
    visit_configs: list[np.ndarray] = []
    group_orders: dict[int, list[int]] = {}
    if groups:
        visit_order.append(HOME)
        visit_configs.append(home_q)
    for mi in sorted(groups):
        members = groups[mi]
        m = decomposition.maps[mi]
        graph = decomposition.graph_for(m)
        size = len(members)
        W = np.zeros((size + 1, size + 1))
        trajs: dict[tuple[int, int], Trajectory | None] = {}
        for x, ti in enumerate(members):
            W[0, x + 1] = W[x + 1, 0] = config_distance(home_q, matches[ti].task_config)
        for x in range(size):
            for y in range(x + 1, size):
                a, b = matches[members[x]], matches[members[y]]
                try:
                    tr = intra_subspace_trajectory(m, graph, a, b)
                    cost = tr.length()
                except DisconnectedError:
                    tr = None  # fall back to a transit through home
                    cost = (config_distance(a.task_config, home_q)
                            + config_distance(home_q, b.task_config))
                trajs[(x, y)] = tr
                W[x + 1, y + 1] = W[y + 1, x + 1] = cost
        order = solve_tsp(W, anchor=0)
        group_orders[mi] = [members[i - 1] for i in order[1:]]
        prev_label = HOME
        prev_cfg = home_q
        for pos in order[1:]:
            ti = members[pos - 1]
            mt = matches[ti]
            if prev_label == HOME:
                legs.append(Leg(HOME, ti, _straight_leg(prev_cfg, mt.task_config), mi))
            else:
                x, y = sorted((members.index(prev_label), pos - 1))
                tr = trajs[(x, y)]
                if tr is None:
                    legs.append(Leg(prev_label, HOME, _straight_leg(prev_cfg, home_q), mi))
                    legs.append(Leg(HOME, ti, _straight_leg(home_q, mt.task_config), mi))
                    visit_order.append(HOME)
                    visit_configs.append(home_q)
                else:
                    wps = tr.waypoints if members.index(prev_label) == x else tr.waypoints[::-1]
                    legs.append(Leg(prev_label, ti, Trajectory(wps, source=SOURCE_SUBSPACE), mi))
            visit_order.append(ti)
            visit_configs.append(mt.task_config)
            prev_label = ti
            prev_cfg = mt.task_config
        legs.append(Leg(prev_label, HOME, _straight_leg(prev_cfg, home_q), mi))
        visit_order.append(HOME)
        visit_configs.append(home_q)
    total = sum(leg.trajectory.length() for leg in legs)
    return SequencePlan(legs, visit_order, visit_configs, total, group_orders,
                        unplanned, home_q)


def adapt_plan(plan: SequencePlan, arm: ArmModel, scene: Scene, step: float = 0.05,
               rng_seed: int = 0, timeout: float = 2.0, dt: float = 0.01,
               straight_seeds: bool = False) -> SequencePlan:
    """Run every leg of a plan through trajectory adaptation with fallback.

    With ``straight_seeds`` the subspace seeds are replaced by straight
    configuration segments (the no-prior variant); both variants then flow
    through the same adaptor. Per-leg RNG streams derive from
    (``rng_seed``, leg index). Failed legs keep their seed and are marked
    invalid rather than dropped.
    """
    check = Checker(arm, scene, step)
    new_legs: list[Leg] = []
    for li, leg in enumerate(plan.legs):
        seed_traj = leg.trajectory
        if straight_seeds and len(seed_traj.waypoints) > 2:
            seed_traj = _straight_leg(seed_traj.waypoints[0], seed_traj.waypoints[-1])
        adapted = plan_leg(seed_traj, check, rng_seed * 1_000_003 + li, timeout)
        ok = adapted is not None
        if not ok:
            adapted = seed_traj
        metrics = trajectory_metrics(adapted, check, dt) if ok else None
        new_legs.append(Leg(leg.from_label, leg.to_label, adapted, leg.map_index,
                            valid=ok, metrics=metrics))
    total = sum(leg.trajectory.length() for leg in new_legs if leg.valid)
    return SequencePlan(new_legs, list(plan.visit_order), list(plan.visit_configs),
                        total, dict(plan.group_orders), list(plan.unplanned),
                        plan.home_config)
