"""Comparison methods and a brute-force optimal oracle.

All methods are costed through one shared :class:`CostOracle` (adapted
straight-seed trajectories with a fixed seeding policy), so no method sees a
private cost model. The oracle enumerates every IK assignment and permutation
on small instances to produce ground-truth optimal tour costs.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from itertools import permutations, product

import numpy as np

from .kinematics import TaskPoint, ik_solutions, task_distance
from .motion import Trajectory, plan_leg
from .sequencer import (HOME, Leg, NoIkSolutionsError, SequencePlan,
                        _straight_leg, solve_tsp)
from .world import Checker


MAX_ORACLE_TASKS = 6  # most tasks the brute-force oracle enumerates
MAX_ORACLE_IK = 4  # most IK solutions per task it enumerates


class TooLargeError(ValueError):
    """Instance exceeds the brute-force oracle's enumeration limits."""


@dataclass
class CostOracle:
    """Shared leg-cost function: adapted straight-seed trajectory length.

    Costs are cached per unordered endpoint pair (hence exactly symmetric)
    and each pair's RNG stream derives from the endpoints themselves, so the
    value is independent of query order. Unplannable legs cost infinity.
    """

    check: Checker
    rng_seed: int = 0
    timeout: float = 2.0
    _cache: dict = field(default_factory=dict, repr=False)

    def _key(self, q_a, q_b):
        ka, kb = tuple(float(v) for v in q_a), tuple(float(v) for v in q_b)
        return (ka, kb) if ka <= kb else (kb, ka)

    def leg(self, q_a, q_b) -> tuple[float, Trajectory | None]:
        key = self._key(q_a, q_b)
        if key not in self._cache:
            lo, hi = np.array(key[0]), np.array(key[1])
            pair_seed = zlib.crc32(np.array(key, dtype=float).tobytes())
            leg_seed = (self.rng_seed * 1_000_003 + pair_seed) % (2 ** 63)
            traj = plan_leg(_straight_leg(lo, hi), self.check, leg_seed, self.timeout)
            cost = traj.length() if traj is not None else math.inf
            self._cache[key] = (cost, traj)
        cost, traj = self._cache[key]
        if traj is not None and not np.array_equal(traj.waypoints[0], np.asarray(q_a, float)):
            traj = Trajectory(traj.waypoints[::-1], source=traj.source)
        return cost, traj

    def cost(self, q_a, q_b) -> float:
        return self.leg(q_a, q_b)[0]


def plan_visit_cost(plan: SequencePlan, oracle: CostOracle) -> float:
    """Re-cost a plan's visit sequence through the shared oracle."""
    total = 0.0
    for a, b in zip(plan.visit_configs, plan.visit_configs[1:]):
        total += oracle.cost(a, b)
    return total


def _seed_legs(visit_labels, visit_configs):
    """Straight-line seed legs between consecutive visit configurations."""
    return [
        Leg(visit_labels[i], visit_labels[i + 1],
            _straight_leg(visit_configs[i], visit_configs[i + 1]))
        for i in range(len(visit_configs) - 1)
    ]


def _first_ik(check: Checker, task: TaskPoint):
    sols = ik_solutions(check, task)
    if not sols:
        raise NoIkSolutionsError("task at %r has no valid IK solution" % (task.position,))
    return sols


def _task_space_order(tasks, home_task) -> list[int]:
    """Anchored TSP over task-space distances; index 0 is home."""
    pts = [home_task] + list(tasks)
    n = len(pts)
    W = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            W[i, j] = W[j, i] = task_distance(pts[i], pts[j])
    return solve_tsp(W, anchor=0)


def naive_sequence(tasks, check: Checker, home_task: TaskPoint, home_q=None) -> SequencePlan:
    """Task-space-only baseline: TSP on d_T, first IK solution per task.

    Returns a seed plan (straight-line legs); run it through
    :func:`armseq.sequencer.adapt_plan` for executable trajectories.
    """
    ik_sets = [_first_ik(check, t) for t in tasks]
    if home_q is None:
        home_q = _first_ik(check, home_task)[0]
    order = _task_space_order(tasks, home_task)
    visit_labels = [HOME] + [i - 1 for i in order[1:]] + [HOME]
    visit_configs = [home_q] + [ik_sets[i - 1][0] for i in order[1:]] + [home_q]
    legs = _seed_legs(visit_labels, visit_configs)
    total = sum(leg.trajectory.length() for leg in legs)
    return SequencePlan(legs, visit_labels, visit_configs, total, {}, [], home_q)


def robotsp_sequence(tasks, check: Checker, home_task: TaskPoint, home_q=None) -> SequencePlan:
    """Decoupled baseline: task-space tour, then optimal configs by layered search.

    Stage 2 builds a layered graph (home, Q(t_sigma[1]), ..., Q(t_sigma[M]),
    home) with d_C arc weights and takes the shortest path through the layers.
    Returns a seed plan, as :func:`naive_sequence` does.
    """
    ik_sets = [_first_ik(check, t) for t in tasks]
    if home_q is None:
        home_q = _first_ik(check, home_task)[0]
    order = _task_space_order(tasks, home_task)
    task_seq = [i - 1 for i in order[1:]]
    layers = [[home_q]] + [ik_sets[i] for i in task_seq] + [[home_q]]
    cost = np.zeros(1)
    back: list[np.ndarray] = []
    for prev_layer, layer in zip(layers, layers[1:]):
        # total[i, j]: best cost to prev_layer[i], then d_C to layer[j]; ties
        # keep the lowest predecessor i
        d = np.abs(np.array(prev_layer)[:, None] - np.array(layer)).max(axis=2)
        total = cost[:, None] + d
        back.append(total.argmin(axis=0))
        cost = total.min(axis=0)
    choice = [0] * len(layers)
    for li in range(len(layers) - 2, 0, -1):
        choice[li] = int(back[li][choice[li + 1]])
    visit_labels = [HOME] + task_seq + [HOME]
    visit_configs = [layers[li][choice[li]] for li in range(len(layers))]
    legs = _seed_legs(visit_labels, visit_configs)
    total = sum(leg.trajectory.length() for leg in legs)
    return SequencePlan(legs, visit_labels, visit_configs, total, {}, [], home_q)


def gtsp_bruteforce(tasks, home_task: TaskPoint, cost: CostOracle, home_q=None):
    """Exhaustive optimum over IK assignments x permutations, anchored at home.

    IK comes from ``cost.check``, the checker that also prices every leg.
    Refuses instances beyond ``MAX_ORACLE_TASKS`` tasks or ``MAX_ORACLE_IK``
    IK solutions per task. Returns (assignment, permutation, cost).
    """
    if len(tasks) > MAX_ORACLE_TASKS:
        raise TooLargeError("instance has %d tasks; limit is %d" % (len(tasks), MAX_ORACLE_TASKS))
    ik_sets = [_first_ik(cost.check, t) for t in tasks]
    if any(len(s) > MAX_ORACLE_IK for s in ik_sets):
        raise TooLargeError("a task has more than %d IK solutions" % MAX_ORACLE_IK)
    if home_q is None:
        home_q = _first_ik(cost.check, home_task)[0]
    best_cost = math.inf
    best_assign = None
    best_perm = None
    for assign in product(*ik_sets):
        for perm in permutations(range(len(tasks))):
            total = cost.cost(home_q, assign[perm[0]])
            for a, b in zip(perm, perm[1:]):
                total += cost.cost(assign[a], assign[b])
                if total >= best_cost:
                    break
            else:
                total += cost.cost(assign[perm[-1]], home_q)
                if total < best_cost:
                    best_cost = total
                    best_assign = assign
                    best_perm = perm
    return best_assign, best_perm, best_cost
