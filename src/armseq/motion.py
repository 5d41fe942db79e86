"""Trajectory post-processing: shortcut smoothing, a sampling fallback planner
and execution metrics.

Seeds (subspace paths or straight lines) run through the same adaptor:
subdivide, repair locally if colliding, randomly shortcut, then greedily
straighten. When a seed cannot be repaired the bidirectional sampling planner
takes over; its timeout is the only way a leg can fail outright.
:func:`plan_leg` is that cascade, the one place every leg is planned.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .kinematics import config_distance
from .world import Checker

SOURCE_SUBSPACE = "subspace_seed"
SOURCE_STRAIGHT = "straight_line"
SOURCE_ADAPTED = "adapted"
SOURCE_FALLBACK = "fallback"

SUBDIVIDE = 0.5  # widest d_C span between adjacent seed waypoints before repair
REPAIR_ATTEMPTS = 20  # perturbations per interior waypoint
SHORTCUT_ATTEMPTS = 60  # random shortcut tries per adapted or fallback path
EXTEND_STEP = 0.3  # d_C length of one fallback tree extension


class SeedInvalidError(RuntimeError):
    """A seed segment stays in collision after local repair attempts."""


class PlanningTimeoutError(RuntimeError):
    """The fallback planner exhausted its time budget."""


@dataclass(eq=False, slots=True)
class Trajectory:
    """A discrete sequence of configurations with a provenance tag."""

    waypoints: list[np.ndarray]
    source: str = SOURCE_STRAIGHT

    def __post_init__(self):
        if not self.waypoints:
            raise ValueError("trajectory needs at least one waypoint")
        self.waypoints = [np.asarray(w, dtype=float) for w in self.waypoints]

    def length(self) -> float:
        return sum(config_distance(a, b) for a, b in zip(self.waypoints, self.waypoints[1:]))


@dataclass(eq=False, slots=True)
class TrajectoryMetrics:
    config_length: float
    exec_time: float
    max_jerk: float
    valid: bool


def _subdivided(waypoints, max_span: float) -> list[np.ndarray]:
    """Insert interior points so no span exceeds max_span; originals kept exactly."""
    out = [waypoints[0]]
    for a, b in zip(waypoints, waypoints[1:]):
        d = config_distance(a, b)
        pieces = max(1, int(math.ceil(d / max_span)))
        for k in range(1, pieces):
            out.append(a + (b - a) * (k / pieces))
        out.append(b)
    return out


def _shortcut(waypoints, check: Checker, rng) -> list[np.ndarray]:
    wps = list(waypoints)
    for _ in range(SHORTCUT_ATTEMPTS):
        if len(wps) < 3:
            break
        i = int(rng.integers(0, len(wps) - 2))
        j = int(rng.integers(i + 2, len(wps)))
        if check.motion(wps[i], wps[j]):
            wps = wps[: i + 1] + wps[j:]
    # greedy pass: from each kept waypoint jump as far ahead as validity allows
    out = [wps[0]]
    i = 0
    while i < len(wps) - 1:
        j = len(wps) - 1
        while j > i + 1 and not check.motion(wps[i], wps[j]):
            j -= 1
        out.append(wps[j])
        i = j
    return out


def adapt_trajectory(seed: Trajectory, check: Checker, rng_seed: int = 0) -> Trajectory:
    """Adapt a seed to the checker's scene: repair, shortcut, straighten.

    The result preserves both endpoints exactly, passes ``check.motion`` on
    every segment and never exceeds the config length of a valid seed.
    Raises :class:`SeedInvalidError` when a colliding segment survives the
    local repair budget (per-waypoint perturbations up to 0.2 rad).
    """
    rng = np.random.default_rng(rng_seed)
    wps = _subdivided(seed.waypoints, SUBDIVIDE)
    lo, hi = np.array(check.arm.joint_limits).T

    def first_invalid():
        for k in range(len(wps) - 1):
            if not check.motion(wps[k], wps[k + 1]):
                return k
        return None

    # phase 1: every interior waypoint must itself be collision-free; a repair
    # replaces only its own waypoint, so one check answers for all of them
    for i, ok in enumerate(check.valid_many(wps[1:-1]), start=1):
        if ok:
            continue
        for _ in range(REPAIR_ATTEMPTS):
            cand = np.clip(wps[i] + rng.uniform(-0.2, 0.2, size=check.arm.dof), lo, hi)
            if check.valid(cand):
                wps[i] = cand
                break
        else:
            raise SeedInvalidError("waypoint %d stays in collision after %d repairs"
                                   % (i, REPAIR_ATTEMPTS))
    # phase 2: repair remaining sweep collisions by nudging adjacent waypoints;
    # each interior waypoint gets its own perturbation budget
    budget = [REPAIR_ATTEMPTS] * len(wps)
    bad = first_invalid()
    flip = 0
    while bad is not None:
        interior = [i for i in (bad, bad + 1) if 0 < i < len(wps) - 1 and budget[i] > 0]
        if not interior:
            raise SeedInvalidError("seed segment %d stays invalid after local repair"
                                   % bad)
        idx = interior[flip % len(interior)]
        flip += 1
        budget[idx] -= 1
        cand = np.clip(wps[idx] + rng.uniform(-0.2, 0.2, size=check.arm.dof), lo, hi)
        if (check.valid(cand) and check.motion(wps[idx - 1], cand)
                and check.motion(cand, wps[idx + 1])):
            wps[idx] = cand
        bad = first_invalid()
    wps = _shortcut(wps, check, rng)
    return Trajectory(wps, source=SOURCE_ADAPTED)


def _extend(tree_pts, tree_parent, target, check: Checker):
    """Greedily grow a tree toward ``target``; returns index of last new node."""
    best = 0
    best_d = config_distance(tree_pts[0], target)
    for i in range(1, len(tree_pts)):
        d = config_distance(tree_pts[i], target)
        if d < best_d:
            best, best_d = i, d
    cur = best
    added = None
    while True:
        q = tree_pts[cur]
        d = config_distance(q, target)
        if d == 0.0:
            return cur, True
        if d <= EXTEND_STEP:
            q_new = target.copy()
        else:
            q_new = q + (target - q) * (EXTEND_STEP / d)
        if not check.motion(q, q_new):
            return added, False
        tree_pts.append(q_new)
        tree_parent.append(cur)
        cur = len(tree_pts) - 1
        added = cur
        if d <= EXTEND_STEP:
            return cur, True


def _chain(tree_pts, tree_parent, idx) -> list[np.ndarray]:
    out = []
    while idx is not None and idx >= 0:
        out.append(tree_pts[idx])
        idx = tree_parent[idx]
    return out[::-1]


def fallback_plan(q_start, q_goal, check: Checker, timeout: float = 2.0,
                  rng_seed: int = 0) -> Trajectory:
    """Bidirectional sampling-tree planner between exact endpoints.

    Uniform seeded sampling within the joint limits with greedy extension;
    a successful connection is shortcut-smoothed. Raises
    :class:`PlanningTimeoutError` after the wall-clock budget, the only
    unplannable outcome.
    """
    q_start = np.asarray(q_start, dtype=float)
    q_goal = np.asarray(q_goal, dtype=float)
    rng = np.random.default_rng(rng_seed)
    if config_distance(q_start, q_goal) == 0.0:
        return Trajectory([q_start.copy()], source=SOURCE_FALLBACK)
    if check.motion(q_start, q_goal):
        return Trajectory([q_start.copy(), q_goal.copy()], source=SOURCE_FALLBACK)
    lo, hi = np.array(check.arm.joint_limits).T
    trees = (
        ([q_start.copy()], [-1]),  # grown from the start
        ([q_goal.copy()], [-1]),   # grown from the goal
    )
    a = 0
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        q_rand = rng.uniform(lo, hi)
        pts_a, par_a = trees[a]
        new_idx, _ = _extend(pts_a, par_a, q_rand, check)
        if new_idx is not None:
            pts_b, par_b = trees[1 - a]
            meet, reached = _extend(pts_b, par_b, pts_a[new_idx], check)
            if reached and meet is not None:
                chain_a = _chain(pts_a, par_a, new_idx)
                chain_b = _chain(pts_b, par_b, meet)
                wps = chain_a + chain_b[-2::-1] if a == 0 else chain_b + chain_a[-2::-1]
                wps = _shortcut(wps, check, rng)
                wps[0] = q_start.copy()
                wps[-1] = q_goal.copy()
                return Trajectory(wps, source=SOURCE_FALLBACK)
        a = 1 - a
    raise PlanningTimeoutError("no path found within %.3f s" % timeout)


def plan_leg(seed: Trajectory, check: Checker, rng_seed: int = 0,
             timeout: float = 2.0) -> Trajectory | None:
    """Plan one leg: adapt ``seed``, else plan between its endpoints from scratch.

    Both stages draw from the same ``rng_seed``. Returns None when the seed
    cannot be repaired and the fallback planner times out.
    """
    try:
        return adapt_trajectory(seed, check, rng_seed)
    except SeedInvalidError:
        pass
    try:
        return fallback_plan(seed.waypoints[0], seed.waypoints[-1], check, timeout, rng_seed)
    except PlanningTimeoutError:
        return None


def finite_difference_max_jerk(samples: np.ndarray, dt: float) -> float:
    """Max L2 norm of the third-order central finite difference of ``samples``.

    Boundary samples have no central stencil and are excluded; fewer than five
    samples define a jerk of zero.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if len(samples) < 5:
        return 0.0
    third = (samples[4:] - 2.0 * samples[3:-1] + 2.0 * samples[1:-3] - samples[:-4]) \
        / (2.0 * dt ** 3)
    return float(np.sqrt((third * third).sum(axis=1)).max())


def trajectory_metrics(traj: Trajectory, check: Checker, dt: float) -> TrajectoryMetrics:
    """Length, execution time, finite-difference max jerk and validity.

    Each segment is timed at the duration imposed by the slowest joint running
    at its velocity limit; the whole trajectory is then resampled uniformly at
    ``dt`` before differencing.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    wps = traj.waypoints
    length = traj.length()
    vmax = np.array(check.arm.max_joint_velocity)
    durations = [float(np.max(np.abs(b - a) / vmax)) for a, b in zip(wps, wps[1:])]
    exec_time = float(sum(durations))
    valid = all(check.motion(a, b) for a, b in zip(wps, wps[1:]))
    if exec_time == 0.0:
        return TrajectoryMetrics(length, 0.0, 0.0, valid)
    knots = np.concatenate([[0.0], np.cumsum(durations)])
    times = np.arange(0.0, exec_time + dt * 0.5, dt)
    coords = np.vstack(wps)
    samples = np.column_stack([
        np.interp(times, knots, coords[:, j]) for j in range(check.arm.dof)
    ])
    return TrajectoryMetrics(length, exec_time, finite_difference_max_jerk(samples, dt), valid)
