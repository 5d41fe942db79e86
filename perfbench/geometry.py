"""Planar-arm geometry written apart from armseq, for inputs and output checks.

Nothing here imports armseq: the benchmark samples its tasks and checks the
planner's outputs with these functions, so a change to the program cannot
change what is asked of it or what counts as a correct answer.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class Arm:
    """Link lengths, capsule radii and joint limits of a planar serial arm."""

    def __init__(self, lengths, radii, limits):
        self.lengths = np.asarray(lengths, dtype=float)
        self.radii = np.asarray(radii, dtype=float)
        self.limits = np.asarray(limits, dtype=float)

    @classmethod
    def from_scenario(cls, arm: dict) -> "Arm":
        return cls(arm["link_lengths"], arm["link_thickness"], arm["joint_limits"])

    @property
    def dof(self) -> int:
        return len(self.lengths)


def joints(arm: Arm, Q, base=(0.0, 0.0)) -> np.ndarray:
    """Joint positions (m, dof + 1, 2) of configurations Q (m, dof); the last is the tip."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    ang = np.cumsum(Q, axis=1)
    steps = np.stack([np.cos(ang), np.sin(ang)], axis=2) * arm.lengths[None, :, None]
    pts = np.zeros((len(Q), arm.dof + 1, 2))
    pts[:, 0] = base
    pts[:, 1:] = np.asarray(base, dtype=float) + np.cumsum(steps, axis=1)
    return pts


def tips(arm: Arm, Q, base=(0.0, 0.0)) -> np.ndarray:
    return joints(arm, Q, base)[:, -1]


def _point_seg(px, py, ax, ay, bx, by) -> np.ndarray:
    """Distance from points (px, py) to segments a-b, per component array, broadcasting."""
    vx, vy = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    vv = vx * vx + vy * vy
    t = np.clip((wx * vx + wy * vy) / np.where(vv > 0.0, vv, 1.0), 0.0, 1.0)
    dx, dy = wx - t * vx, wy - t * vy
    return np.sqrt(dx * dx + dy * dy)


def _seg_box(ax, ay, bx, by, box) -> np.ndarray:
    """Distance from segments a-b to an axis-aligned box; 0 when they meet."""
    xmin, ymin, xmax, ymax = box
    # Liang-Barsky clip of the segment against the two slabs of the box
    t0 = np.zeros(ax.shape)
    t1 = np.ones(ax.shape)
    for a, d, lo, hi in ((ax, bx - ax, xmin, xmax), (ay, by - ay, ymin, ymax)):
        flat = d == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (lo - a) / d
            tb = (hi - a) / d
        inside = (a >= lo) & (a <= hi)
        t0 = np.where(flat, np.where(inside, t0, 2.0), np.maximum(t0, np.minimum(ta, tb)))
        t1 = np.where(flat, t1, np.minimum(t1, np.maximum(ta, tb)))

    def point_box(px, py):
        gx = np.maximum(np.maximum(xmin - px, px - xmax), 0.0)
        gy = np.maximum(np.maximum(ymin - py, py - ymax), 0.0)
        return np.sqrt(gx * gx + gy * gy)

    dist = np.minimum(point_box(ax, ay), point_box(bx, by))
    for cx, cy in ((xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)):
        dist = np.minimum(dist, _point_seg(cx, cy, ax, ay, bx, by))
    return np.where(t0 <= t1, 0.0, dist)


def _cross(ox, oy, px, py, qx, qy) -> np.ndarray:
    return (px - ox) * (qy - oy) - (py - oy) * (qx - ox)


def _seg_seg(ax, ay, bx, by, cx, cy, dx, dy) -> np.ndarray:
    crossing = ((_cross(ax, ay, bx, by, cx, cy) * _cross(ax, ay, bx, by, dx, dy) < 0)
                & (_cross(cx, cy, dx, dy, ax, ay) * _cross(cx, cy, dx, dy, bx, by) < 0))
    dist = np.minimum(np.minimum(_point_seg(cx, cy, ax, ay, bx, by), _point_seg(dx, dy, ax, ay, bx, by)),
                      np.minimum(_point_seg(ax, ay, cx, cy, dx, dy), _point_seg(bx, by, cx, cy, dx, dy)))
    return np.where(crossing, 0.0, dist)


def clearance(arm: Arm, Q, obstacles, base=(0.0, 0.0)) -> np.ndarray:
    """Smallest gap between capsule surfaces, per configuration (m,).

    Each link capsule is measured against every obstacle and against every
    non-adjacent link; a negative or zero value means contact.
    """
    pts = joints(arm, Q, base)
    ax, ay = pts[:, :-1, 0], pts[:, :-1, 1]
    bx, by = pts[:, 1:, 0], pts[:, 1:, 1]
    gap = np.full(len(pts), np.inf)
    for ob in obstacles:
        if ob[0] == "box":
            d = _seg_box(ax, ay, bx, by, ob[1])
        else:
            d = _point_seg(ob[1][0], ob[1][1], ax, ay, bx, by) - ob[2]
        gap = np.minimum(gap, (d - arm.radii[None, :]).min(axis=1))
    for i in range(arm.dof):
        for j in range(i + 2, arm.dof):
            d = _seg_seg(ax[:, i], ay[:, i], bx[:, i], by[:, i], ax[:, j], ay[:, j], bx[:, j], by[:, j])
            gap = np.minimum(gap, d - arm.radii[i] - arm.radii[j])
    return gap


def obstacles_from_scenario(items) -> list:
    """('box', (xmin, ymin, xmax, ymax)) and ('disc', (cx, cy), radius) tuples."""
    out = []
    for o in items:
        if o["kind"] == "box":
            out.append(("box", (o["min"][0], o["min"][1], o["max"][0], o["max"][1])))
        else:
            out.append(("disc", tuple(o["center"]), o["radius"]))
    return out


def linf(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def leg_samples(waypoints, step: float) -> np.ndarray:
    """The configurations the program's motion check samples along a piecewise-linear path.

    Each segment a->b is cut into n pieces, n the smallest power of two with
    d_C(a, b) / n <= step, and sampled at a + (b - a) * (k / n), as the program does.
    """
    pts = [np.asarray(waypoints[0], dtype=float)[None, :]]
    for a, b in zip(waypoints, waypoints[1:]):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        d = linf(a, b)
        n = 1
        while d / n > step:
            n *= 2
        pts.append(a + (b - a) * (np.arange(1, n + 1) / n)[:, None])
    return np.vstack(pts)


def between_samples(arm: Arm, Q, gap, refine: int) -> np.ndarray:
    """Configurations ``refine`` times finer than consecutive samples Q, on the pieces
    where a contact could hide.

    No point of the arm moves farther than d_C * R across a piece, R being the sum
    over joints of the reach beyond that joint, so a piece whose two ends both
    clear by more than that cannot touch anything in between and is skipped.
    """
    reach = float(np.cumsum(arm.lengths[::-1]).sum())
    span = np.abs(np.diff(Q, axis=0)).max(axis=1)
    near = np.flatnonzero(np.minimum(gap[:-1], gap[1:]) <= span * reach)
    s = (np.arange(1, refine) / refine)[None, :, None]
    A, B = Q[near][:, None, :], Q[near + 1][:, None, :]
    return (A + (B - A) * s).reshape(-1, Q.shape[1])


_PERMUTATIONS: dict[int, np.ndarray] = {}


def best_tour_cost(W) -> float:
    """Cheapest closed tour from node 0 through every other node, by enumeration."""
    W = np.asarray(W, dtype=float)
    n = len(W) - 1
    if n == 0:
        return 0.0
    if n not in _PERMUTATIONS:
        _PERMUTATIONS[n] = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.intp)
    P = _PERMUTATIONS[n]
    cost = W[0, P[:, 0]] + W[P[:, -1], 0]
    for k in range(n - 1):
        cost = cost + W[P[:, k], P[:, k + 1]]
    return float(cost.min())


def tour_cost(W, order) -> float:
    """Closed-tour cost of visiting ``order`` (indices into W) from node 0 and back."""
    path = [0] + list(order) + [0]
    return float(sum(W[a][b] for a, b in zip(path, path[1:])))
