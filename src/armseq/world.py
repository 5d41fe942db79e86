"""2-D collision world: box/disc obstacles and capsule-link validity checks.

Links are capsules (segment plus radius), so all checks reduce to exact
segment/segment and segment/shape distance tests. Obstacles carry a tag
separating the static offline model from obstacles discovered online.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kinematics import ArmModel, config_distance, forward_kinematics

OFFLINE = "offline"
ONLINE = "online"


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle obstacle."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float
    tag: str = OFFLINE

    def __post_init__(self):
        if self.xmin >= self.xmax or self.ymin >= self.ymax:
            raise ValueError("box must have min < max per axis")


@dataclass(frozen=True)
class Disc:
    """Circular obstacle."""

    center: tuple[float, float]
    radius: float
    tag: str = OFFLINE

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("disc radius must be positive")
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))


@dataclass(frozen=True)
class Scene:
    """Immutable obstacle collection."""

    obstacles: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))

    def with_obstacles(self, extra) -> "Scene":
        return Scene(self.obstacles + tuple(extra))


def _seg_point_dist(px, py, ax, ay, bx, by) -> float:
    vx, vy = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    vv = vx * vx + vy * vy
    if vv == 0.0:
        return math.hypot(wx, wy)
    t = min(1.0, max(0.0, (wx * vx + wy * vy) / vv))
    return math.hypot(wx - t * vx, wy - t * vy)


def _cross(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _seg_seg_dist(ax, ay, bx, by, cx, cy, dx, dy) -> float:
    d1 = _cross(ax, ay, bx, by, cx, cy)
    d2 = _cross(ax, ay, bx, by, dx, dy)
    d3 = _cross(cx, cy, dx, dy, ax, ay)
    d4 = _cross(cx, cy, dx, dy, bx, by)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return 0.0
    return min(
        _seg_point_dist(cx, cy, ax, ay, bx, by),
        _seg_point_dist(dx, dy, ax, ay, bx, by),
        _seg_point_dist(ax, ay, cx, cy, dx, dy),
        _seg_point_dist(bx, by, cx, cy, dx, dy),
    )


def _point_in_box(px, py, box: Box) -> bool:
    return box.xmin <= px <= box.xmax and box.ymin <= py <= box.ymax


def _seg_box_dist(ax, ay, bx, by, box: Box) -> float:
    if _point_in_box(ax, ay, box) or _point_in_box(bx, by, box):
        return 0.0
    edges = (
        (box.xmin, box.ymin, box.xmax, box.ymin),
        (box.xmax, box.ymin, box.xmax, box.ymax),
        (box.xmax, box.ymax, box.xmin, box.ymax),
        (box.xmin, box.ymax, box.xmin, box.ymin),
    )
    return min(_seg_seg_dist(ax, ay, bx, by, *e) for e in edges)


def _seg_obstacle_dist(ax, ay, bx, by, obstacle) -> float:
    if isinstance(obstacle, Box):
        return _seg_box_dist(ax, ay, bx, by, obstacle)
    cx, cy = obstacle.center
    return max(0.0, _seg_point_dist(cx, cy, ax, ay, bx, by) - obstacle.radius)


def config_valid(arm: ArmModel, q, scene: Scene) -> bool:
    """True iff no link capsule hits an obstacle and no non-adjacent links collide."""
    _, pts = forward_kinematics(arm, q)
    segs = [(pts[i][0], pts[i][1], pts[i + 1][0], pts[i + 1][1]) for i in range(arm.dof)]
    for i, seg in enumerate(segs):
        r = arm.link_thickness[i]
        for obstacle in scene.obstacles:
            if _seg_obstacle_dist(*seg, obstacle) <= r:
                return False
    # self-collision: adjacent links share a joint and are exempt
    for i in range(arm.dof):
        for j in range(i + 2, arm.dof):
            if _seg_seg_dist(*segs[i], *segs[j]) <= arm.link_thickness[i] + arm.link_thickness[j]:
                return False
    return True


def motion_valid(arm: ArmModel, a, b, scene: Scene, step: float = 0.05) -> bool:
    """True iff the straight configuration segment a->b is valid at resolution ``step``.

    The segment is sampled so consecutive samples differ by at most ``step``
    in L-infinity, endpoints included. The sample count is a power of two,
    so halving ``step`` refines to a superset of the coarse samples and can
    never flip an invalid motion back to valid.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = config_distance(a, b)
    if d == 0.0:
        return config_valid(arm, a, scene)
    n = 1
    while d / n > step:
        n *= 2
    diff = b - a
    for k in range(n + 1):
        if not config_valid(arm, a + diff * (k / n), scene):
            return False
    return True


@dataclass(frozen=True)
class Checker:
    """Validity of configurations and straight motions for one arm in one scene.

    ``step`` is the resolution of :meth:`motion`. Both methods look up
    :func:`config_valid` and :func:`motion_valid` in this module on every
    call, so a rebinding of those names sees every check.
    """

    arm: ArmModel
    scene: Scene
    step: float = 0.05

    def valid(self, q) -> bool:
        return config_valid(self.arm, q, self.scene)

    def motion(self, a, b) -> bool:
        return motion_valid(self.arm, a, b, self.scene, self.step)

    def at_base(self, base) -> "Checker":
        """The checker for this arm moved to ``base``; ``None`` keeps this checker."""
        return self if base is None else replace(self, arm=self.arm.at_base(base))
