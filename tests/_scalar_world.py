"""The scalar capsule tests that ``world.configs_valid`` replaced, frozen.

One configuration, one link and one obstacle at a time, in plain Python
floats. The broadcast kernel must give the same answer on every row;
``tests/test_world.py`` checks that.
"""

import math

from armseq import Box, forward_kinematics


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


def config_valid(arm, q, scene) -> bool:
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
