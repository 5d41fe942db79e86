"""2-D collision world: box/disc obstacles and capsule-link validity checks.

Links are capsules (segment plus radius), so all checks reduce to exact
segment/segment and segment/shape distance tests, which :func:`configs_valid`
runs for many configurations at once. Obstacles carry a tag separating the
static offline model from obstacles discovered online.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .kinematics import ArmModel, config_distance

OFFLINE = "offline"
ONLINE = "online"
KERNEL_ROWS = 1024  # a block's temporaries stay within a few MB


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
    """Immutable obstacle collection, with the kernel's arrays built once: rows
    (xmin, ymin, xmax, ymax) of ``boxes``, (x0, y0, x1, y1) of ``box_edges``
    (four per box, each ending where the next starts) and (x, y, r) of ``discs``."""

    obstacles: tuple = ()
    boxes: np.ndarray = field(init=False, repr=False, compare=False)
    box_edges: np.ndarray = field(init=False, repr=False, compare=False)
    discs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        obstacles = tuple(self.obstacles)
        boxes = [(o.xmin, o.ymin, o.xmax, o.ymax) for o in obstacles if isinstance(o, Box)]
        boxes = np.array(boxes, dtype=float).reshape(-1, 4)
        x0, y0, x1, y1 = boxes.T
        edges = np.stack((x0, y0, x1, y0, x1, y0, x1, y1, x1, y1, x0, y1, x0, y1, x0, y0), axis=1)
        discs = [(*o.center, o.radius) for o in obstacles if not isinstance(o, Box)]
        object.__setattr__(self, "obstacles", obstacles)
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "box_edges", edges.reshape(-1, 4))
        object.__setattr__(self, "discs", np.array(discs, dtype=float).reshape(-1, 3))

    def with_obstacles(self, extra) -> "Scene":
        return Scene(self.obstacles + tuple(extra))


# The kernel broadcasts the scalar capsule tests with their float formulas in the same
# order. It divides only by squared lengths of links and box edges, which are positive.

def _offset(wx, wy, vx, vy, vv):
    """Offset of the point start + (wx, wy) from its nearest point on the
    segment start + [0, 1] (vx, vy)."""
    t = np.minimum(np.maximum((wx * vx + wy * vy) / vv, 0.0), 1.0)
    return wx - t * vx, wy - t * vy


def _near(offsets, r, radius=0.0):
    """The scalar test ``max(0, min(hypot(x, y) for x, y in offsets) - radius) <= r``.
    The scalar code used ``math.hypot``, which is correctly rounded; ``np.hypot``
    can miss it by an ulp and flip an exact contact, so distances within 1e-15
    (a few ulps) of ``r + radius`` are measured again with ``math.hypot``."""
    d = np.minimum.reduce([np.hypot(x, y) for x, y in offsets])
    bound = r + radius
    redo = np.abs(d - bound) <= 1e-15 * bound
    if redo.any():
        d = np.array(np.broadcast_to(d, redo.shape))
        xy = [np.broadcast_to(a, redo.shape)[redo] for pair in offsets for a in pair]
        d[redo] = [min(map(math.hypot, row[::2], row[1::2])) for row in zip(*xy)]
    return np.maximum(0.0, d - radius) <= r


def _segs_hit(ax, ay, bx, by, cx, cy, dx, dy, r):
    """Segments AB and CD cross or come within ``r`` of each other."""
    vx, vy, ex, ey = bx - ax, by - ay, dx - cx, dy - cy
    vv, ee = vx * vx + vy * vy, ex * ex + ey * ey
    crossing = (((vx * (cy - ay) - vy * (cx - ax)) * (vx * (dy - ay) - vy * (dx - ax)) < 0)
                & ((ex * (ay - cy) - ey * (ax - cx)) * (ex * (by - cy) - ey * (bx - cx)) < 0))
    near = [_offset(cx - ax, cy - ay, vx, vy, vv), _offset(dx - ax, dy - ay, vx, vy, vv),
            _offset(ax - cx, ay - cy, ex, ey, ee), _offset(bx - cx, by - cy, ex, ey, ee)]
    return crossing | _near(near, r)


def configs_valid(arm: ArmModel, Q, scene: Scene) -> np.ndarray:
    """Row i is True iff configuration ``Q[i]`` is valid: no link capsule
    touches an obstacle and no two non-adjacent links collide. Rows are checked
    in blocks of at most ``KERNEL_ROWS``."""
    Q = np.asarray(Q, dtype=float).reshape(len(Q), arm.dof)
    m = len(Q)
    if m > KERNEL_ROWS:
        return np.concatenate([configs_valid(arm, Q[k:k + KERNEL_ROWS], scene)
                               for k in range(0, m, KERNEL_ROWS)])
    if arm.dof == 2 and not scene.obstacles:
        return np.ones(m, dtype=bool)
    ang, lengths, base = np.cumsum(Q, axis=1), np.array(arm.link_lengths), arm.base_position
    # joint points (rows, links + 1): the base, then the far end of each link
    x = np.cumsum(np.column_stack((np.full(m, base[0]), lengths * np.cos(ang))), axis=1)
    y = np.cumsum(np.column_stack((np.full(m, base[1]), lengths * np.sin(ang))), axis=1)
    # (rows, links, 1): link i runs from A = joint point i along (vx, vy); radii r
    ax, ay = x[:, :-1, None], y[:, :-1, None]
    vx, vy = x[:, 1:, None] - ax, y[:, 1:, None] - ay
    vv, r = vx * vx + vy * vy, np.array(arm.link_thickness)[:, None]
    hit = np.zeros(m, dtype=bool)
    if len(scene.boxes):
        # (rows, joint points or links, boxes or edges): a link touches a box
        # with an end point inside it, or one of its edges
        px, py, (x0, y0, x1, y1) = x[:, :, None], y[:, :, None], scene.boxes.T
        hit |= ((x0 <= px) & (px <= x1) & (y0 <= py) & (py <= y1)).any(axis=(1, 2))
        hit |= _segs_hit(ax, ay, px[:, 1:], py[:, 1:], *scene.box_edges.T, r).any(axis=(1, 2))
    if len(scene.discs):
        cx, cy, radius = scene.discs.T
        hit |= _near([_offset(cx - ax, cy - ay, vx, vy, vv)], r, radius).any(axis=(1, 2))
    # self-collision: adjacent links share a joint and are exempt
    for i in range(arm.dof):
        for j in range(i + 2, arm.dof):
            r_ij = arm.link_thickness[i] + arm.link_thickness[j]
            hit |= _segs_hit(x[:, i], y[:, i], x[:, i + 1], y[:, i + 1],
                             x[:, j], y[:, j], x[:, j + 1], y[:, j + 1], r_ij)
    return ~hit


def config_valid(arm: ArmModel, q, scene: Scene) -> bool:
    """True iff the one configuration ``q`` is valid (see :func:`configs_valid`)."""
    return bool(configs_valid(arm, np.asarray(q, dtype=float)[None], scene)[0])


def motion_valid(arm: ArmModel, a, b, scene: Scene, step: float = 0.05) -> bool:
    """True iff the straight configuration segment a->b is valid at resolution ``step``.

    The segment is sampled so consecutive samples differ by at most ``step``
    in L-infinity, endpoints included. The sample count is a power of two,
    so halving ``step`` refines to a superset of the coarse samples and can
    never flip an invalid motion back to valid. One kernel call checks them all.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    d = config_distance(a, b)
    n = 1
    while d / n > step:
        n *= 2
    samples = a + (b - a) * (np.arange(n + 1) / n)[:, None]
    return bool(configs_valid(arm, samples, scene).all())


@dataclass(frozen=True)
class Checker:
    """Validity of configurations and straight motions for one arm in one scene.

    ``step`` is the resolution of :meth:`motion`. The methods look up
    :func:`config_valid`, :func:`motion_valid` and :func:`configs_valid` in
    this module on every call, so a rebinding of those names sees every check.
    """

    arm: ArmModel
    scene: Scene
    step: float = 0.05

    def valid(self, q) -> bool:
        return config_valid(self.arm, q, self.scene)

    def valid_many(self, Q) -> np.ndarray:
        """One bool per row of ``Q``, as :meth:`valid` would give it."""
        return configs_valid(self.arm, Q, self.scene)

    def motion(self, a, b) -> bool:
        return motion_valid(self.arm, a, b, self.scene, self.step)

    def at_base(self, base) -> "Checker":
        """The checker for this arm moved to ``base``; ``None`` keeps this checker."""
        return self if base is None else replace(self, arm=self.arm.at_base(base))
