"""Planar serial-arm model: forward kinematics, analytic IK enumeration and metrics.

The arm is a chain of 2 or 3 revolute joints with capsule-shaped links.
Configurations are plain numpy arrays of joint angles (radians). Angles are
never wrapped: the joint limits define a bounded box, so the L-infinity
distance below is a true metric without any quotient topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

TIP_TOLERANCE = 1e-9
IK_DEDUP_TOLERANCE = 1e-6

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ArmModel:
    """A 2- or 3-link revolute planar arm anchored at ``base_position``.

    ``link_thickness`` gives the capsule radius per link; ``free_joint_resolution``
    is the sweep step for the first joint of the redundant 3-link variant.
    """

    link_lengths: tuple[float, ...]
    joint_limits: tuple[tuple[float, float], ...]
    link_thickness: tuple[float, ...] = ()
    base_position: tuple[float, float] = (0.0, 0.0)
    max_joint_velocity: tuple[float, ...] = ()
    free_joint_resolution: float = 0.1

    def __post_init__(self):
        lengths = tuple(float(x) for x in self.link_lengths)
        object.__setattr__(self, "link_lengths", lengths)
        if len(lengths) not in (2, 3):
            raise ValueError("arm must have 2 or 3 links, got %d" % len(lengths))
        if any(x <= 0 for x in lengths):
            raise ValueError("link lengths must be positive")
        limits = tuple((float(lo), float(hi)) for lo, hi in self.joint_limits)
        object.__setattr__(self, "joint_limits", limits)
        if len(limits) != len(lengths):
            raise ValueError("need one joint-limit interval per link")
        if any(lo >= hi for lo, hi in limits):
            raise ValueError("joint limits must satisfy lower < upper")
        thick = tuple(float(x) for x in self.link_thickness) or (0.02,) * len(lengths)
        object.__setattr__(self, "link_thickness", thick)
        if len(thick) != len(lengths) or any(x <= 0 for x in thick):
            raise ValueError("need one positive capsule radius per link")
        vmax = tuple(float(x) for x in self.max_joint_velocity) or (1.0,) * len(lengths)
        object.__setattr__(self, "max_joint_velocity", vmax)
        if len(vmax) != len(lengths) or any(x <= 0 for x in vmax):
            raise ValueError("need one positive velocity limit per joint")
        object.__setattr__(self, "base_position", (float(self.base_position[0]), float(self.base_position[1])))
        values = (*lengths, *(v for pair in limits for v in pair), *thick, *vmax,
                  *self.base_position, self.free_joint_resolution)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("arm parameters must be finite")
        if self.free_joint_resolution <= 0:
            raise ValueError("free_joint_resolution must be positive")

    @property
    def dof(self) -> int:
        return len(self.link_lengths)

    def at_base(self, base) -> "ArmModel":
        """Same arm translated to a new base position; ``None`` keeps this arm."""
        if base is None:
            return self
        return replace(self, base_position=(float(base[0]), float(base[1])))


@dataclass(frozen=True)
class TaskPoint:
    """A 2-D end-effector target, optionally bound to a mobile-base pose."""

    position: tuple[float, float]
    base_index: int | None = None

    def __post_init__(self):
        pos = (float(self.position[0]), float(self.position[1]))
        if not all(math.isfinite(v) for v in pos):
            raise ValueError("task position must be finite")
        object.__setattr__(self, "position", pos)


def forward_kinematics(arm: ArmModel, q) -> tuple[np.ndarray, list[np.ndarray]]:
    """Return (tip, joint_positions) for configuration ``q``.

    ``joint_positions`` lists the base and every link endpoint in order,
    so its length is dof + 1 and its last entry equals ``tip``.
    """
    pts = [np.array(arm.base_position, dtype=float)]
    ang = 0.0
    for length, qi in zip(arm.link_lengths, q):
        ang += float(qi)
        pts.append(pts[-1] + length * np.array([math.cos(ang), math.sin(ang)]))
    return pts[-1], pts


def config_distance(a, b) -> float:
    """Configuration-space metric d_C: the L-infinity distance."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("configurations have mismatched DOF: %s vs %s" % (a.shape, b.shape))
    return float(np.abs(a - b).max())


def task_distance(s: TaskPoint, t: TaskPoint) -> float:
    """Task-space metric d_T: Euclidean distance between workspace targets."""
    if s.base_index != t.base_index:
        raise ValueError("cannot compare task points across base poses (%r vs %r)"
                         % (s.base_index, t.base_index))
    return math.hypot(s.position[0] - t.position[0], s.position[1] - t.position[1])


def _two_link_branches(l1: float, l2: float, dx: float, dy: float):
    """Elbow branches (first angle absolute, second relative) reaching (dx, dy)."""
    c2 = (dx * dx + dy * dy - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    if c2 > 1.0 + 1e-12 or c2 < -1.0 - 1e-12:
        return []
    c2 = min(1.0, max(-1.0, c2))
    heading = math.atan2(dy, dx)
    out = []
    for sign in (1.0, -1.0):
        t2 = sign * math.acos(c2)
        t1 = heading - math.atan2(l2 * math.sin(t2), l1 + l2 * math.cos(t2))
        out.append((t1, t2))
    return out


def _shifted_into(angle: float, lo: float, hi: float):
    """All 2*pi-shifted copies of ``angle`` lying inside [lo, hi]."""
    out = []
    a = angle + TWO_PI * math.ceil((lo - angle) / TWO_PI)
    while a <= hi:
        if a >= lo:
            out.append(a)
        a += TWO_PI
    return out


def _ik_candidates(arm: ArmModel, tx: float, ty: float) -> list[tuple[float, ...]]:
    bx, by = arm.base_position
    dx, dy = tx - bx, ty - by
    cands = []
    if arm.dof == 2:
        l1, l2 = arm.link_lengths
        for t1, t2 in _two_link_branches(l1, l2, dx, dy):
            for a1 in _shifted_into(t1, *arm.joint_limits[0]):
                for a2 in _shifted_into(t2, *arm.joint_limits[1]):
                    cands.append((a1, a2))
    else:
        l1, l2, l3 = arm.link_lengths
        lo, hi = arm.joint_limits[0]
        res = arm.free_joint_resolution
        steps = int(math.floor((hi - lo) / res + 1e-9))
        for i in range(steps + 1):
            q1 = lo + i * res
            ox, oy = l1 * math.cos(q1), l1 * math.sin(q1)
            for a2_abs, t3 in _two_link_branches(l2, l3, dx - ox, dy - oy):
                for q2 in _shifted_into(a2_abs - q1, *arm.joint_limits[1]):
                    for q3 in _shifted_into(t3, *arm.joint_limits[2]):
                        cands.append((q1, q2, q3))
    return cands


def _tip_miss(arm: ArmModel, q, tx: float, ty: float) -> float:
    """Tip distance of ``q`` from (tx, ty), in :func:`forward_kinematics`'s float steps."""
    x, y = arm.base_position
    ang = 0.0
    for length, qi in zip(arm.link_lengths, q):
        ang += qi
        x += length * math.cos(ang)
        y += length * math.sin(ang)
    return math.hypot(x - tx, y - ty)


def ik_solutions_many(check, targets) -> list[list[np.ndarray]]:
    """Valid IK set Q(t) of every (x, y) target t: the configurations of
    ``check.arm`` reaching t that ``check.valid_many`` accepts (``check`` is a
    :class:`armseq.world.Checker`), asked once for all targets' candidates.

    For 2 DOF this is the analytic elbow branch set; for 3 DOF the first joint
    is swept at ``free_joint_resolution`` and the remaining 2-link subproblem is
    solved analytically. Each set is deduplicated (pairwise d_C > 1e-6) and
    sorted lexicographically by angles, so identical inputs give identical lists.
    An empty list means the target is unreachable or fully colliding.
    """
    arm = check.arm
    cands, first = [], [0]
    for tx, ty in targets:
        tx, ty = float(tx), float(ty)
        cands += [q for q in _ik_candidates(arm, tx, ty)
                  if _tip_miss(arm, q, tx, ty) <= TIP_TOLERANCE]
        first.append(len(cands))
    ok = check.valid_many(np.array(cands, dtype=float).reshape(len(cands), arm.dof))
    out = []
    for a, b in zip(first, first[1:]):
        rows = np.array(sorted(q for q, good in zip(cands[a:b], ok[a:b]) if good),
                        dtype=float).reshape(-1, arm.dof)
        n = 0
        for q in rows:
            if (np.abs(rows[:n] - q).max(axis=1) > IK_DEDUP_TOLERANCE).all():
                rows[n] = q
                n += 1
        out.append([q.copy() for q in rows[:n]])  # a kept row holds no other row
    return out


def ik_solutions(check, task: TaskPoint) -> list[np.ndarray]:
    """Valid IK set Q(t) of one task (see :func:`ik_solutions_many`)."""
    return ik_solutions_many(check, [task.position])[0]
