import math

import numpy as np
import pytest

from armseq import (ArmModel, Box, Checker, Disc, Scene, config_valid, forward_kinematics,
                    motion_valid, world)


def _segments_intersect(p1, p2, p3, p4):
    """Orientation-based proper/touching segment intersection (test oracle)."""
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    d1 = cross(p3, p4, p1)
    d2 = cross(p3, p4, p2)
    d3 = cross(p1, p2, p3)
    d4 = cross(p1, p2, p4)
    return d1 * d2 <= 0 and d3 * d4 <= 0


def test_empty_scene_always_valid(arm2, empty_scene):
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = rng.uniform(-math.pi, math.pi, size=2)
        assert config_valid(arm2, q, empty_scene)


def test_box_on_second_link(arm2):
    scene = Scene((Box(1.5, -0.1, 1.7, 0.1),))
    assert not config_valid(arm2, np.array([0.0, 0.0]), scene)
    assert config_valid(arm2, np.array([math.pi / 2, 0.0]), scene)


def test_disc_collision(arm2):
    scene = Scene((Disc((1.0, 0.3), 0.2),))
    assert not config_valid(arm2, np.array([0.0, math.pi / 2]), scene)


def test_self_collision_folded_three_link(empty_scene):
    arm = ArmModel(link_lengths=(1.0, 1.0, 1.0), joint_limits=((-math.pi, math.pi),) * 3,
                   link_thickness=(0.02, 0.02, 0.02))
    q = np.array([0.0, 2.8, 2.8])
    _, joints = forward_kinematics(arm, q)
    # oracle: link 3 crosses link 1
    assert _segments_intersect(joints[0], joints[1], joints[2], joints[3])
    assert not config_valid(arm, q, empty_scene)
    q_open = np.array([0.0, 0.4, 0.4])
    _, joints = forward_kinematics(arm, q_open)
    assert not _segments_intersect(joints[0], joints[1], joints[2], joints[3])
    assert config_valid(arm, q_open, empty_scene)


def test_motion_valid_single_sample(arm2, empty_scene):
    q = np.array([0.3, -0.7])
    assert motion_valid(arm2, q, q, empty_scene)


def test_motion_valid_empty_scene(arm2, empty_scene):
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.uniform(-math.pi, math.pi, size=(2, 2))
        assert motion_valid(arm2, a, b, empty_scene)


def test_motion_invalid_through_swept_box(arm2):
    a = np.array([0.0, 0.0])
    b = np.array([math.pi / 2, 0.0])
    # place a box on the tip position of the sweep midpoint (dense-sampling oracle)
    mid_tip, _ = forward_kinematics(arm2, (a + b) / 2)
    box = Box(mid_tip[0] - 0.05, mid_tip[1] - 0.05, mid_tip[0] + 0.05, mid_tip[1] + 0.05)
    scene = Scene((box,))
    assert config_valid(arm2, a, scene)
    assert config_valid(arm2, b, scene)
    assert not motion_valid(arm2, a, b, scene)


def test_motion_valid_symmetry(arm2):
    rng = np.random.default_rng(11)
    scene = Scene((Box(0.4, 0.4, 0.9, 0.9), Disc((-0.8, 0.5), 0.25)))
    for _ in range(40):
        a, b = rng.uniform(-math.pi, math.pi, size=(2, 2))
        assert motion_valid(arm2, a, b, scene) == motion_valid(arm2, b, a, scene)


def test_refining_step_never_flips_false_to_true(arm2):
    rng = np.random.default_rng(17)
    scene = Scene((Box(0.3, 0.2, 1.1, 0.8), Disc((-0.7, -0.6), 0.3)))
    flips = 0
    falses = 0
    for _ in range(80):
        a, b = rng.uniform(-math.pi, math.pi, size=(2, 2))
        if not motion_valid(arm2, a, b, scene, step=0.2):
            falses += 1
            if motion_valid(arm2, a, b, scene, step=0.1):
                flips += 1
    assert falses > 5  # the property must actually be exercised
    assert flips == 0


def test_config_valid_against_dense_point_oracle(arm2):
    """Capsule test versus dense point sampling of the link centrelines."""
    from armseq.world import _seg_obstacle_dist

    rng = np.random.default_rng(23)
    agree = 0
    total = 0
    for _ in range(100):
        obstacles = []
        for _ in range(rng.integers(1, 4)):
            if rng.random() < 0.5:
                x, y = rng.uniform(-1.6, 1.6, size=2)
                w, h = rng.uniform(0.1, 0.5, size=2)
                obstacles.append(Box(x, y, x + w, y + h))
            else:
                obstacles.append(Disc(tuple(rng.uniform(-1.6, 1.6, size=2)),
                                      float(rng.uniform(0.05, 0.3))))
        scene = Scene(tuple(obstacles))
        for _ in range(5):
            q = rng.uniform(-math.pi, math.pi, size=2)
            total += 1
            got = config_valid(arm2, q, scene)
            _, joints = forward_kinematics(arm2, q)
            oracle_hit = False
            for i in range(2):
                a, b = joints[i], joints[i + 1]
                for s in np.linspace(0.0, 1.0, 200):
                    p = a + s * (b - a)
                    for o in obstacles:
                        if isinstance(o, Box):
                            dx = max(o.xmin - p[0], 0.0, p[0] - o.xmax)
                            dy = max(o.ymin - p[1], 0.0, p[1] - o.ymax)
                            d = math.hypot(dx, dy)
                        else:
                            d = max(0.0, math.hypot(p[0] - o.center[0], p[1] - o.center[1]) - o.radius)
                        if d <= arm2.link_thickness[i]:
                            oracle_hit = True
                            break
                    if oracle_hit:
                        break
                if oracle_hit:
                    break
            if got == (not oracle_hit):
                agree += 1
            else:
                # disagreement allowed only in the near-tangency band
                clearance = min(
                    _seg_obstacle_dist(joints[i][0], joints[i][1],
                                       joints[i + 1][0], joints[i + 1][1], o)
                    for i in range(2) for o in obstacles
                )
                r = max(arm2.link_thickness)
                assert abs(clearance - r) <= r
    assert agree / total >= 0.99


def test_checker_matches_module_functions(arm2):
    scene = Scene((Box(1.2, 1.2, 1.7, 1.7),))
    check = Checker(arm2, scene, step=0.1)
    rng = np.random.default_rng(11)
    for _ in range(30):
        a, b = rng.uniform(-math.pi, math.pi, size=(2, 2))
        assert check.valid(a) == config_valid(arm2, a, scene)
        assert check.motion(a, b) == motion_valid(arm2, a, b, scene, step=0.1)


def test_checker_calls_through_module_names(arm2, empty_scene, monkeypatch):
    # a rebinding of world.config_valid / world.motion_valid sees every check
    calls = []
    for name in ("config_valid", "motion_valid"):
        fn = getattr(world, name)
        monkeypatch.setattr(world, name,
                            lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
    check = Checker(arm2, empty_scene)
    q = np.array([0.1, 0.2])
    assert check.valid(q) and check.motion(q, q + 0.01)
    assert calls == ["config_valid", "motion_valid", "config_valid", "config_valid"]
