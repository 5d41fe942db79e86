import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _scalar_world
from armseq import (ArmModel, Box, Checker, Disc, Scene, TaskPoint, config_valid,
                    forward_kinematics, ik_solutions, motion_valid, world)
from armseq.kinematics import _two_link_branches


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
                    _scalar_world._seg_obstacle_dist(joints[i][0], joints[i][1],
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
    assert calls == ["config_valid", "motion_valid"]


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _lattice(lo, hi):
    return st.integers(int(lo * 16), int(hi * 16)).map(lambda k: k / 16)


@st.composite
def _kernel_cases(draw):
    """An arm, a box/disc scene and configuration rows. The scene's last
    obstacle is placed beside one link of the first row, ``gap`` beyond the
    link's capsule surface, so that row is within 1e-9 of contact, or the
    link's radius is set to its distance, so that row touches it; a 3-link
    arm also gets rows as near to touching itself, and the last row may have
    a link deep inside a box. In lattice cases every
    length lies on a 1/16 grid, the first row is all zeros and the gap is
    zero, so that row touches the obstacle exactly."""
    lattice = draw(st.booleans())
    num = _lattice if lattice else _floats
    dof = draw(st.sampled_from((2, 3)))
    arm = ArmModel(link_lengths=[draw(num(0.125, 1.2)) for _ in range(dof)],
                   joint_limits=((-math.pi, math.pi),) * dof,
                   link_thickness=[draw(num(0.0625, 0.1)) for _ in range(dof)],
                   base_position=(draw(num(-0.5, 0.5)), draw(num(-0.5, 0.5))))
    obstacles = []
    for _ in range(draw(st.integers(0, 3))):
        x, y = draw(num(-2.0, 2.0)), draw(num(-2.0, 2.0))
        if draw(st.booleans()):
            obstacles.append(Box(x, y, x + draw(num(0.0625, 0.8)), y + draw(num(0.0625, 0.8))))
        else:
            obstacles.append(Disc((x, y), draw(num(0.0625, 0.5))))
    rows = draw(st.lists(st.tuples(*[_floats(-4.0, 4.0)] * dof), min_size=1, max_size=12))
    q = np.zeros(dof) if lattice else np.array(rows[0])
    link = draw(st.integers(0, dof - 1))
    gap = 0.0 if lattice else draw(st.sampled_from((0.0, 1e-12, -1e-12, 1e-9, -1e-9)))
    _, joints = forward_kinematics(arm, q)
    a, b = joints[link], joints[link + 1]
    r = arm.link_thickness[link]
    size = draw(num(0.0625, 0.5))
    normal = np.array([a[1] - b[1], b[0] - a[0]]) / math.hypot(*(b - a))
    kind = draw(st.sampled_from(("disc", "box side", "box corner")))
    if kind == "disc":
        # disc beside the link's middle, along its normal
        centre = (a + b) / 2 + normal * (r + size + gap)
        near = Disc((centre[0], centre[1]), size)
    elif kind == "box side":
        # box to the right of the link's rightmost end, centred on its height
        p = a if a[0] > b[0] else b
        near = Box(p[0] + r + gap, p[1] - size, p[0] + r + gap + size, p[1] + size)
    else:
        # box with one corner beside the link's middle, extending away from it
        c = (a + b) / 2 + normal * (r + gap)
        x0 = c[0] if normal[0] >= 0 else c[0] - size
        y0 = c[1] if normal[1] >= 0 else c[1] - size
        near = Box(x0, y0, x0 + size, y0 + size)
    dist = _scalar_world._seg_obstacle_dist(a[0], a[1], b[0], b[1], near)
    assert abs(dist - r) <= 1e-9 + 1e-12
    if not lattice and draw(st.booleans()):
        # the link's radius becomes that distance: an exact tie in the reference's floats
        arm = replace(arm, link_thickness=[dist if i == link else t
                                           for i, t in enumerate(arm.link_thickness)])
    if len(rows) > 1 and draw(st.booleans()):
        # a box holding one link of the last row with room to spare: only the
        # end-point-in-box test sees it, no edge comes near the capsule
        _, joints = forward_kinematics(arm, np.array(rows[-1]))
        i = draw(st.integers(0, dof - 1))
        (xa, ya), (xb, yb) = joints[i], joints[i + 1]
        m = arm.link_thickness[i] + size
        obstacles.append(Box(min(xa, xb) - m, min(ya, yb) - m, max(xa, xb) + m, max(ya, yb) + m))
    rows = [q, q + 1e-12, q - 1e-12] + [np.array(row) for row in rows[1:]]
    if dof == 3:
        # folded rows whose tip lies beside link 0, ``gap`` beyond the contact
        # of the capsules of links 0 and 2
        l0, l1, l2 = arm.link_lengths
        h = arm.link_thickness[0] + arm.link_thickness[2] + gap
        along = draw(_floats(0.0, 1.0))
        for t1, t2 in _two_link_branches(l1, l2, -(1.0 - along) * l0, h):
            rows.append(np.array([0.0, t1, t2]))
    return arm, Scene(tuple(obstacles) + (near,)), np.array(rows)


@settings(max_examples=300)
@given(_kernel_cases())
def test_configs_valid_matches_scalar_reference(case):
    arm, scene, rows = case
    got = world.configs_valid(arm, rows, scene)
    assert got.dtype == bool and got.shape == (len(rows),)
    assert got.tolist() == [_scalar_world.config_valid(arm, q, scene) for q in rows]
    assert type(config_valid(arm, rows[0], scene)) is bool


def test_configs_valid_breaks_exact_ties_as_math_hypot():
    # a disc and a box corner beyond the tip of a 2-link arm at q = 0, and the
    # tip link's radius set to the reference's distance: every case is an exact
    # tie, and np.hypot rounds some of these distances an ulp off math.hypot
    rng = np.random.default_rng(3)
    rounded_apart = 0
    for cx, cy in rng.uniform(0.1, 0.3, (500, 2)) + (1.0, 0.0):
        for near in (Disc((cx, cy), 0.0625), Box(cx, cy, cx + 0.5, cy + 0.5)):
            d = _scalar_world._seg_obstacle_dist(0.5, 0.0, 1.0, 0.0, near)
            arm = ArmModel(link_lengths=[0.5, 0.5], joint_limits=((-math.pi, math.pi),) * 2,
                           link_thickness=[0.01, d])
            scene = Scene((near,))
            assert not _scalar_world.config_valid(arm, np.zeros(2), scene)
            assert not world.configs_valid(arm, np.zeros((1, 2)), scene)[0]
        rounded_apart += np.hypot(cx - 1.0, cy) != math.hypot(cx - 1.0, cy)
    assert rounded_apart > 0


def test_kernel_calls_per_motion_and_ik_set(arm3, monkeypatch):
    # a motion is one kernel call over all its samples, an IK set one over its
    # candidates that reach the target (none for an unreachable one)
    calls = []
    kernel = world.configs_valid
    monkeypatch.setattr(world, "configs_valid", lambda *a: calls.append(len(a[1])) or kernel(*a))
    check = Checker(arm3, Scene((Box(0.8, -0.5, 1.15, 0.1), Disc((-0.6, 0.7), 0.15))))
    rng = np.random.default_rng(5)
    motions = [tuple(rng.uniform(-math.pi, math.pi, size=(2, 3))) for _ in range(20)]
    motions.append((np.zeros(3), np.zeros(3)))
    results = set()
    for a, b in motions:
        calls.clear()
        results.add(check.motion(a, b))
        assert len(calls) == 1
    assert results == {True, False}
    sizes = []
    for target in ((1.0, 0.6), (-0.9, 0.4), (0.2, 1.3), (3.0, 3.0)):
        calls.clear()
        kept = ik_solutions(check, TaskPoint(target))
        assert len(calls) == 1
        sizes.append((calls[0], len(kept)))
    assert sizes[-1] == (0, 0)
    assert all(c >= n > 0 for c, n in sizes[:-1])
