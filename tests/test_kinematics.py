import math

import numpy as np
import pytest

from armseq import (ArmModel, Checker, Scene, TaskPoint, config_distance,
                    forward_kinematics, ik_solutions, task_distance)


def test_fk_straight_chain(arm2):
    tip, joints = forward_kinematics(arm2, [0.0, 0.0])
    assert np.allclose(tip, [2.0, 0.0])
    assert len(joints) == 3
    assert np.allclose(joints[0], [0.0, 0.0])
    assert np.allclose(joints[1], [1.0, 0.0])


def test_fk_rotated(arm2):
    tip, _ = forward_kinematics(arm2, [math.pi / 2, 0.0])
    assert np.allclose(tip, [0.0, 2.0], atol=1e-12)
    tip, _ = forward_kinematics(arm2, [math.pi / 2, -math.pi / 2])
    assert np.allclose(tip, [1.0, 1.0], atol=1e-12)


def test_fk_translated_base(arm2):
    arm = arm2.at_base((0.5, -0.25))
    tip, joints = forward_kinematics(arm, [0.0, 0.0])
    assert np.allclose(tip, [2.5, -0.25])
    assert np.allclose(joints[0], [0.5, -0.25])


def test_ik_boundary_single_solution(check2):
    sols = ik_solutions(check2, TaskPoint((2.0, 0.0)))
    assert len(sols) == 1
    assert np.allclose(sols[0], [0.0, 0.0], atol=1e-9)


def test_ik_unreachable_empty(check2):
    assert ik_solutions(check2, TaskPoint((3.0, 0.0))) == []


def test_ik_two_branches(check2):
    sols = ik_solutions(check2, TaskPoint((1.0, 1.0)))
    assert len(sols) == 2
    assert np.allclose(sols[0], [0.0, math.pi / 2], atol=1e-9)
    assert np.allclose(sols[1], [math.pi / 2, -math.pi / 2], atol=1e-9)


def test_ik_round_trip_random_targets(arm2, check2):
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(200):
        r = rng.uniform(0.2, 1.95)
        phi = rng.uniform(-math.pi, math.pi)
        target = (r * math.cos(phi), r * math.sin(phi))
        for q in ik_solutions(check2, TaskPoint(target)):
            tip, _ = forward_kinematics(arm2, q)
            assert math.hypot(tip[0] - target[0], tip[1] - target[1]) <= 1e-9
            assert all(lo <= qi <= hi for qi, (lo, hi) in zip(q, arm2.joint_limits))
            checked += 1
    assert checked > 300


def test_ik_three_dof_sweeps_free_joint(arm3, empty_scene):
    sols = ik_solutions(Checker(arm3, empty_scene), TaskPoint((0.8, 0.4)))
    assert len(sols) > 20  # one or two solutions per swept first-joint value
    target = np.array([0.8, 0.4])
    for q in sols:
        tip, _ = forward_kinematics(arm3, q)
        assert np.linalg.norm(tip - target) <= 1e-9
    # deduplicated and lexicographically sorted
    keys = [tuple(q) for q in sols]
    assert keys == sorted(keys)
    for a, b in zip(sols, sols[1:]):
        assert config_distance(a, b) > 1e-6


def test_ik_deterministic(check2):
    a = ik_solutions(check2, TaskPoint((0.7, 0.9)))
    b = ik_solutions(check2, TaskPoint((0.7, 0.9)))
    assert len(a) == len(b)
    for qa, qb in zip(a, b):
        assert np.array_equal(qa, qb)


def test_config_distance_examples():
    assert config_distance([0.0, 0.0], [1.0, -2.0]) == 2.0
    assert config_distance([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert config_distance([0.1, 0.2], [0.4, 0.2]) == pytest.approx(0.3)


def test_config_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        config_distance([0.0, 0.0], [1.0, 2.0, 3.0])


def test_task_distance_examples():
    assert task_distance(TaskPoint((0.0, 0.0)), TaskPoint((3.0, 4.0))) == pytest.approx(5.0)
    t = TaskPoint((0.4, -0.2))
    assert task_distance(t, t) == 0.0
    assert task_distance(TaskPoint((1.0, 0.0)), TaskPoint((0.0, 1.0))) == pytest.approx(math.sqrt(2))


def test_task_distance_base_mismatch():
    with pytest.raises(ValueError):
        task_distance(TaskPoint((0.0, 0.0), base_index=0), TaskPoint((1.0, 0.0), base_index=1))


def test_metric_axioms_random_triples():
    rng = np.random.default_rng(5)
    for _ in range(300):
        a, b, c = rng.uniform(-3, 3, size=(3, 2))
        dab = config_distance(a, b)
        dba = config_distance(b, a)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab >= 0.0
        assert config_distance(a, a) <= 1e-12
        assert dab <= config_distance(a, c) + config_distance(c, b) + 1e-12


def test_arm_model_validation():
    with pytest.raises(ValueError):
        ArmModel(link_lengths=(1.0,), joint_limits=((-1.0, 1.0),))
    with pytest.raises(ValueError):
        ArmModel(link_lengths=(1.0, -1.0), joint_limits=((-1.0, 1.0),) * 2)
    with pytest.raises(ValueError):
        ArmModel(link_lengths=(1.0, 1.0), joint_limits=((1.0, -1.0), (-1.0, 1.0)))
    with pytest.raises(ValueError):
        ArmModel(link_lengths=(1.0, 1.0), joint_limits=((-1.0, 1.0),) * 2,
                 free_joint_resolution=0.0)
    # non-finite entries; an infinite joint limit would make the IK enumeration endless
    with pytest.raises(ValueError):
        ArmModel(link_lengths=(1.0, math.nan), joint_limits=((-1.0, 1.0),) * 2)
    with pytest.raises(ValueError):
        ArmModel(link_lengths=(1.0, 1.0), joint_limits=((-1.0, math.inf), (-1.0, 1.0)))
    with pytest.raises(ValueError):
        ArmModel(link_lengths=(1.0, 1.0), joint_limits=((-1.0, 1.0),) * 2,
                 max_joint_velocity=(1.0, math.inf))
    with pytest.raises(ValueError):
        ArmModel(link_lengths=(1.0, 1.0), joint_limits=((-1.0, 1.0),) * 2,
                 free_joint_resolution=math.nan)


def test_ik_respects_collisions(arm2):
    # a disc sitting on the elbow-up elbow removes exactly that branch
    from armseq import Disc
    sols_free = ik_solutions(Checker(arm2, Scene()), TaskPoint((1.0, 1.0)))
    elbow_up_joint, _ = forward_kinematics(arm2, sols_free[0])
    _, joints = forward_kinematics(arm2, sols_free[0])
    elbow = joints[1]
    scene = Scene((Disc((float(elbow[0]), float(elbow[1])), 0.05),))
    sols = ik_solutions(Checker(arm2, scene), TaskPoint((1.0, 1.0)))
    assert len(sols) == 1
    assert config_distance(sols[0], sols_free[1]) <= 1e-9
