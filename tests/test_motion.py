import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from armseq import (HOME, ArmModel, Box, Checker, CostOracle, Leg, PlanningTimeoutError,
                    Scene, SeedInvalidError, SequencePlan, Trajectory, adapt_plan,
                    adapt_trajectory, config_distance, fallback_plan,
                    finite_difference_max_jerk, motion_valid, plan_leg,
                    trajectory_metrics)
from armseq.motion import SOURCE_ADAPTED, SOURCE_FALLBACK


def test_adapt_straight_valid_seed_unchanged(arm2, empty_scene):
    a, b = np.array([0.0, 0.0]), np.array([1.0, -0.5])
    seed = Trajectory([a, b])
    out = adapt_trajectory(seed, Checker(arm2, empty_scene))
    assert out.source == SOURCE_ADAPTED
    assert np.array_equal(out.waypoints[0], a)
    assert np.array_equal(out.waypoints[-1], b)
    assert out.length() == pytest.approx(seed.length(), abs=1e-12)
    assert len(out.waypoints) == 2  # the greedy pass skips every subdivision point


def test_adapt_detour_converges_to_straight(arm2, empty_scene):
    a = np.array([0.0, 0.0])
    b = np.array([1.2, 0.4])
    detour = Trajectory([a, np.array([0.4, 1.4]), np.array([0.9, -1.0]), b])
    out = adapt_trajectory(detour, Checker(arm2, empty_scene), rng_seed=1)
    assert out.length() == pytest.approx(config_distance(a, b), abs=1e-6)
    assert np.array_equal(out.waypoints[0], a)
    assert np.array_equal(out.waypoints[-1], b)


def test_adapt_never_lengthens_valid_seed(arm2):
    scene = Scene((Box(0.9, 0.9, 1.4, 1.4),))
    rng = np.random.default_rng(8)
    for trial in range(10):
        wps = [rng.uniform(-2.0, 2.0, size=2)]
        for _ in range(3):
            wps.append(np.clip(wps[-1] + rng.uniform(-0.8, 0.8, size=2), -3.1, 3.1))
        seed = Trajectory(wps)
        if not all(motion_valid(arm2, x, y, scene) for x, y in zip(wps, wps[1:])):
            continue
        out = adapt_trajectory(seed, Checker(arm2, scene), rng_seed=trial)
        assert out.length() <= seed.length() + 1e-12
        for x, y in zip(out.waypoints, out.waypoints[1:]):
            assert motion_valid(arm2, x, y, scene)


@given(start=st.tuples(*[st.floats(-math.pi, math.pi)] * 2),
       moves=st.lists(st.tuples(*[st.floats(-0.6, 0.6)] * 2), min_size=1, max_size=3),
       rng_seed=st.integers(0, 2 ** 32 - 1))
def test_adapt_keeps_endpoints_and_never_lengthens(tabletop_scenario, start, moves, rng_seed):
    sc = tabletop_scenario
    check = Checker(sc.arm, sc.full_scene(), sc.step)
    wps = [np.array(start)]
    for move in moves:
        wps.append(np.clip(wps[-1] + move, -math.pi, math.pi))
    assume(all(check.motion(x, y) for x, y in zip(wps, wps[1:])))
    seed = Trajectory(wps)
    out = adapt_trajectory(seed, check, rng_seed)
    assert np.array_equal(out.waypoints[0], wps[0])
    assert np.array_equal(out.waypoints[-1], wps[-1])
    assert out.length() <= seed.length() + 1e-12
    assert all(check.motion(x, y) for x, y in zip(out.waypoints, out.waypoints[1:]))


def test_adapt_seed_invalid_when_unrepairable(arm2):
    # the box reaches close enough to the base that a whole band of first-joint
    # angles is blocked; no 0.2 rad perturbation can bridge it
    scene = Scene((Box(0.5, 0.5, 1.8, 1.8),))
    a = np.array([0.0, 0.0])      # tip (2, 0)
    b = np.array([math.pi / 2, 0.0])  # tip (0, 2); sweep passes through the box
    seed = Trajectory([a, b])
    with pytest.raises(SeedInvalidError):
        adapt_trajectory(seed, Checker(arm2, scene), rng_seed=0)


def test_adapt_repairs_small_violation(arm2):
    # a small disc sits exactly on the middle waypoint's tip; perturbation clears it
    from armseq import Disc, forward_kinematics

    a = np.array([0.3, 0.9])
    b = np.array([0.9, 0.9])
    mid = np.array([0.6, 0.2])
    tip, _ = forward_kinematics(arm2, mid)
    scene = Scene((Disc((float(tip[0]), float(tip[1])), 0.05),))
    seed = Trajectory([a, mid, b])
    out = adapt_trajectory(seed, Checker(arm2, scene), rng_seed=1)
    for x, y in zip(out.waypoints, out.waypoints[1:]):
        assert motion_valid(arm2, x, y, scene)
    assert np.array_equal(out.waypoints[0], a)
    assert np.array_equal(out.waypoints[-1], b)


def test_adapt_deterministic(arm2):
    from armseq import Disc, forward_kinematics

    mid = np.array([0.6, 0.2])
    tip, _ = forward_kinematics(arm2, mid)
    scene = Scene((Disc((float(tip[0]), float(tip[1])), 0.05),))
    seed = Trajectory([np.array([0.3, 0.9]), mid, np.array([0.9, 0.9])])
    out1 = adapt_trajectory(seed, Checker(arm2, scene), rng_seed=4)
    out2 = adapt_trajectory(seed, Checker(arm2, scene), rng_seed=4)
    assert len(out1.waypoints) == len(out2.waypoints)
    for x, y in zip(out1.waypoints, out2.waypoints):
        assert np.array_equal(x, y)


def test_fallback_identical_endpoints(arm2, empty_scene):
    q = np.array([0.4, -0.8])
    out = fallback_plan(q, q, Checker(arm2, empty_scene))
    assert len(out.waypoints) == 1
    assert np.array_equal(out.waypoints[0], q)
    assert out.source == SOURCE_FALLBACK


def test_fallback_empty_scene_cost_bound(arm2, empty_scene):
    rng = np.random.default_rng(100)
    for seed in range(100):
        a, b = rng.uniform(-math.pi, math.pi, size=(2, 2))
        out = fallback_plan(a, b, Checker(arm2, empty_scene), rng_seed=seed)
        assert out.length() <= 1.5 * config_distance(a, b) + 1e-12
        assert np.array_equal(out.waypoints[0], a)
        assert np.array_equal(out.waypoints[-1], b)


def test_fallback_detours_around_obstacle(arm2):
    # box outside the first link's reach: the arm can fold past it
    scene = Scene((Box(1.2, 1.2, 1.7, 1.7),))
    a = np.array([0.0, 0.0])
    b = np.array([math.pi / 2, 0.0])
    assert not motion_valid(arm2, a, b, scene)
    out = fallback_plan(a, b, Checker(arm2, scene), timeout=5.0, rng_seed=2)
    assert np.array_equal(out.waypoints[0], a)
    assert np.array_equal(out.waypoints[-1], b)
    for x, y in zip(out.waypoints, out.waypoints[1:]):
        assert motion_valid(arm2, x, y, scene)
    assert out.length() > config_distance(a, b)  # genuine detour


def test_fallback_timeout_on_disconnected_component(arm2):
    # two small boxes close to the base wall off a band of first-joint angles
    scene = Scene((Box(0.2, 0.2, 0.5, 0.5), Box(0.2, -0.5, 0.5, -0.2)))
    start = np.array([math.pi, 0.0])
    goal = np.array([0.0, 0.0])
    from armseq import config_valid

    assert config_valid(arm2, start, scene)
    assert config_valid(arm2, goal, scene)
    with pytest.raises(PlanningTimeoutError):
        fallback_plan(start, goal, Checker(arm2, scene), timeout=0.4, rng_seed=1)


def test_fallback_deterministic(arm2):
    scene = Scene((Box(1.2, 1.2, 1.7, 1.7),))
    a = np.array([0.0, 0.0])
    b = np.array([math.pi / 2, 0.0])
    o1 = fallback_plan(a, b, Checker(arm2, scene), timeout=5.0, rng_seed=7)
    o2 = fallback_plan(a, b, Checker(arm2, scene), timeout=5.0, rng_seed=7)
    assert len(o1.waypoints) == len(o2.waypoints)
    for x, y in zip(o1.waypoints, o2.waypoints):
        assert np.array_equal(x, y)


# -------------------------------------------------------------- leg cascade
# The walled-off scene of test_fallback_timeout_on_disconnected_component: no
# path joins OUTSIDE to INSIDE, so that leg is unplannable on any host.

WALLED = Scene((Box(0.2, 0.2, 0.5, 0.5), Box(0.2, -0.5, 0.5, -0.2)))
OUTSIDE = np.array([math.pi, 0.0])
INSIDE = np.array([0.0, 0.0])


def test_plan_leg_unplannable_returns_none(arm2):
    assert plan_leg(Trajectory([OUTSIDE, INSIDE]), Checker(arm2, WALLED), timeout=0.4) is None


class _FakeChecker:
    """A checker with fixed answers, independent of any geometry."""

    def __init__(self, arm, motion_ok):
        self.arm, self.motion_ok = arm, motion_ok

    def valid(self, q):
        return True

    def valid_many(self, Q):
        return np.ones(len(Q), dtype=bool)

    def motion(self, a, b):
        return self.motion_ok


class _RejectsOneSegment(_FakeChecker):
    """Accepts every configuration and every motion but the one from ``a`` to ``c``."""

    def __init__(self, arm, a, c):
        super().__init__(arm, True)
        self.rejected = {(tuple(a), tuple(c)), (tuple(c), tuple(a))}

    def motion(self, p, q):
        return (tuple(p), tuple(q)) not in self.rejected


def test_adapt_keeps_waypoint_the_checker_needs(arm2):
    # b lies on the straight segment a-c, which the checker rejects; the
    # result keeps b, so every segment it returns passes check.motion
    a, b, c = np.array([0.0, 0.0]), np.array([0.2, 0.1]), np.array([0.4, 0.2])
    check = _RejectsOneSegment(arm2, a, c)
    out = adapt_trajectory(Trajectory([a, b, c]), check)
    assert [w.tolist() for w in out.waypoints] == [a.tolist(), b.tolist(), c.tolist()]
    assert all(check.motion(x, y) for x, y in zip(out.waypoints, out.waypoints[1:]))


def test_plan_leg_takes_any_checker(arm2):
    a, b = np.array([0.0, 0.0]), np.array([1.2, 0.4])
    detour = Trajectory([a, np.array([0.4, 1.4]), b])
    out = plan_leg(detour, _FakeChecker(arm2, True))
    assert [w.tolist() for w in out.waypoints] == [a.tolist(), b.tolist()]
    assert plan_leg(detour, _FakeChecker(arm2, False), timeout=0.05) is None


def test_adapt_plan_marks_unplannable_leg_invalid(arm2):
    beside = np.array([math.pi, 0.5])
    seeds = [Trajectory([OUTSIDE, beside]), Trajectory([beside, INSIDE])]
    plan = SequencePlan([Leg(HOME, 0, seeds[0]), Leg(0, 1, seeds[1])],
                        [HOME, 0, 1], [OUTSIDE, beside, INSIDE], 0.0)
    out = adapt_plan(plan, arm2, WALLED, timeout=0.4)
    ok, failed = out.legs
    assert ok.valid and ok.metrics is not None
    assert failed.valid is False and failed.metrics is None
    assert out.failed_legs() == [1]
    for x, y in zip(failed.trajectory.waypoints, seeds[1].waypoints, strict=True):
        assert np.array_equal(x, y)
    assert out.total_config_cost == ok.trajectory.length()


def test_cost_oracle_unplannable_leg_costs_inf(arm2):
    oracle = CostOracle(Checker(arm2, WALLED), timeout=0.4)
    assert oracle.cost(OUTSIDE, INSIDE) == math.inf
    assert oracle.cost(INSIDE, OUTSIDE) == math.inf
    assert oracle.leg(OUTSIDE, INSIDE)[1] is None


# ----------------------------------------------------------------------- metrics

def test_metrics_constant_trajectory(arm2, empty_scene):
    q = np.array([0.2, 0.2])
    m = trajectory_metrics(Trajectory([q, q.copy(), q.copy()]), Checker(arm2, empty_scene), 0.01)
    assert m.config_length == 0.0
    assert m.exec_time == 0.0
    assert m.max_jerk == 0.0
    assert m.valid


def test_metrics_single_segment(arm2, empty_scene):
    a, b = np.array([0.0, 0.0]), np.array([1.0, -2.0])
    m = trajectory_metrics(Trajectory([a, b]), Checker(arm2, empty_scene), 0.01)
    assert m.config_length == pytest.approx(2.0)
    # slowest joint runs 2 rad at 1 rad/s
    assert m.exec_time == pytest.approx(2.0)
    # constant-velocity ramp: interior third differences vanish
    assert m.max_jerk == pytest.approx(0.0, abs=1e-6)
    assert m.valid


def test_metrics_quintic_profile_matches_analytic():
    dt = 1e-3
    t = np.arange(0.0, 1.0 + dt / 2, dt)
    samples = t ** 5
    jerk = finite_difference_max_jerk(samples, dt)
    t_interior = t[-3]  # last sample with a full central stencil
    analytic = 60.0 * t_interior ** 2
    assert abs(jerk - analytic) / analytic < 0.005
    assert abs(jerk - 60.0) / 60.0 < 0.005  # the tau -> 1 limit


def test_metrics_quintic_dt_halving_stable():
    vals = []
    for dt in (1e-3, 5e-4):
        t = np.arange(0.0, 1.0 + dt / 2, dt)
        vals.append(finite_difference_max_jerk(t ** 5, dt))
    assert abs(vals[1] - vals[0]) / vals[0] < 0.01


def test_metrics_short_trajectories_zero_jerk():
    assert finite_difference_max_jerk(np.zeros((4, 2)), 0.01) == 0.0
    assert finite_difference_max_jerk(np.zeros((1, 2)), 0.01) == 0.0


def test_metrics_validity_flag(arm2):
    scene = Scene((Box(0.5, 0.5, 1.8, 1.8),))
    a = np.array([0.0, 0.0])
    b = np.array([math.pi / 2, 0.0])
    m = trajectory_metrics(Trajectory([a, b]), Checker(arm2, scene), 0.01)
    assert not m.valid


def test_adapt_and_fallback_pass_half_step_recheck(arm2):
    from armseq import Disc, forward_kinematics

    step = 0.05
    mid = np.array([0.6, 0.2])
    tip, _ = forward_kinematics(arm2, mid)
    scene = Scene((Disc((float(tip[0]), float(tip[1])), 0.05),))
    seed = Trajectory([np.array([0.3, 0.9]), mid, np.array([0.9, 0.9])])
    out = adapt_trajectory(seed, Checker(arm2, scene, step), rng_seed=6)
    for x, y in zip(out.waypoints, out.waypoints[1:]):
        assert motion_valid(arm2, x, y, scene, step / 2)
    fold_scene = Scene((Box(1.2, 1.2, 1.7, 1.7),))
    out = fallback_plan(np.array([0.0, 0.0]), np.array([math.pi / 2, 0.0]),
                        Checker(arm2, fold_scene, step), timeout=5.0, rng_seed=5)
    for x, y in zip(out.waypoints, out.waypoints[1:]):
        assert motion_valid(arm2, x, y, fold_scene, step / 2)
