"""Every validity question goes through a ``world.Checker``.

A checker that disagrees with the collision world shows which functions ask
it: whatever they return must satisfy the checker, not the world. The source
scan keeps the collision kernels behind the checker.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from armseq import (Checker, CostOracle, NoIkSolutionsError, Scene, TaskPoint,
                    gtsp_bruteforce, home_config, ik_solutions, match_task,
                    naive_sequence, robotsp_sequence)

SRC = Path(__file__).resolve().parent.parent / "src" / "armseq"
TASKS = [TaskPoint((1.0, 1.0)), TaskPoint((0.4, 1.2)), TaskPoint((1.3, 0.5))]
HOME_TASK = TaskPoint((0.9, 0.9))


class _ElbowUp(Checker):
    """Accepts a configuration iff q[1] >= 0, and a straight motion iff both
    endpoints are accepted (exact, since the half-space is convex)."""

    def valid(self, q):
        return bool(q[1] >= 0.0)

    def motion(self, a, b):
        return self.valid(a) and self.valid(b)


class _RejectAll(Checker):
    def valid(self, q):
        return False

    def motion(self, a, b):
        return False


def _route_outputs(check, dec):
    """Every configuration that the checker-driven functions choose."""
    node = dec.maps[0].assigned_nodes()[0]
    task = TaskPoint(dec.graphs[0].nodes[node].position)
    yield from ik_solutions(check, task)
    yield match_task(task, dec, 10, 0.7, check).task_config
    yield home_config(dec, task, check)
    yield from naive_sequence(TASKS, check, HOME_TASK).visit_configs
    yield from robotsp_sequence(TASKS, check, HOME_TASK).visit_configs
    assign, _, cost = gtsp_bruteforce(TASKS, HOME_TASK, CostOracle(check))
    assert np.isfinite(cost)
    yield from assign


def test_checker_decides_every_choice(tabletop_scenario, tabletop_decomposition):
    arm = tabletop_scenario.arm
    # the world accepts both elbow branches of a free task; the checker only one
    assert any(q[1] < 0 for q in ik_solutions(Checker(arm, Scene()), TASKS[0]))
    chosen = list(_route_outputs(_ElbowUp(arm, Scene()), tabletop_decomposition))
    assert len(chosen) > 10
    assert all(q[1] >= 0.0 for q in chosen)


def test_rejecting_checker_leaves_no_ik(tabletop_scenario, tabletop_decomposition):
    dec = tabletop_decomposition
    check = _RejectAll(tabletop_scenario.arm, Scene())
    task = TaskPoint(dec.graphs[0].nodes[dec.maps[0].assigned_nodes()[0]].position)
    assert ik_solutions(check, task) == []
    oracle = CostOracle(check, timeout=0.05)
    calls = [lambda: match_task(task, dec, 10, 0.7, check),
             lambda: home_config(dec, task, check)]
    # without home_q the home task fails first; with it, the mission's tasks do
    for home_q in (None, np.zeros(2)):
        calls += [lambda h=home_q: naive_sequence(TASKS, check, HOME_TASK, h),
                  lambda h=home_q: robotsp_sequence(TASKS, check, HOME_TASK, h),
                  lambda h=home_q: gtsp_bruteforce(TASKS, HOME_TASK, oracle, h)]
    for call in calls:
        with pytest.raises(NoIkSolutionsError):
            call()


def test_at_base_none_keeps_arm_and_checker(arm2):
    check = _ElbowUp(arm2, Scene())
    assert arm2.at_base(None) is arm2
    assert check.at_base(None) is check
    moved = check.at_base((0.5, -0.25))
    assert type(moved) is _ElbowUp and moved.scene is check.scene
    assert moved.arm == arm2.at_base((0.5, -0.25))


def _imported(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        mod = node.module or ""
        return [mod] + ["%s.%s" % (mod, a.name) for a in node.names]
    return []


def test_only_world_calls_the_collision_kernels():
    kernels = {"config_valid", "motion_valid"}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "world.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                assert name not in kernels, "%s:%d calls %s" % (path.name, node.lineno, name)


def test_kinematics_imports_nothing_from_world():
    path = SRC / "kinematics.py"
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        for name in _imported(node):
            assert "world" not in name.split("."), "kinematics.py:%d imports %s" % (
                node.lineno, name)
