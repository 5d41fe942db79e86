"""The benchmark's own tests: smoke runs of every workload, and checks that reject
broken outputs.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_every_check(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert (result["attempted"], result["failed"]) == (1, 0)
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name in names:
        assert isinstance(result["metrics"][name]["value"], (int, float))


def test_traced_call_counts_repeat():
    counts = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "mission_rail", "--seed", "4",
             "--seconds", "1", "--trace", "1", "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]


@pytest.fixture(scope="module")
def tabletop():
    warnings.simplefilter("ignore")
    wl = workloads.MissionTabletop(5, 1)
    st = wl.setup()
    plan = wl.run(st, wl.inputs[0])
    assert wl.check(st, 0, plan) == []
    return wl, st, plan


def test_mission_check_rejects_missed_task(tabletop):
    wl, st, plan = tabletop
    bad = copy.deepcopy(plan)
    p = bad.visit_order.index(0)
    bad.visit_configs[p] = bad.visit_configs[p] + 1e-6
    assert any("misses" in e or "exactly at" in e for e in wl.check(st, 0, bad))


def test_mission_check_rejects_broken_chain(tabletop):
    wl, st, plan = tabletop
    bad = copy.deepcopy(plan)
    bad.legs[1].trajectory.waypoints[0] = bad.legs[1].trajectory.waypoints[0] + 1e-12
    assert any("exactly at" in e for e in wl.check(st, 0, bad))


def test_mission_check_rejects_leg_through_obstacle(tabletop):
    wl, st, plan = tabletop
    bad = copy.deepcopy(plan)
    wps = bad.legs[0].trajectory.waypoints
    # arm stretched along the x axis, through the box to the right of the base
    wps.insert(1, np.array([0.0, 0.0]))
    assert any("capsule contact" in e for e in wl.check(st, 0, bad))


def test_mission_check_rejects_group_order_not_flown(tabletop):
    wl, st, plan = tabletop
    bad = copy.deepcopy(plan)
    mi, visited = max(bad.group_orders.items(), key=lambda kv: len(kv[1]))
    bad.group_orders[mi] = visited[::-1]
    assert any("group orders differ" in e for e in wl.check(st, 0, bad))


def test_group_order_check_rejects_suboptimal_tour(tabletop):
    wl, st, plan = tabletop
    errors = []
    for mi, visited in plan.group_orders.items():
        if len(visited) >= 4:
            bad = copy.deepcopy(plan)
            bad.group_orders[mi] = visited[::2] + visited[1::2]
            errors += workloads.check_group_orders(st, wl.positions[0], bad)
    assert any("brute force" in e for e in errors)


@pytest.fixture(scope="module")
def three_link():
    warnings.simplefilter("ignore")
    wl = workloads.Decompose3Link(5, 1)
    st = wl.setup()
    dec, reports = wl.run(st, wl.inputs[0])
    assert wl.check(st, 0, (dec, reports)) == []
    return wl, st, dec, reports


def test_decomposition_check_rejects_verify_gha_edge_violation(three_link):
    wl, st, dec, reports = three_link
    bad = copy.deepcopy(reports)
    bad[0].edge_violations.append((0, 1, 1.0, 0.2))
    assert any("edge and" in e for e in wl.check(st, 0, (dec, bad)))


def test_decomposition_check_notes_geodesic_violation(three_link):
    wl, st, dec, reports = three_link
    bad = copy.deepcopy(reports)
    bad[0].geodesic_bound_violations.append((0, 1, 4, 1.0, 3.6))
    assert wl.check(st, 0, (dec, bad)) == []
    assert wl.geodesic_notes[-1] == (0, 0, 1)


def test_decomposition_check_rejects_unassigned_node(three_link):
    wl, st, dec, reports = three_link
    dec = copy.deepcopy(dec)
    m = dec.maps[0]
    leaf = next(n for n in sorted(m.assignment) if n != m.root
                and sum(n in e for e in m.tree_edges) == 1)
    del m.assignment[leaf]
    m.tree_edges = {e for e in m.tree_edges if leaf not in e}
    assert any("unassigned" in e for e in wl.check(st, 0, (dec, reports)))
