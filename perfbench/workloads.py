"""The benchmark's workloads: seeded inputs, set-up, one operation, output checks.

Inputs come from the benchmark's own sampling in ``geometry`` (joint
configurations whose tips land in the task region clear of every obstacle),
never from armseq, so a change to the program cannot change what it is asked
to do. Checks recompute what they can from raw coordinates with the same
independent geometry.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

import geometry
from armseq import decomposition, sequencer, serialize, taskgraph
from armseq.kinematics import TaskPoint
from spans import SETUP

ROOT = Path(__file__).resolve().parent.parent
HOME = -1
TIP_TOLERANCE = 1e-9
# a sampled configuration must clear every obstacle by this much, so that
# rounding in the program's own collision check cannot reject it
SAMPLE_MARGIN = 1e-3
# legs are also scanned this many times finer than the program samples them
CHECK_REFINE = 64
CLEARANCE_TOLERANCE = 1e-9
BRUTE_FORCE_MAX = 8
PROBE_SEED = 20220910


def _scenario_dict(name: str) -> dict:
    with open(ROOT / "scenarios" / (name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def sample_tips(rng, arm: geometry.Arm, count: int, region, obstacles,
                base=(0.0, 0.0), away_from=(), free_joint_step=None) -> list[tuple[float, float]]:
    """Tips of uniformly sampled joint configurations that lie in ``region`` and clear
    every obstacle; ``away_from`` lists base poses the tip must be out of reach of.

    A redundant arm's IK sweeps its first joint over lo + i * ``free_joint_step``
    only, so that joint is drawn from the same grid and every tip stays solvable.
    """
    reach = float(arm.lengths.sum())
    x0, y0, x1, y1 = region
    out: list[tuple[float, float]] = []
    while len(out) < count:
        Q = rng.uniform(arm.limits[:, 0], arm.limits[:, 1], size=(64, arm.dof))
        if free_joint_step is not None:
            lo, hi = arm.limits[0]
            steps = int(math.floor((hi - lo) / free_joint_step + 1e-9))
            Q[:, 0] = lo + rng.integers(0, steps + 1, size=len(Q)) * free_joint_step
        T = geometry.tips(arm, Q, base)
        keep = ((T[:, 0] >= x0) & (T[:, 0] <= x1) & (T[:, 1] >= y0) & (T[:, 1] <= y1)
                & (geometry.clearance(arm, Q, obstacles, base) > SAMPLE_MARGIN))
        for bx, by in away_from:
            keep &= np.hypot(T[:, 0] - bx, T[:, 1] - by) > reach + SAMPLE_MARGIN
        out.extend((float(x), float(y)) for x, y in T[keep])
    return out[:count]


@dataclasses.dataclass
class MissionState:
    """What set-up hands to the operations: the round-tripped decomposition and scenario."""

    dec: object
    scenario: object
    scene: object
    params: object
    _paths: dict = dataclasses.field(default_factory=dict)

    def map_paths(self, mi: int):
        """All-pairs shortest d_C paths over map ``mi``'s assigned subgraph (Floyd-Warshall)."""
        if mi not in self._paths:
            m = self.dec.maps[mi]
            graph = self.dec.graph_for(m)
            nodes = sorted(m.assignment)
            index = {n: i for i, n in enumerate(nodes)}
            D = np.full((len(nodes), len(nodes)), np.inf)
            np.fill_diagonal(D, 0.0)
            for u in nodes:
                for v, _ in graph.neighbors(u):
                    if v in index:
                        D[index[u], index[v]] = geometry.linf(m.assignment[u], m.assignment[v])
            for k in range(len(nodes)):
                D = np.minimum(D, D[:, k, None] + D[None, k, :])
            self._paths[mi] = (index, D)
        return self._paths[mi]


def set_up_missions(raw: dict, tracer=None) -> MissionState:
    """Task graph, map search, verification and an artifact round trip, as
    ``armseq decompose`` followed by ``armseq sequence`` does."""
    scenario = serialize.Scenario(raw)
    if scenario.base_poses:
        dec = decomposition.decompose_mobile(
            scenario.grid_region, scenario.grid_spacing, scenario.connection_radius,
            scenario.base_poses, scenario.arm, scenario.scene, scenario.decomposition,
            scenario.edge_check_count)
    else:
        graph = taskgraph.build_graph(
            taskgraph.build_task_grid(scenario.grid_region, scenario.grid_spacing),
            scenario.connection_radius, scenario.arm, scenario.scene, scenario.edge_check_count)
        dec = decomposition.decompose(graph, scenario.decomposition)
    reports = [decomposition.verify_gha(m, dec.graph_for(m), scenario.decomposition.epsilon)
               for m in dec.maps]
    if not all(r.clean() for r in reports):
        raise RuntimeError("verify_gha reports distortion violations on the set-up decomposition")

    def roundtrip():
        text = json.dumps(serialize.artifact_to_dict(dec, raw, reports))
        return serialize.artifact_from_dict(json.loads(text)), len(text)

    if tracer is None:
        (dec, scenario), _ = roundtrip()
    else:
        with tracer.span("serialize.artifact_roundtrip", SETUP) as span:
            (dec, scenario), size = roundtrip()
            span.set_value(size)
    return MissionState(dec, scenario, scenario.full_scene(),
                        sequencer.SequencingParams(scenario.k, scenario.threshold))


def plan_mission(st: MissionState, tasks):
    """One operation: sequence a mission over the decomposition and adapt its legs."""
    sc = st.scenario
    plan = sequencer.sequence(tasks, st.dec, sc.home_task, st.params, sc.arm, st.scene)
    return sequencer.adapt_plan(plan, sc.arm, st.scene, sc.step, rng_seed=sc.seed,
                                timeout=sc.timeout, dt=sc.dt)


def mission_failed(plan) -> bool:
    return bool(plan.failed_legs() or plan.unplanned)


def mission_record(plan) -> str:
    return serialize.dumps(serialize.plan_to_dict(plan))


def mission_quality(plans) -> dict[str, float]:
    """Mean execution time per mission and mean finite-difference max jerk per valid leg."""
    exec_s = [sum(leg.metrics.exec_time for leg in p.legs if leg.valid) for p in plans]
    jerks = [leg.metrics.max_jerk for p in plans for leg in p.legs if leg.valid]
    return {"exec_s_mean": float(np.mean(exec_s)), "max_jerk_mean": float(np.mean(jerks))}


def _matched_node(st: MissionState, mi: int, position, q) -> int:
    """The node match_task must have chosen for configuration ``q`` in map ``mi``:
    the first of the k nearest assigned nodes closest to ``q`` in L2."""
    m = st.dec.maps[mi]
    graph = st.dec.graph_for(m)
    tx, ty = position
    ranked = sorted((math.hypot(graph.nodes[n].position[0] - tx,
                                graph.nodes[n].position[1] - ty), n) for n in m.assignment)
    best, best_d = None, math.inf
    for _, n in ranked[:st.params.k]:
        d = float(np.sqrt(((q - m.assignment[n]) ** 2).sum()))
        if d < best_d:
            best, best_d = n, d
    return best


def check_mission(st: MissionState, arm: geometry.Arm, obstacles, positions, plan,
                  sweeps: list, where: str) -> list[str]:
    """Output checks on one adapted plan, made apart from the program.

    Each leg must clear every obstacle at the configurations the program's own
    motion check samples. Contacts found only between those samples, at
    ``CHECK_REFINE`` times the resolution, are appended to ``sweeps`` instead, as
    (``where``, leg, depth): the program promises validity at its sampling
    resolution only, and such contacts appear on some seeds and not others.
    """
    errors = []
    n = len(positions)
    order = plan.visit_order
    if plan.unplanned or sorted(t for t in order if t != HOME) != list(range(n)):
        return ["visit order %r does not hold each of %d tasks exactly once" % (order, n)]
    home = plan.home_config
    configs = plan.visit_configs
    if len(plan.legs) != len(order) - 1 or order[0] != HOME or order[-1] != HOME:
        return ["%d legs do not join the %d visits from home to home" % (len(plan.legs), len(order))]
    task_map: dict[int, int] = {}
    for i, leg in enumerate(plan.legs):
        wps = leg.trajectory.waypoints
        if (leg.from_label, leg.to_label) != (order[i], order[i + 1]):
            errors.append("leg %d labels differ from the visit order" % i)
        if not (np.array_equal(wps[0], configs[i]) and np.array_equal(wps[-1], configs[i + 1])):
            errors.append("leg %d does not start and end exactly at its visit configurations" % i)
        if leg.to_label != HOME:
            task_map[leg.to_label] = leg.map_index
    for p, label in enumerate(order):
        if label == HOME:
            if not np.array_equal(configs[p], home):
                errors.append("visit %d is not the home configuration" % p)
            continue
        pose = st.dec.maps[task_map[label]].base_pose or st.scenario.arm.base_position
        tip = geometry.tips(arm, configs[p], pose)[0]
        if math.hypot(tip[0] - positions[label][0], tip[1] - positions[label][1]) > TIP_TOLERANCE:
            errors.append("task %d: configuration tip %r misses %r" % (label, tuple(tip), positions[label]))
    # adaptation runs every leg with the arm at its scenario base, so check it there too
    base = st.scenario.arm.base_position
    for i, leg in enumerate(plan.legs):
        if not (leg.valid and leg.metrics is not None and leg.metrics.valid):
            errors.append("leg %d is not reported valid" % i)
            continue
        Q = geometry.leg_samples(leg.trajectory.waypoints, st.scenario.step)
        gap = geometry.clearance(arm, Q, obstacles, base)
        if gap.min() <= -CLEARANCE_TOLERANCE:
            errors.append("leg %d: capsule contact %.3g at the program's own samples" % (i, gap.min()))
            continue
        fine = geometry.between_samples(arm, Q, gap, CHECK_REFINE)
        if len(fine):
            worst = geometry.clearance(arm, fine, obstacles, base).min()
            if worst <= -CLEARANCE_TOLERANCE:
                sweeps.append((where, i, float(worst)))
    executed = sum(geometry.linf(a, b) for leg in plan.legs
                   for a, b in zip(leg.trajectory.waypoints, leg.trajectory.waypoints[1:]))
    direct = sum(geometry.linf(a, b) for a, b in zip(configs, configs[1:]))
    if executed < direct - 1e-9:
        errors.append("executed length %.12g is below the visit-to-visit bound %.12g"
                      % (executed, direct))
    if [t for t in order if t != HOME] != [t for mi in sorted(plan.group_orders)
                                           for t in plan.group_orders[mi]]:
        errors.append("the per-map group orders differ from the visit order")
    if errors:
        return errors
    return check_group_orders(st, positions, plan)


def check_group_orders(st: MissionState, positions, plan) -> list[str]:
    """Each map's group of at most ``BRUTE_FORCE_MAX`` tasks must be visited in an
    optimal order. Leg costs are rebuilt from the assignment: the matched node of
    each task, Floyd-Warshall paths between them, or a transit through home."""
    errors = []
    order, home = plan.visit_order, plan.home_config
    q_of = {label: plan.visit_configs[p] for p, label in enumerate(order) if label != HOME}
    for mi, visited in plan.group_orders.items():
        if len(visited) > BRUTE_FORCE_MAX:
            continue
        members = sorted(visited)
        index, D = st.map_paths(mi)
        assignment = st.dec.maps[mi].assignment
        node = {t: _matched_node(st, mi, positions[t], q_of[t]) for t in members}
        W = np.zeros((len(members) + 1, len(members) + 1))
        for x, a in enumerate(members):
            W[0, x + 1] = W[x + 1, 0] = geometry.linf(home, q_of[a])
            for y in range(x + 1, len(members)):
                b = members[y]
                path = D[index[node[a]], index[node[b]]]
                if math.isfinite(path):
                    cost = (geometry.linf(q_of[a], assignment[node[a]]) + path
                            + geometry.linf(assignment[node[b]], q_of[b]))
                else:
                    cost = geometry.linf(q_of[a], home) + geometry.linf(home, q_of[b])
                W[x + 1, y + 1] = W[y + 1, x + 1] = cost
        chosen = geometry.tour_cost(W, [members.index(t) + 1 for t in visited])
        best = geometry.best_tour_cost(W)
        if chosen > best + 1e-9 * max(1.0, best):
            errors.append("map %d: tour of %d tasks costs %.12g, brute force finds %.12g"
                          % (mi, len(members), chosen, best))
    return errors


class MissionWorkload:
    """Missions of a fixed size over a scenario's decomposition, loaded in set-up."""

    scenario_name = ""
    tasks_per_op = 0
    ops_per_round = 0

    def __init__(self, seed: int, ops: int):
        self.raw = _scenario_dict(self.scenario_name)
        self.arm = geometry.Arm.from_scenario(self.raw["arm"])
        self.obstacles = geometry.obstacles_from_scenario(
            self.raw["scene"] + (self.raw.get("online_obstacles") or []))
        rng = np.random.default_rng(seed)
        self.positions = [self.sample(rng) for _ in range(ops)]
        self.inputs = [[TaskPoint(p) for p in mission] for mission in self.positions]
        self.sweeps: list[tuple[str, int, float]] = []

    def sample(self, rng) -> list[tuple[float, float]]:
        return sample_tips(rng, self.arm, self.tasks_per_op, self.raw["task_grid"]["region"],
                           self.obstacles)

    def setup(self, tracer=None) -> MissionState:
        return set_up_missions(self.raw, tracer)

    def run(self, st, tasks):
        return plan_mission(st, tasks)

    failed = staticmethod(mission_failed)
    record = staticmethod(mission_record)

    def check(self, st, i: int, plan) -> list[str]:
        return check_mission(st, self.arm, self.obstacles, self.positions[i], plan, self.sweeps,
                             "input %d" % i)

    def quality(self, st, results):
        """Figures over the (input index, plan) pairs of one round; no further checks."""
        return mission_quality([plan for _, plan in results]), []


class MissionTabletop(MissionWorkload):
    scenario_name = "tabletop"
    tasks_per_op = 8
    ops_per_round = 40


class MissionRail(MissionWorkload):
    """Equal task counts per base pose, each out of reach of the other pose, so every
    map's group has exactly ``tasks_per_op / poses`` tasks."""

    scenario_name = "rail_mobile"
    tasks_per_op = 16
    ops_per_round = 200

    def sample(self, rng) -> list[tuple[float, float]]:
        poses = [tuple(p) for p in self.raw["base_poses"]]
        per_pose = self.tasks_per_op // len(poses)
        out: list[tuple[float, float]] = []
        for pose in poses:
            out += sample_tips(rng, self.arm, per_pose, self.raw["task_grid"]["region"],
                               self.obstacles, base=pose,
                               away_from=[p for p in poses if p != pose])
        return out


@dataclasses.dataclass
class GraphState:
    graph: object
    scenario: object


class Decompose3Link:
    """Map search with a distinct seed per operation over one 3-link task graph.

    The arm is the 3-link arm of the test suite with its free joint swept at
    0.4 rad instead of 0.1 rad, which cuts the IK solutions per node from
    about 37 to about 9 so that a run holds enough operations for a steady
    median; the map search still does nearly all of the work.
    """

    ops_per_round = 40
    probe_tasks = 12

    def __init__(self, seed: int, ops: int):
        raw = _scenario_dict("tabletop")
        raw["arm"] = {
            "link_lengths": [0.6, 0.5, 0.4],
            "joint_limits": [[-math.pi, math.pi]] * 3,
            "link_thickness": [0.03, 0.03, 0.03],
            "base_position": [0.0, 0.0],
            "max_joint_velocity": [1.0, 1.0, 1.0],
            "free_joint_resolution": 0.4,
        }
        raw["online_obstacles"] = []
        self.raw = raw
        self.sweeps: list[tuple[str, int, float]] = []
        # (input index, map index, violations) of verify_gha's geodesic bound
        self.geodesic_notes: list[tuple[int, int, int]] = []
        self.arm = geometry.Arm.from_scenario(raw["arm"])
        self.obstacles = geometry.obstacles_from_scenario(raw["scene"])
        rng = np.random.default_rng(seed)
        self.inputs = [int(s) for s in rng.choice(2 ** 31, size=ops, replace=False)]
        # the execution-time and jerk figures come from fixed probe missions, one
        # planned over each operation's decomposition outside the timed region,
        # so that they differ between seeds only through the decompositions
        probe = np.random.default_rng(PROBE_SEED)
        self.positions = [sample_tips(probe, self.arm, self.probe_tasks, raw["task_grid"]["region"],
                                      self.obstacles,
                                      free_joint_step=raw["arm"]["free_joint_resolution"])
                          for _ in range(ops)]

    def setup(self, tracer=None) -> GraphState:
        scenario = serialize.Scenario(self.raw)
        graph = taskgraph.build_graph(
            taskgraph.build_task_grid(scenario.grid_region, scenario.grid_spacing),
            scenario.connection_radius, scenario.arm, scenario.scene, scenario.edge_check_count)
        return GraphState(graph, scenario)

    def run(self, st: GraphState, op_seed: int):
        params = dataclasses.replace(st.scenario.decomposition, rng_seed=op_seed)
        dec = decomposition.decompose(st.graph, params)
        reports = [decomposition.verify_gha(m, st.graph, params.epsilon) for m in dec.maps]
        return dec, reports

    @staticmethod
    def failed(result) -> bool:
        return result[0].coverage < 1.0

    def record(self, result) -> str:
        dec, reports = result
        return serialize.dumps(serialize.artifact_to_dict(dec, self.raw, reports))

    def check(self, st: GraphState, i: int, result) -> list[str]:
        dec, reports = result
        errors = []
        eps = dec.params.epsilon
        nodes = st.graph.nodes
        covered = set()
        for mi, (m, rep) in enumerate(zip(dec.maps, reports)):
            covered |= set(m.assignment)
            # the search bounds tree edges only, so verify_gha's geodesic bound,
            # taken over non-tree graph edges too, fails on some seeds and not on
            # others; it is printed as a note, the edge and hop bounds are checked
            if rep.edge_violations or rep.hop_bound_violations:
                errors.append("map %d: verify_gha reports %d edge and %d hop violations"
                              % (mi, len(rep.edge_violations), len(rep.hop_bound_violations)))
            if rep.geodesic_bound_violations:
                self.geodesic_notes.append((i, mi, len(rep.geodesic_bound_violations)))
            for a, b in m.tree_edges:
                d_t = math.hypot(nodes[a].position[0] - nodes[b].position[0],
                                 nodes[a].position[1] - nodes[b].position[1])
                d_c = geometry.linf(m.assignment[a], m.assignment[b])
                if not abs(d_c - d_t) < eps:
                    errors.append("map %d: tree edge (%d, %d) distorts by %.6g >= %g"
                                  % (mi, a, b, abs(d_c - d_t), eps))
            ids = sorted(m.assignment)
            Q = np.array([m.assignment[n] for n in ids])
            targets = np.array([nodes[n].position for n in ids])
            miss = np.hypot(*(geometry.tips(self.arm, Q) - targets).T)
            if miss.max() > TIP_TOLERANCE:
                errors.append("map %d: an assigned configuration misses its node by %.3g"
                              % (mi, miss.max()))
            if geometry.clearance(self.arm, Q, self.obstacles).min() <= -CLEARANCE_TOLERANCE:
                errors.append("map %d: an assigned configuration is in collision" % mi)
        if covered != set(range(len(nodes))):
            errors.append("%d of %d nodes are unassigned" % (len(nodes) - len(covered), len(nodes)))
        return errors

    def quality(self, st: GraphState, results):
        """Plan and check the probe mission of each (input index, decomposition) pair;
        returns the figures and the check errors."""
        sc = st.scenario
        params = sequencer.SequencingParams(sc.k, sc.threshold)
        plans, errors = [], []
        for i, (dec, _) in results:
            mst = MissionState(dec, sc, sc.scene, params)
            plan = plan_mission(mst, [TaskPoint(p) for p in self.positions[i]])
            if mission_failed(plan):
                errors.append("mission %d over decomposition %d failed" % (i, i))
                continue
            plans.append(plan)
            errors += ["mission %d: %s" % (i, e) for e in
                       check_mission(mst, self.arm, self.obstacles, self.positions[i], plan,
                                     self.sweeps, "probe mission %d" % i)]
        return mission_quality(plans), errors


WORKLOADS = {
    "mission_tabletop": MissionTabletop,
    "mission_rail": MissionRail,
    "decompose_3link": Decompose3Link,
}
