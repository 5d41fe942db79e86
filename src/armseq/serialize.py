"""JSON schemas and round-trip (de)serialization for every persisted artifact.

Four kinds of files exist: scenario, decomposition artifact, plan record and
bench report. All are versioned, written with sorted keys and newline-
terminated, and floats survive the round trip exactly (repr-based JSON
encoding), so identical runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import warnings

import numpy as np

from .decomposition import (Decomposition, DecompositionParams, GhaMap, GhaVerification,
                            build_map)
from .kinematics import ArmModel, TaskPoint
from .motion import SOURCE_STRAIGHT, Trajectory, TrajectoryMetrics
from .sequencer import Leg, SequencePlan
from .taskgraph import IslandWarning, TaskGraph, task_graphs
from .world import Box, Disc, Scene

SCHEMA_VERSION = 1  # scenario files, plan records and bench reports
ARTIFACT_VERSION = 3  # decomposition artifacts


class SchemaError(ValueError):
    """Input file violates the expected schema; message carries the JSON path."""


def _field(value, kind, path):
    """``value`` checked against ``kind``: an int is no bool, a float is finite."""
    if kind is float:
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not abs(value) <= sys.float_info.max):
            raise SchemaError("%s: expected a finite number" % path)
        return float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SchemaError("%s: expected %s" % (path, kind.__name__))
    return value


def _object(value, path) -> dict:
    if not isinstance(value, dict):
        raise SchemaError("%s: expected an object" % path)
    return value


def _req(mapping, key, kind, path):
    if not isinstance(mapping, dict) or key not in mapping:
        raise SchemaError("%s.%s: missing required field" % (path, key))
    return _field(mapping[key], kind, "%s.%s" % (path, key))


def _opt(mapping, key, kind, default, path):
    """Like :func:`_req`, but an absent field gives ``default``."""
    if key not in _object(mapping, path):
        return default
    return _field(mapping[key], kind, "%s.%s" % (path, key))


def _maybe(mapping, key, kind, path):
    """Like :func:`_req`, but an absent or null field gives None."""
    value = _object(mapping, path).get(key)
    return None if value is None else _field(value, kind, "%s.%s" % (path, key))


def _ensure(ok, path, rule):
    if not ok:
        raise SchemaError("%s: %s" % (path, rule))


def _ints(values, path) -> list[int]:
    if not isinstance(values, list):
        raise SchemaError("%s: expected a list of integers" % path)
    return [_field(v, int, "%s[%d]" % (path, i)) for i, v in enumerate(values)]


def _pair(value, path):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SchemaError("%s: expected a pair [x, y] of finite numbers" % path)
    return _field(value[0], float, path + "[0]"), _field(value[1], float, path + "[1]")


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError("%s: %s" % (path, exc.strerror)) from exc
    except json.JSONDecodeError as exc:
        raise SchemaError("%s: line %d column %d: %s"
                          % (path, exc.lineno, exc.colno, exc.msg)) from exc


# ---------------------------------------------------------------- obstacles

def obstacle_from_dict(d, path="obstacle"):
    kind = _req(d, "kind", str, path)
    tag = d.get("tag", "offline")
    if tag not in ("offline", "online"):
        raise SchemaError("%s.tag: must be 'offline' or 'online'" % path)
    if kind == "box":
        xmin, ymin = _pair(_req(d, "min", list, path), path + ".min")
        xmax, ymax = _pair(_req(d, "max", list, path), path + ".max")
        try:
            return Box(xmin, ymin, xmax, ymax, tag)
        except ValueError as exc:
            raise SchemaError("%s: %s" % (path, exc)) from exc
    if kind == "disc":
        center = _pair(_req(d, "center", list, path), path + ".center")
        radius = _req(d, "radius", float, path)
        try:
            return Disc(center, radius, tag)
        except ValueError as exc:
            raise SchemaError("%s: %s" % (path, exc)) from exc
    raise SchemaError("%s.kind: unknown obstacle kind %r" % (path, kind))


def scene_from_list(items, path="scene") -> Scene:
    if not isinstance(items, list):
        raise SchemaError("%s: expected a list of obstacles" % path)
    return Scene(tuple(obstacle_from_dict(o, "%s[%d]" % (path, i))
                       for i, o in enumerate(items)))


# ----------------------------------------------------------------- scenario

def _floats(values, path):
    if not isinstance(values, list):
        raise SchemaError("%s: expected a list of finite numbers" % path)
    return tuple(_field(v, float, "%s[%d]" % (path, i)) for i, v in enumerate(values))


def arm_from_dict(d, path="arm") -> ArmModel:
    try:
        return ArmModel(
            link_lengths=_floats(_req(d, "link_lengths", list, path), path + ".link_lengths"),
            joint_limits=tuple(_pair(p, "%s.joint_limits[%d]" % (path, i))
                               for i, p in enumerate(_req(d, "joint_limits", list, path))),
            link_thickness=_floats(d.get("link_thickness") or [], path + ".link_thickness"),
            base_position=_pair(d.get("base_position", [0.0, 0.0]), path + ".base_position"),
            max_joint_velocity=_floats(d.get("max_joint_velocity") or [],
                                       path + ".max_joint_velocity"),
            free_joint_resolution=_opt(d, "free_joint_resolution", float, 0.1, path),
        )
    except SchemaError:
        raise
    except (TypeError, ValueError) as exc:
        raise SchemaError("%s: %s" % (path, exc)) from exc


def params_from_dict(d, path="decomposition") -> DecompositionParams:
    if d.get("rho_both_endpoints"):
        raise SchemaError("%s.rho_both_endpoints: no longer supported; the revisit "
                          "penalty is charged on the relaxed edge's target only" % path)
    fields = dict(
        epsilon=_req(d, "epsilon", float, path),
        c_max=_opt(d, "c_max", float, 5.0, path),
        rho=_opt(d, "rho", float, 2.0, path),
        rho_s=_opt(d, "rho_s", float, 0.02, path),
        zeta=_maybe(d, "zeta", float, path),
        max_subspaces=_opt(d, "max_subspaces", int, 5, path),
        root_sample_count=_opt(d, "root_sample_count", int, 10, path),
        rng_seed=_opt(d, "rng_seed", int, 0, path),
    )
    try:
        return DecompositionParams(**fields)
    except ValueError as exc:
        raise SchemaError("%s: %s" % (path, exc)) from exc


def params_to_dict(p: DecompositionParams) -> dict:
    return {
        "epsilon": p.epsilon, "c_max": p.c_max, "rho": p.rho, "rho_s": p.rho_s,
        "zeta": p.zeta, "max_subspaces": p.max_subspaces,
        "root_sample_count": p.root_sample_count, "rng_seed": p.rng_seed,
    }


class Scenario:
    """Parsed scenario file: arm, scenes, grid and parameter blocks."""

    def __init__(self, data: dict):
        path = "scenario"
        if _object(data, path).get("schema_version") != SCHEMA_VERSION:
            raise SchemaError("%s.schema_version: expected %d" % (path, SCHEMA_VERSION))
        self.seed = _req(data, "seed", int, path)
        _ensure(self.seed >= 0, path + ".seed", "must be non-negative")
        self.arm = arm_from_dict(_req(data, "arm", dict, path), path + ".arm")
        self.scene = scene_from_list(_req(data, "scene", list, path))
        self.online_obstacles = scene_from_list(data.get("online_obstacles") or [],
                                                path + ".online_obstacles").obstacles
        grid = _req(data, "task_grid", dict, path)
        region = _req(grid, "region", list, path + ".task_grid")
        if len(region) != 4:
            raise SchemaError("%s.task_grid.region: expected [xmin, ymin, xmax, ymax]" % path)
        self.grid_region = tuple(_field(v, float, "%s.task_grid.region[%d]" % (path, i))
                                 for i, v in enumerate(region))
        xmin, ymin, xmax, ymax = self.grid_region
        _ensure(xmin <= xmax and ymin <= ymax and (xmin, ymin) != (xmax, ymax),
                path + ".task_grid.region", "need xmin <= xmax and ymin <= ymax, not one point")
        self.grid_spacing = _req(grid, "spacing", float, path + ".task_grid")
        _ensure(self.grid_spacing > 0, path + ".task_grid.spacing", "must be positive")
        self.connection_radius = _req(data, "connection_radius", float, path)
        _ensure(self.connection_radius > 0, path + ".connection_radius", "must be positive")
        self.edge_check_count = _opt(data, "edge_check_count", int, 5, path)
        _ensure(self.edge_check_count >= 2, path + ".edge_check_count", "must be at least 2")
        dparams = params_from_dict(_req(data, "decomposition", dict, path),
                                   path + ".decomposition")
        dparams.rng_seed = self.seed
        self.decomposition = dparams
        _ensure(self.connection_radius <= dparams.epsilon, path + ".connection_radius",
                "%g exceeds decomposition.epsilon %g" % (self.connection_radius, dparams.epsilon))
        seq = _req(data, "sequencing", dict, path)
        self.k = _opt(seq, "k", int, 10, path + ".sequencing")
        self.threshold = _opt(seq, "threshold", float, 0.7, path + ".sequencing")
        _ensure(self.k >= 1, path + ".sequencing.k", "must be at least 1")
        _ensure(self.threshold > 0, path + ".sequencing.threshold", "must be positive")
        self.home_task = TaskPoint(_pair(_req(seq, "home_task", list, path + ".sequencing"),
                                         path + ".sequencing.home_task"))
        motion = data.get("motion") or {}
        self.step = _opt(motion, "step", float, 0.05, path + ".motion")
        self.timeout = _opt(motion, "timeout", float, 2.0, path + ".motion")
        self.dt = _opt(motion, "dt", float, 0.01, path + ".motion")
        for key in ("step", "timeout", "dt"):
            _ensure(getattr(self, key) > 0, "%s.motion.%s" % (path, key), "must be positive")
        self.base_poses = [_pair(b, "%s.base_poses[%d]" % (path, i))
                           for i, b in enumerate(data.get("base_poses") or [])] or None
        bench = data.get("bench") or {}
        counts = _opt(bench, "task_counts", list, [3, 5, 8], path + ".bench")
        self.task_counts = [_field(c, int, "%s.bench.task_counts[%d]" % (path, i))
                            for i, c in enumerate(counts)]
        for i, c in enumerate(self.task_counts):
            _ensure(c >= 1, "%s.bench.task_counts[%d]" % (path, i), "must be at least 1")
        self.trials = _opt(bench, "trials", int, 10, path + ".bench")
        _ensure(self.trials >= 1, path + ".bench.trials", "must be at least 1")
        self.tasks = [TaskPoint(_pair(t, "%s.tasks[%d]" % (path, i)))
                      for i, t in enumerate(data.get("tasks") or [])]
        self.raw = data

    def full_scene(self) -> Scene:
        return self.scene.with_obstacles(self.online_obstacles)


def load_scenario(path) -> Scenario:
    return Scenario(load_json(path))


# ----------------------------------------------------------------- taskgraph

def graph_digest(g: TaskGraph) -> str:
    """sha256 of the JSON text of the graph's nodes, IK candidate rows and edges."""
    text = json.dumps([[p.position for p in g.nodes], [a.tolist() for a in g.ik_arrays],
                       sorted(g.edges.items())])
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------- GhaMap etc.

def map_to_dict(m: GhaMap) -> dict:
    return {
        "pick": m.pick,
        "tree_edges": [[a, b] for a, b in sorted(m.tree_edges)],
        "root": m.root,
        "objective": m.objective,
        "base_index": m.base_index,
    }


def map_from_dict(d, dec: Decomposition, path="map") -> GhaMap:
    """Map on one of ``dec.graphs``: the one of its ``base_index`` (None for a fixed base)."""
    base_index = _object(d, path).get("base_index")
    bases = [None] if dec.base_poses is None else list(range(len(dec.graphs)))
    if not (base_index is None or type(base_index) is int) or base_index not in bases:
        raise SchemaError("%s.base_index: expected one of %s" % (path, bases))
    graph = dec.graphs[base_index or 0]
    pick = _ints(_req(d, "pick", list, path), path + ".pick")
    if len(pick) != len(graph):
        raise SchemaError("%s.pick: expected %d candidate indices, one per node"
                          % (path, len(graph)))
    for u, i in enumerate(pick):
        if not -1 <= i < len(graph.ik_sets[u]):
            raise SchemaError("%s.pick[%d]: expected -1 (unassigned) or an IK candidate "
                              "index below %d" % (path, u, len(graph.ik_sets[u])))
    root = _req(d, "root", int, path)
    if not 0 <= root < len(graph) or pick[root] < 0:
        raise SchemaError("%s.root: expected an assigned node" % path)
    tree_edges = set()
    for k, e in enumerate(_req(d, "tree_edges", list, path)):
        p = "%s.tree_edges[%d]" % (path, k)
        if not isinstance(e, list) or len(e) != 2:
            raise SchemaError("%s: expected [a, b]" % p)
        a, b = _field(e[0], int, p + "[0]"), _field(e[1], int, p + "[1]")
        if (a, b) not in graph.edges or pick[a] < 0 or pick[b] < 0:
            raise SchemaError("%s: expected a graph edge a < b between assigned nodes" % p)
        tree_edges.add((a, b))
    m = build_map(graph, pick, tree_edges, root, _req(d, "objective", float, path))
    if base_index is not None:
        m.base_pose, m.base_index = dec.base_poses[base_index], base_index
    return m


def verification_to_dict(v: GhaVerification) -> dict:
    return {
        "edge_violations": [list(t) for t in v.edge_violations],
        "hop_bound_violations": [list(t) for t in v.hop_bound_violations],
        "geodesic_bound_violations": [list(t) for t in v.geodesic_bound_violations],
        "edges_checked": v.edges_checked,
        "hop_pairs_checked": v.hop_pairs_checked,
        "geodesics_checked": v.geodesics_checked,
    }


def artifact_to_dict(dec: Decomposition, scenario_raw: dict,
                     verifications: list[GhaVerification]) -> dict:
    return {
        "schema_version": ARTIFACT_VERSION,
        "kind": "decomposition",
        "scenario": scenario_raw,
        "graph_digests": [graph_digest(g) for g in dec.graphs],
        "maps": [map_to_dict(m) for m in dec.maps],
        "coverage": dec.coverage,
        "params": params_to_dict(dec.params),
        "verification": [verification_to_dict(v) for v in verifications],
    }


def artifact_from_dict(d) -> tuple[Decomposition, Scenario]:
    """The decomposition of an artifact, on task graphs rebuilt from its scenario;
    each must match its stored digest before any map is read."""
    path = "artifact"
    if _object(d, path).get("kind") != "decomposition":
        raise SchemaError("%s.kind: expected 'decomposition'" % path)
    if d.get("schema_version") != ARTIFACT_VERSION:
        raise SchemaError("%s.schema_version: expected %d; run armseq decompose again"
                          % (path, ARTIFACT_VERSION))
    scenario = Scenario(_req(d, "scenario", dict, path))
    params = params_from_dict(_req(d, "params", dict, path), path + ".params")
    coverage = _req(d, "coverage", float, path)
    poses = scenario.base_poses
    digests = _req(d, "graph_digests", list, path)
    if len(digests) != (1 if poses is None else len(poses)):
        raise SchemaError("%s.graph_digests: expected %d, one per task graph of the scenario"
                          % (path, 1 if poses is None else len(poses)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IslandWarning)
        graphs = task_graphs(scenario.grid_region, scenario.grid_spacing,
                             scenario.connection_radius, scenario.arm, scenario.scene,
                             scenario.edge_check_count, poses)
    for i, (g, digest) in enumerate(zip(graphs, digests)):
        if graph_digest(g) != _field(digest, str, "%s.graph_digests[%d]" % (path, i)):
            raise SchemaError("%s.graph_digests[%d]: the task graph rebuilt from the scenario "
                              "differs; run armseq decompose again" % (path, i))
    dec = Decomposition([], graphs, params, coverage, poses)
    dec.maps = [map_from_dict(m, dec, "%s.maps[%d]" % (path, i))
                for i, m in enumerate(_req(d, "maps", list, path))]
    return dec, scenario


# -------------------------------------------------------------------- plans

def _config(value, dof, path) -> np.ndarray:
    if not isinstance(value, list) or len(value) != dof:
        raise SchemaError("%s: expected a configuration of %d finite numbers" % (path, dof))
    return np.array([_field(v, float, "%s[%d]" % (path, k)) for k, v in enumerate(value)])


def _metrics_to_dict(m) -> dict | None:
    if m is None:
        return None
    return {"config_length": m.config_length, "exec_time": m.exec_time,
            "max_jerk": m.max_jerk, "valid": m.valid}


def plan_to_dict(plan: SequencePlan) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "plan",
        "visit_order": list(plan.visit_order),
        "visit_configs": [[float(v) for v in q] for q in plan.visit_configs],
        "legs": [
            {
                "from": leg.from_label, "to": leg.to_label,
                "map_index": leg.map_index, "valid": leg.valid,
                "source": leg.trajectory.source,
                "waypoints": [[float(v) for v in w] for w in leg.trajectory.waypoints],
                "metrics": _metrics_to_dict(leg.metrics),
            }
            for leg in plan.legs
        ],
        "group_orders": {str(k): v for k, v in plan.group_orders.items()},
        "unplanned": list(plan.unplanned),
        "total_config_cost": plan.total_config_cost,
        "home_config": None if plan.home_config is None
        else [float(v) for v in plan.home_config],
    }


def plan_from_dict(d, dof: int) -> SequencePlan:
    """Plan record of an arm with ``dof`` joints."""
    path = "plan"
    if _object(d, path).get("kind") != "plan":
        raise SchemaError("%s.kind: expected 'plan'" % path)
    legs = []
    for i, ld in enumerate(_req(d, "legs", list, path)):
        p = "%s.legs[%d]" % (path, i)
        from_label, to_label = _req(ld, "from", int, p), _req(ld, "to", int, p)
        wps = [_config(q, dof, "%s.waypoints[%d]" % (p, k))
               for k, q in enumerate(_req(ld, "waypoints", list, p))]
        _ensure(wps, p + ".waypoints", "expected a nonempty list of configurations")
        m = _maybe(ld, "metrics", dict, p)
        legs.append(Leg(
            from_label, to_label,
            Trajectory(wps, source=_opt(ld, "source", str, SOURCE_STRAIGHT, p)),
            map_index=_maybe(ld, "map_index", int, p), valid=_maybe(ld, "valid", bool, p),
            metrics=None if m is None else TrajectoryMetrics(
                *(_req(m, k, float, p + ".metrics")
                  for k in ("config_length", "exec_time", "max_jerk")),
                _req(m, "valid", bool, p + ".metrics")),
        ))
    group_orders = {}
    for k, order in _opt(d, "group_orders", dict, {}, path).items():
        if not k.isdecimal():
            raise SchemaError("%s.group_orders.%s: expected a map index" % (path, k))
        group_orders[int(k)] = _ints(order, "%s.group_orders.%s" % (path, k))
    home = d.get("home_config")
    return SequencePlan(
        legs=legs,
        visit_order=_ints(_req(d, "visit_order", list, path), path + ".visit_order"),
        visit_configs=[_config(q, dof, "%s.visit_configs[%d]" % (path, k))
                       for k, q in enumerate(_req(d, "visit_configs", list, path))],
        total_config_cost=_req(d, "total_config_cost", float, path),
        group_orders=group_orders,
        unplanned=_ints(_opt(d, "unplanned", list, [], path), path + ".unplanned"),
        home_config=None if home is None else _config(home, dof, path + ".home_config"),
    )


def jsonable(value):
    """Recursively convert numpy scalars/arrays for the json encoder."""
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value
