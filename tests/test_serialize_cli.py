import copy
import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from armseq import decompose, verify_gha
from armseq.cli import main
from armseq.serialize import (SchemaError, Scenario, artifact_from_dict,
                              artifact_to_dict, dumps, graph_digest, load_json,
                              map_to_dict, plan_from_dict, plan_to_dict)


def test_scenario_parses(tabletop_scenario):
    sc = tabletop_scenario
    assert sc.arm.dof == 2
    assert len(sc.scene.obstacles) == 2
    assert len(sc.online_obstacles) == 2
    assert sc.decomposition.epsilon == 0.5
    assert sc.home_task.position == (-0.2, 0.9)


def test_scenario_schema_errors(scenario_json):
    bad = scenario_json("tabletop")
    del bad["task_grid"]
    with pytest.raises(SchemaError, match="task_grid"):
        Scenario(bad)
    bad = scenario_json("tabletop")
    bad["task_grid"]["spacing"] = -1
    with pytest.raises(SchemaError, match="spacing"):
        Scenario(bad)
    bad = scenario_json("tabletop")
    del bad["seed"]
    with pytest.raises(SchemaError, match="seed"):
        Scenario(bad)
    bad = scenario_json("tabletop")
    bad["scene"][0]["kind"] = "triangle"
    with pytest.raises(SchemaError, match="kind"):
        Scenario(bad)


def test_artifact_round_trip(tabletop_scenario, tabletop_graph, tabletop_decomposition):
    eps = tabletop_scenario.decomposition.epsilon
    reports = [verify_gha(m, tabletop_graph, eps, hop_samples=50, geodesic_samples=10)
               for m in tabletop_decomposition.maps]
    art = artifact_to_dict(tabletop_decomposition, tabletop_scenario.raw, reports)
    text = dumps(art)
    dec2, sc2 = artifact_from_dict(json.loads(text))
    graph2 = dec2.graphs[0]
    # the graph is rebuilt from the scenario, not read back
    assert "graphs" not in art and "base_poses" not in art
    assert graph_digest(graph2) == graph_digest(tabletop_graph) == art["graph_digests"][0]
    reports2 = [verify_gha(m, graph2, eps, hop_samples=50, geodesic_samples=10)
                for m in dec2.maps]
    art2 = artifact_to_dict(dec2, sc2.raw, reports2)
    assert dumps(art2) == text
    for m1, m2 in zip(tabletop_decomposition.maps, dec2.maps):
        assert map_to_dict(m1) == map_to_dict(m2)
        # every row is the loaded graph's own IK candidate, and nothing derived moved
        assert sorted(m2.assignment) == [u for u, i in enumerate(m2.pick) if i >= 0]
        assert all(m2.assignment[u] is graph2.ik_sets[u][i]
                   for u, i in enumerate(m2.pick) if i >= 0)
        assert all(np.array_equal(m2.assignment[u], q) for u, q in m1.assignment.items())
        assert m2.root_config is m2.assignment[m2.root]
        assert np.array_equal(m2.mean_config, m1.mean_config)


def test_plan_round_trip(single_box_scenario, single_box_decomposition):
    from armseq import SequencingParams, adapt_plan, sequence

    sc = single_box_scenario
    plan = sequence(sc.tasks, single_box_decomposition, sc.home_task,
                    SequencingParams(sc.k, sc.threshold), sc.arm, sc.scene)
    adapted = adapt_plan(plan, sc.arm, sc.scene, rng_seed=sc.seed)
    d = plan_to_dict(adapted)
    text = dumps(d)
    plan2 = plan_from_dict(json.loads(text), sc.arm.dof)
    assert dumps(plan_to_dict(plan2)) == text
    assert plan2.visit_order == adapted.visit_order


# --------------------------------------------------------------------- CLI

@pytest.fixture(scope="module")
def workdir(scenario_json, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scenario = root / "tabletop.json"
    scenario.write_text(dumps(scenario_json("tabletop")))
    single = root / "single.json"
    single.write_text(dumps(scenario_json("tabletop_single_box")))
    return root


@pytest.fixture(scope="module")
def artifact_path(workdir):
    out = workdir / "artifact.json"
    code = main(["decompose", "--scenario", str(workdir / "tabletop.json"),
                 "--out", str(out)])
    assert code == 0
    return out


def test_cli_decompose_artifact(artifact_path):
    art = load_json(artifact_path)
    assert art["kind"] == "decomposition"
    assert art["coverage"] == 1.0
    assert len(art["maps"]) == 2
    for rep in art["verification"]:
        assert rep["edge_violations"] == []
        assert rep["hop_bound_violations"] == []
        assert rep["geodesic_bound_violations"] == []


def test_cli_decompose_partial_coverage_exit2(scenario_json, workdir):
    scenario = scenario_json("tabletop")
    scenario["task_grid"] = {"region": [1.86, 0.0, 1.96, 0.0], "spacing": 0.02}
    scenario["connection_radius"] = 0.025
    scenario["decomposition"]["epsilon"] = 0.025
    scenario["scene"] = []
    scenario["online_obstacles"] = []
    path = workdir / "nearly_singular.json"
    path.write_text(dumps(scenario))
    out = workdir / "partial.json"
    code = main(["decompose", "--scenario", str(path), "--out", str(out)])
    assert code == 2
    assert load_json(out)["coverage"] < 1.0


def test_cli_verify_ok(artifact_path):
    assert main(["verify", "--artifact", str(artifact_path)]) == 0


def _candidate_counts(art):
    """IK candidates per node of the artifact's (first) task graph."""
    dec, _ = artifact_from_dict(art)
    return [len(rows) for rows in dec.graphs[0].ik_sets]


def test_cli_verify_detects_corruption(workdir, artifact_path, capsys):
    art = load_json(artifact_path)
    bad = copy.deepcopy(art)
    # switch the first assigned node with two IK candidates to its other one
    pick, counts = bad["maps"][0]["pick"], _candidate_counts(art)
    node = next(u for u, i in enumerate(pick) if i >= 0 and counts[u] == 2)
    pick[node] = 1 - pick[node]
    bad_path = workdir / "corrupt.json"
    bad_path.write_text(dumps(bad))
    assert main(["verify", "--artifact", str(bad_path)]) == 4
    # lowering epsilon below the observed edge gaps also fails
    worse = copy.deepcopy(art)
    worse["params"]["epsilon"] = 1e-6
    worse_path = workdir / "tiny_eps.json"
    worse_path.write_text(dumps(worse))
    assert main(["verify", "--artifact", str(worse_path)]) == 4


def _set(*keys_value):
    """Artifact edit that sets the entry at ``keys`` to ``value``."""
    *keys, value = keys_value

    def edit(art):
        block = art
        for k in keys[:-1]:
            block = block[k]
        block[keys[-1]] = value
    return edit


def _unassign_root(art):
    m = art["maps"][0]
    m["pick"][m["root"]] = -1


def _pick_past_last_candidate(art):
    art["maps"][0]["pick"][0] = _candidate_counts(art)[0]


@pytest.mark.parametrize("where, edit", [
    ("schema_version: expected 3; run armseq decompose again", _set("schema_version", 1)),
    ("schema_version: expected 3; run armseq decompose again", _set("schema_version", 2)),
    ("graph_digests: missing required field", lambda art: art.pop("graph_digests")),
    ("graph_digests: expected 1, one per task graph",
     lambda art: art["graph_digests"].append(art["graph_digests"][0])),
    ("graph_digests[0]: expected str", _set("graph_digests", 0, 7)),
    ("maps[0].pick", lambda art: art["maps"][0]["pick"].pop()),
    ("maps[0].pick[0]", _pick_past_last_candidate),
    ("maps[0].pick[0]", _set("maps", 0, "pick", 0, True)),
    ("maps[0].tree_edges[0]", _set("maps", 0, "tree_edges", 0, [0, 99999])),
    ("maps[0].tree_edges[0]", _set("maps", 0, "tree_edges", 0, "x")),
    ("maps[0].tree_edges[0][0]", _set("maps", 0, "tree_edges", 0, [0.5, 1])),
    ("maps[0].root", _set("maps", 0, "root", 99999)),
    ("maps[0].root", _unassign_root),
    ("maps[0].base_index", _set("maps", 0, "base_index", 0)),
    ("maps[0]", _set("maps", 0, [])),
], ids=["schema-version-1", "schema-version-2", "digest-missing", "digest-count",
        "digest-text", "pick-short", "pick-range", "pick-bool",
        "tree-edge-range", "tree-edge-text", "tree-edge-float", "root-range",
        "root-unassigned", "base-index", "map-list"])
def test_cli_rejects_malformed_artifact(workdir, artifact_path, capsys, where, edit):
    art = load_json(artifact_path)
    edit(art)
    bad_path = workdir / "bad_artifact.json"
    bad_path.write_text(json.dumps(art))
    assert main(["verify", "--artifact", str(bad_path)]) == 1
    err = capsys.readouterr().err
    assert "input error: artifact." + where in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit", [
    _set("scenario", "scene", 0, "max", [-0.7, 0.1]),
    _set("scenario", "arm", "link_lengths", [1.0, 0.9]),
    _set("scenario", "task_grid", "spacing", 0.3),
], ids=["static-obstacle", "link-length", "grid-spacing"])
def test_cli_rejects_stale_artifact(workdir, artifact_path, capsys, edit):
    art = load_json(artifact_path)
    edit(art)
    stale = workdir / "stale_artifact.json"
    stale.write_text(dumps(art))
    assert main(["verify", "--artifact", str(stale)]) == 1
    err = capsys.readouterr().err
    assert "input error: artifact.graph_digests[0]: the task graph rebuilt from the " \
        "scenario differs; run armseq decompose again" in err
    assert "Traceback" not in err


def test_cli_loads_artifact_after_online_edit(workdir, artifact_path):
    # online obstacles are no part of the task graph
    art = load_json(artifact_path)
    art["scenario"]["online_obstacles"] = []
    edited = workdir / "online_edit_artifact.json"
    edited.write_text(dumps(art))
    assert main(["verify", "--artifact", str(edited)]) == 0


@pytest.fixture(scope="module")
def plan_path(workdir, artifact_path):
    tasks = workdir / "tasks_record.json"
    tasks.write_text(dumps({"tasks": [[-0.55, 0.85], [0.6, 0.85]]}))
    out = workdir / "plan_record.json"
    assert main(["sequence", "--artifact", str(artifact_path), "--tasks", str(tasks),
                 "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("where, edit", [
    ("legs[0].from", lambda plan: plan["legs"][0].pop("from")),
    ("legs[0].to", _set("legs", 0, "to", "x")),
    ("legs[0].waypoints", _set("legs", 0, "waypoints", [])),
    ("legs[0].waypoints[0]", _set("legs", 0, "waypoints", 0, [0.1])),
    ("legs[0].map_index", _set("legs", 0, "map_index", 0.5)),
    ("legs[0].valid", _set("legs", 0, "valid", "yes")),
    ("legs[0].metrics.max_jerk", lambda plan: plan["legs"][0]["metrics"].pop("max_jerk")),
    ("visit_order[0]", _set("visit_order", 0, None)),
    ("visit_configs[0]", _set("visit_configs", 0, [0.1, "x"])),
    ("group_orders.x", _set("group_orders", "x", [0])),
    ("home_config", _set("home_config", [0.1, 0.2, 0.3])),
], ids=["from-missing", "to-text", "waypoints-empty", "waypoint-dof", "map-index-float",
        "valid-text", "metrics-field", "visit-order", "visit-config", "group-key",
        "home-config-dof"])
def test_cli_rejects_malformed_plan(workdir, plan_path, capsys, where, edit):
    plan = load_json(plan_path)
    edit(plan)
    bad_path = workdir / "bad_plan.json"
    bad_path.write_text(json.dumps(plan))
    assert main(["render", "--artifact", str(bad_path), "--scenario",
                 str(workdir / "tabletop.json"), "--out", str(workdir / "bad.svg")]) == 1
    err = capsys.readouterr().err
    assert "input error: plan." + where in err
    assert "Traceback" not in err


def test_cli_sequence_empty_tasks(workdir, artifact_path):
    tasks = workdir / "tasks_empty.json"
    tasks.write_text(dumps({"tasks": []}))
    out = workdir / "plan_empty.json"
    assert main(["sequence", "--artifact", str(artifact_path),
                 "--tasks", str(tasks), "--out", str(out)]) == 0
    plan = load_json(out)
    assert plan["legs"] == [] and plan["visit_order"] == []


def test_cli_sequence_unreachable_task_exit3(workdir, artifact_path):
    tasks = workdir / "tasks_bad.json"
    tasks.write_text(dumps({"tasks": [[-0.55, 0.85], [4.0, 0.0]]}))
    out = workdir / "plan_bad.json"
    assert main(["sequence", "--artifact", str(artifact_path),
                 "--tasks", str(tasks), "--out", str(out)]) == 3
    assert load_json(out)["unplanned"] == [1]


def test_cli_sequence_plans_mission(workdir, artifact_path):
    tasks = workdir / "tasks_ok.json"
    tasks.write_text(dumps({"tasks": [[-0.55, 0.85], [0.6, 0.85], [-0.15, 1.0]]}))
    out = workdir / "plan_ok.json"
    code = main(["sequence", "--artifact", str(artifact_path),
                 "--tasks", str(tasks), "--out", str(out)])
    assert code == 0
    plan = load_json(out)
    assert plan["unplanned"] == []
    assert all(leg["valid"] for leg in plan["legs"])
    assert (workdir / "plan_ok.json.timings.json").exists()


def test_cli_bench_deterministic(scenario_json, workdir):
    scenario = scenario_json("tabletop")
    scenario["bench"] = {"task_counts": [3], "trials": 2}
    path = workdir / "bench_scenario.json"
    path.write_text(dumps(scenario))
    out1, out2 = workdir / "r1.json", workdir / "r2.json"
    assert main(["bench", "--scenario", str(path), "--out", str(out1),
                 "--format", "json"]) == 0
    assert main(["bench", "--scenario", str(path), "--out", str(out2),
                 "--format", "json"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = load_json(out1)
    assert len(report["rows"]) == 2 * 4


def test_cli_bench_aggregates_recompute(workdir):
    from armseq.bench import aggregate_rows
    from armseq.serialize import jsonable

    report = load_json(workdir / "r1.json")
    again = jsonable(aggregate_rows(report["rows"]))
    assert again == report["aggregates"]


def test_cli_render_decomposition(workdir, artifact_path):
    out = workdir / "fig1.svg"
    assert main(["render", "--artifact", str(artifact_path), "--out", str(out)]) == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")
    out2 = workdir / "fig1b.svg"
    main(["render", "--artifact", str(artifact_path), "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_cli_render_plan(workdir, artifact_path):
    out = workdir / "fig2.svg"
    assert main(["render", "--artifact", str(workdir / "plan_ok.json"),
                 "--scenario", str(workdir / "tabletop.json"),
                 "--out", str(out)]) == 0
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")


def test_cli_input_errors(scenario_json, workdir, artifact_path, capsys):
    bad = workdir / "bad.json"
    bad.write_text("{not json")
    assert main(["decompose", "--scenario", str(bad), "--out", str(workdir / "x.json")]) == 1
    err = capsys.readouterr().err
    assert "line" in err
    schema_bad = workdir / "schema_bad.json"
    scenario = scenario_json("tabletop")
    scenario["task_grid"]["spacing"] = -0.5
    schema_bad.write_text(dumps(scenario))
    assert main(["decompose", "--scenario", str(schema_bad),
                 "--out", str(workdir / "x.json")]) == 1
    err = capsys.readouterr().err
    assert "spacing" in err
    assert main(["verify", "--artifact", str(workdir / "missing.json")]) == 1
    # a file holding a list, or a directory, is no scenario or artifact
    listed = workdir / "list.json"
    listed.write_text("[]")
    out = str(workdir / "x.json")
    # a grid region that no grid point of the arm reaches
    scenario = scenario_json("tabletop")
    scenario["task_grid"]["region"] = [3.0, 3.0, 3.5, 3.5]
    unreachable = workdir / "unreachable.json"
    unreachable.write_text(dumps(scenario))
    tasks = workdir / "tasks_seed.json"
    tasks.write_text(dumps({"tasks": [[-0.55, 0.85]]}))
    tabletop = str(workdir / "tabletop.json")
    for argv, message in [
        (["decompose", "--scenario", tabletop, "--out", out, "--seed", "-1"],
         "--seed: must be non-negative"),
        (["bench", "--scenario", tabletop, "--out", out, "--seed", "-1"],
         "--seed: must be non-negative"),
        (["sequence", "--artifact", str(artifact_path), "--tasks", str(tasks), "--out", out,
          "--seed", "-1"], "--seed: must be non-negative"),
        (["decompose", "--scenario", str(unreachable), "--out", out],
         "scenario.task_grid: cannot decompose an empty task graph"),
        (["decompose", "--scenario", str(listed), "--out", out], "scenario: expected an object"),
        (["bench", "--scenario", str(listed), "--out", out], "scenario: expected an object"),
        (["verify", "--artifact", str(listed)], "artifact: expected an object"),
        (["render", "--artifact", str(listed), "--out", out], "artifact: expected an object"),
        (["sequence", "--artifact", str(listed), "--tasks", str(listed), "--out", out],
         "artifact: expected an object"),
        (["decompose", "--scenario", str(workdir), "--out", out], "Is a directory"),
        # an output path that cannot be written
        (["render", "--artifact", str(artifact_path), "--out", str(workdir)],
         "%s: Is a directory" % workdir),
    ]:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "input error: " in err and message in err


@pytest.mark.parametrize("command", ["sequence", "bench"])
def test_cli_unreachable_home_task_exit3(scenario_json, workdir, artifact_path, capsys,
                                         command):
    if command == "sequence":
        art = load_json(artifact_path)
        art["scenario"]["sequencing"]["home_task"] = [5, 5]
        path = workdir / "far_home_artifact.json"
        path.write_text(dumps(art))
        tasks = workdir / "tasks_far_home.json"
        tasks.write_text(dumps({"tasks": [[-0.55, 0.85]]}))
        argv = ["sequence", "--artifact", str(path), "--tasks", str(tasks)]
    else:
        scenario = scenario_json("tabletop")
        scenario["sequencing"]["home_task"] = [5, 5]
        scenario["bench"] = {"task_counts": [3], "trials": 1}
        path = workdir / "far_home.json"
        path.write_text(dumps(scenario))
        argv = ["bench", "--scenario", str(path)]
    assert main(argv + ["--out", str(workdir / "far_home_out.json")]) == 3
    err = capsys.readouterr().err
    assert "unplannable: home task at (5.0, 5.0) has no valid IK solution" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("task", ['["x", 1]', "[1.0]", "[NaN, 0.5]", "[0.5, Infinity]",
                                  "[true, 0.5]", "0.5",
                                  pytest.param("[1%s, 0.5]" % ("0" * 400), id="[1e400, 0.5]")])
def test_cli_sequence_rejects_malformed_task(workdir, artifact_path, capsys, task):
    tasks = workdir / "tasks_malformed.json"
    tasks.write_text('{"tasks": [%s]}' % task)
    assert main(["sequence", "--artifact", str(artifact_path), "--tasks", str(tasks),
                 "--out", str(workdir / "plan_malformed.json")]) == 1
    err = capsys.readouterr().err
    assert "input error: tasks.tasks[0]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    (("seed",), "x"),
    (("seed",), True),
    (("motion", "step"), math.nan),
    (("motion", "dt"), 0.0),
    (("edge_check_count",), 2.5),
    (("sequencing", "k"), True),
    (("sequencing", "threshold"), math.inf),
    (("bench", "trials"), "3"),
    (("bench", "task_counts"), [3, 5.0]),
    (("task_grid", "region"), [-1.2, math.nan, 1.2, 1.2]),
    (("arm", "free_joint_resolution"), math.nan),
    (("decomposition", "c_max"), -math.inf),
    (("decomposition", "max_subspaces"), 2.0),
    (("decomposition", "rho_both_endpoints"), True),
    pytest.param(("arm", "link_lengths"), [1.0, math.nan], id="arm.link_lengths-nan"),
    pytest.param(("arm", "link_lengths"), [1.0, "1"], id="arm.link_lengths-str"),
    pytest.param(("arm", "joint_limits"), [[-math.pi, math.inf], [-math.pi, math.pi]],
                 id="arm.joint_limits-inf"),
    pytest.param(("arm", "joint_limits"), [[-math.pi, math.pi], [0.0]],
                 id="arm.joint_limits-single"),
    pytest.param(("arm", "link_thickness"), [0.04, -math.inf], id="arm.link_thickness-inf"),
    pytest.param(("arm", "max_joint_velocity"), [1.0, True], id="arm.max_joint_velocity-bool"),
    pytest.param(("seed",), -1, id="seed-negative"),
    pytest.param(("bench", "task_counts"), [-2], id="bench.task_counts-negative"),
    pytest.param(("bench", "trials"), -1, id="bench.trials-negative"),
    pytest.param(("task_grid", "region"), [1.2, 0.4, -1.2, 1.2], id="task_grid.region-reversed"),
    pytest.param(("connection_radius",), 0.9, id="connection_radius-above-epsilon"),
    pytest.param(("motion", "timeout"), -1.0, id="motion.timeout-negative"),
    pytest.param(("motion", "timeout"), 0.0, id="motion.timeout-zero"),
], ids=lambda v: ".".join(v) if isinstance(v, tuple) else None)
def test_cli_rejects_malformed_scenario_scalar(scenario_json, tmp_path, capsys, field, value):
    scenario = scenario_json("tabletop")
    block = scenario
    for key in field[:-1]:
        block = block.setdefault(key, {})
    block[field[-1]] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["decompose", "--scenario", str(path), "--out", str(tmp_path / "a.json")]) == 1
    err = capsys.readouterr().err
    assert "input error: scenario." + ".".join(field) in err
    assert "Traceback" not in err


def test_cli_seed_override_changes_artifact(workdir):
    out1 = workdir / "a1.json"
    out2 = workdir / "a2.json"
    main(["decompose", "--scenario", str(workdir / "tabletop.json"),
          "--out", str(out1), "--seed", "123"])
    main(["decompose", "--scenario", str(workdir / "tabletop.json"),
          "--out", str(out2), "--seed", "123"])
    assert out1.read_bytes() == out2.read_bytes()


def test_mobile_scenario_artifact_round_trip(scenario_json, tmp_path, capsys):
    scenario = scenario_json("rail_mobile")
    scenario["task_grid"]["region"] = [-1.4, 0.6, 1.4, 0.9]
    path = tmp_path / "mobile.json"
    path.write_text(dumps(scenario))
    out = tmp_path / "mobile_artifact.json"
    code = main(["decompose", "--scenario", str(path), "--out", str(out)])
    assert code in (0, 2)
    dec, sc = artifact_from_dict(load_json(out))
    assert len(dec.graphs) == len(dec.base_poses) == len(sc.base_poses)
    assert all(m.base_pose is not None for m in dec.maps)
    assert main(["verify", "--artifact", str(out)]) == 0
    # the maps of a moved base pose would plan with the arm somewhere else
    art = load_json(out)
    art["scenario"]["base_poses"][1] = [0.3, 0.0]
    out.write_text(dumps(art))
    assert main(["verify", "--artifact", str(out)]) == 1
    err = capsys.readouterr().err
    assert "input error: artifact.graph_digests[1]: the task graph rebuilt from the " \
        "scenario differs; run armseq decompose again" in err
    assert "Traceback" not in err


def test_cli_sequence_deterministic(workdir, artifact_path):
    tasks = workdir / "tasks_det.json"
    tasks.write_text(dumps({"tasks": [[-0.55, 0.85], [0.6, 0.85]]}))
    outs = []
    for name in ("p1.json", "p2.json"):
        out = workdir / name
        assert main(["sequence", "--artifact", str(artifact_path),
                     "--tasks", str(tasks), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_bench_interrupt_flushes_partial(workdir, monkeypatch):
    import armseq.bench as bench_mod
    from armseq.serialize import load_scenario

    calls = {"n": 0}
    real = bench_mod.run_trial

    def boom(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(bench_mod, "run_trial", boom)
    scenario = load_scenario(str(workdir / "bench_scenario.json"))
    report, _ = bench_mod.run_bench(scenario)
    assert report["interrupted"] is True
    assert len(report["rows"]) == 4  # one completed trial, four methods
