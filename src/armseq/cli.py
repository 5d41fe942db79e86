"""Command-line interface.

Subcommands: decompose | sequence | bench | render | verify.
Exit codes: 0 ok, 1 input error, 2 partial coverage, 3 unplannable task,
4 verification failure.
"""

from __future__ import annotations

import argparse
import sys
import time

from .bench import build_decomposition, run_bench, summary_table, verify_decomposition
from .decomposition import EmptyGraphError
from .kinematics import TaskPoint
from .render import render_decomposition_svg, render_plan_svg
from .sequencer import NoIkSolutionsError, SequencingParams, adapt_plan, sequence
from .serialize import (SchemaError, _object, _pair, artifact_from_dict, artifact_to_dict,
                        dump_json, load_json, load_scenario, plan_from_dict,
                        plan_to_dict, scene_from_list)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PARTIAL = 2
EXIT_UNPLANNABLE = 3
EXIT_VERIFY = 4


def _load_scenario(path, seed_override):
    scenario = load_scenario(path)
    if seed_override is not None:
        scenario.seed = seed_override
        scenario.decomposition.rng_seed = seed_override
    return scenario


def cmd_decompose(args) -> int:
    scenario = _load_scenario(args.scenario, args.seed)
    dec = build_decomposition(scenario)
    reports = verify_decomposition(dec, scenario.decomposition.epsilon)
    dump_json(artifact_to_dict(dec, scenario.raw, reports), args.out)
    print("decomposition: %d maps, coverage %.3f -> %s"
          % (len(dec.maps), dec.coverage, args.out))
    return EXIT_OK if dec.coverage >= 1.0 else EXIT_PARTIAL


def cmd_sequence(args) -> int:
    dec, scenario = artifact_from_dict(load_json(args.artifact))
    tasks_data = load_json(args.tasks)
    if not isinstance(tasks_data, dict) or not isinstance(tasks_data.get("tasks"), list):
        raise SchemaError("tasks.tasks: expected a list of [x, y] targets")
    tasks = [TaskPoint(_pair(t, "tasks.tasks[%d]" % i))
             for i, t in enumerate(tasks_data["tasks"])]
    extra = tasks_data.get("online_obstacles")
    scene = scenario.full_scene()
    if extra:
        scene = scene.with_obstacles(scene_from_list(extra, "tasks.online_obstacles").obstacles)
    seed = args.seed if args.seed is not None else scenario.seed
    params = SequencingParams(scenario.k, scenario.threshold)
    t0 = time.perf_counter()
    plan = sequence(tasks, dec, scenario.home_task, params, scenario.arm, scene)
    sequencing_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    adapted = adapt_plan(plan, scenario.arm, scene, scenario.step, rng_seed=seed,
                         timeout=scenario.timeout, dt=scenario.dt)
    motion_s = time.perf_counter() - t0
    dump_json(plan_to_dict(adapted), args.out)
    dump_json({"kind": "plan_timings", "sequencing_s": sequencing_s,
               "motion_planning_s": motion_s}, args.out + ".timings.json")
    failed = adapted.failed_legs()
    print("plan: %d legs (%d failed), %d unplanned tasks, cost %.4f -> %s"
          % (len(adapted.legs), len(failed), len(adapted.unplanned),
             adapted.total_config_cost, args.out))
    if failed or adapted.unplanned:
        return EXIT_UNPLANNABLE
    return EXIT_OK


def cmd_bench(args) -> int:
    scenario = _load_scenario(args.scenario, args.seed)
    report, timings = run_bench(scenario, scenario.seed)
    dump_json(report, args.out)
    dump_json(timings, args.out + ".timings.json")
    if args.format == "table":
        print(summary_table(report))
    else:
        print("bench report (%d rows) -> %s" % (len(report["rows"]), args.out))
    return EXIT_OK


def cmd_render(args) -> int:
    data = load_json(args.artifact)
    kind = _object(data, "artifact").get("kind")
    if kind == "decomposition":
        dec, scenario = artifact_from_dict(data)
        svg = render_decomposition_svg(dec, scenario.scene, scenario.arm)
    elif kind == "plan":
        if args.scenario is None:
            raise SchemaError("render: --scenario is required for plan records")
        scenario = _load_scenario(args.scenario, None)
        plan = plan_from_dict(data, scenario.arm.dof)
        svg = render_plan_svg(plan, scenario.full_scene(), scenario.arm)
    else:
        raise SchemaError("render: input kind must be 'decomposition' or 'plan'")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print("figure -> %s" % args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    dec, scenario = artifact_from_dict(load_json(args.artifact))
    reports = verify_decomposition(dec, dec.params.epsilon)
    bad = 0
    for i, rep in enumerate(reports):
        status = "ok" if rep.clean() else "VIOLATIONS"
        print("map %d: %d edges, %d hop pairs, %d geodesics: %s"
              % (i, rep.edges_checked, rep.hop_pairs_checked, rep.geodesics_checked, status))
        if not rep.clean():
            bad += 1
            for v in (rep.edge_violations + rep.hop_bound_violations
                      + rep.geodesic_bound_violations)[:10]:
                print("  violation:", v)
    return EXIT_VERIFY if bad else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="armseq",
        description="Subspace decomposition and task sequencing for planar arms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="offline stage: build and store a decomposition")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("sequence", help="online stage: plan a mission from an artifact")
    p.add_argument("--artifact", required=True)
    p.add_argument("--tasks", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("bench", help="randomized method comparison sweep")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("render", help="draw an artifact or plan as SVG")
    p.add_argument("--artifact", required=True,
                   help="decomposition artifact or plan record")
    p.add_argument("--scenario", default=None,
                   help="scenario file (required when rendering a plan)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("verify", help="re-check distortion bounds of an artifact")
    p.add_argument("--artifact", required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise SchemaError("--seed: must be non-negative")
        return args.func(args)
    except SchemaError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print("input error: %s: %s" % (exc.filename, exc.strerror), file=sys.stderr)
        return EXIT_INPUT
    except EmptyGraphError as exc:
        print("input error: scenario.task_grid: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except NoIkSolutionsError as exc:
        print("unplannable: %s" % exc, file=sys.stderr)
        return EXIT_UNPLANNABLE


if __name__ == "__main__":
    sys.exit(main())
