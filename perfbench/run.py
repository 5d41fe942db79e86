"""armseq benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload mission_tabletop --seed 1 --seconds 15 --trace 0

Run from the repository root; armseq is imported from ``src/`` of the same
checkout. The loop is closed: one operation starts when the previous one has
returned, on one thread. Each run repeats whole rounds of the same seeded
operations until ``--seconds`` have passed, then checks every output, replays
the first operation and compares it byte for byte with its first result. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. ``--smoke`` runs one
operation with every check, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
SETUPS_PER_ROUND = 2
MIN_ROUNDS = 2


def import_program():
    """Put this checkout's ``src`` first on the path and refuse any other armseq."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import armseq
    except ImportError as exc:
        sys.exit("perfbench: cannot import armseq from %s: %s" % (ROOT / "src", exc))
    if ROOT / "src" not in Path(armseq.__file__).resolve().parents:
        sys.exit("perfbench: armseq was imported from %s, not from this checkout" % armseq.__file__)


# name -> (unit, span name, figure). Figures are totals per operation, or per
# set-up when the workload runs the function only in set-up: "calls", "self_s",
# "s" (duration, children included), "raised" (calls that raised) and
# "value_sum" (summed outcomes); "ratio" is summed outcomes / calls and
# "value_max" the largest outcome. A trailing * sums spans by prefix.
LAYER_METRICS = {
    "world.config_valid.calls": ("count", "world.config_valid", "calls"),
    "world.config_valid.self_s": ("s", "world.config_valid", "self_s"),
    "world.motion_valid.calls": ("count", "world.motion_valid", "calls"),
    "world.motion_valid.self_s": ("s", "world.motion_valid", "self_s"),
    "world.motion_valid.true_ratio": ("ratio", "world.motion_valid", "ratio"),
    "kinematics.ik_solutions.calls": ("count", "kinematics.ik_solutions", "calls"),
    "kinematics.ik_solutions.self_s": ("s", "kinematics.ik_solutions", "self_s"),
    "kinematics.ik_solutions.kept_per_call": ("count", "kinematics.ik_solutions", "ratio"),
    "taskgraph.build_graph.s": ("s", "taskgraph.build_graph", "s"),
    "taskgraph.edges": ("count", "taskgraph.build_graph", "value_sum"),
    "decomposition.generate_map.calls": ("count", "decomposition.generate_map", "calls"),
    "decomposition.generate_map.self_s": ("s", "decomposition.generate_map", "self_s"),
    "decomposition.get_mapping.calls": ("count", "decomposition.get_mapping", "calls"),
    "decomposition.get_mapping.hit_ratio": ("ratio", "decomposition.get_mapping", "ratio"),
    "decomposition.update.accept_ratio": ("ratio", "decomposition.update", "ratio"),
    "decomposition.verify_gha.self_s": ("s", "decomposition.verify_gha", "self_s"),
    "decomposition.maps": ("count", "decomposition.decompose*", "ratio"),
    "sequencer.match_task.self_s": ("s", "sequencer.match_task", "self_s"),
    "sequencer.intra_subspace_trajectory.calls": ("count", "sequencer.intra_subspace_trajectory", "calls"),
    "sequencer.intra_subspace_trajectory.self_s": ("s", "sequencer.intra_subspace_trajectory", "self_s"),
    "sequencer.solve_tsp.self_s": ("s", "sequencer.solve_tsp", "self_s"),
    "sequencer.solve_tsp.max_n": ("count", "sequencer.solve_tsp", "value_max"),
    "motion.adapt_trajectory.calls": ("count", "motion.adapt_trajectory", "calls"),
    "motion.adapt_trajectory.self_s": ("s", "motion.adapt_trajectory", "self_s"),
    "motion.seed_invalid": ("count", "motion.adapt_trajectory", "raised"),
    "motion.fallback_plan.calls": ("count", "motion.fallback_plan", "calls"),
    "motion.fallback_timeouts": ("count", "motion.fallback_plan", "raised"),
    "motion.trajectory_metrics.self_s": ("s", "motion.trajectory_metrics", "self_s"),
    "serialize.artifact_roundtrip.s": ("s", "serialize.artifact_roundtrip", "s"),
    "serialize.artifact_bytes": ("count", "serialize.artifact_roundtrip", "value_sum"),
}
LAYERS = ("world", "kinematics", "taskgraph", "decomposition", "sequencer", "motion")


def percentile_lower(values, p: float) -> float:
    """Order statistic at fraction ``p``, rounding down, so at least (1 - p) * n values lie above."""
    ordered = sorted(values)
    return ordered[int(p * (len(ordered) - 1))]


def layer_metrics(tracer, op_count: int) -> tuple[dict, dict]:
    """Per-layer figures of a traced run, and each layer's share of operation time."""
    from spans import OP, SETUP, Totals

    phases = {OP: Totals(tracer, OP), SETUP: Totals(tracer, SETUP)}

    def figure(source: str, key: str) -> float:
        names = [source] if not source.endswith("*") else \
            [n for n in tracer.names if n.startswith(source[:-1])]
        phase = OP if any(phases[OP].get(n, "calls") for n in names) else SETUP
        totals = phases[phase]
        per = op_count if phase == OP else 1
        calls = sum(totals.get(n, "calls") for n in names)
        if key == "ratio":
            return sum(totals.get(n, "value_sum") for n in names) / calls if calls else 0.0
        if key == "value_max":
            return max((totals.get(n, "value_max") for n in names), default=0)
        return sum(totals.get(n, key) for n in names) / per

    metrics = {name: {"value": figure(src, key), "unit": unit}
               for name, (unit, src, key) in LAYER_METRICS.items()}
    op = phases[OP]
    op_time = op.get("op", "s")
    # spans nest, so the covered time is that of the op spans' direct children
    a = tracer.arrays()
    is_op = a["name"] == tracer.names.index("op")
    top = (a["parent"] >= 0) & is_op[a["parent"]]
    covered = float((a["end"] - a["start"])[top].sum())
    shares = {layer: sum(s["self_s"] for n, s in op.stats.items() if n.startswith(layer + "."))
              / op_time for layer in LAYERS} if op_time else {}
    metrics["trace.op_mean_s"] = {"value": op_time / op_count, "unit": "s"}
    metrics["trace.covered_share"] = {"value": covered / op_time if op_time else 0.0, "unit": "ratio"}
    return metrics, shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one operation and one set-up, every check; figures are not measurements")
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    warnings.simplefilter("ignore")
    import workloads
    from spans import OP, SETUP, Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    cls = workloads.WORKLOADS[args.workload]
    ops = 1 if args.smoke else cls.ops_per_round
    wl = cls(args.seed, ops)
    tracer = Tracer() if args.trace else None

    def set_up():
        t0 = time.perf_counter()
        if tracer is None:
            st = wl.setup()
        else:
            tracer.install()
            with tracer.span("setup", SETUP):
                st = wl.setup(tracer)
        setup_times.append(time.perf_counter() - t0)
        return st

    # untimed runs repeat the round at least twice and time each input by its
    # fastest repetition: the host's speed drifts by tens of percent for seconds
    # at a time, and the best of repetitions a round apart filters most of it.
    # Set-up is repeated between rounds for the same reason.
    setup_times: list[float] = []
    state = set_up()
    min_rounds = 1 if (args.smoke or tracer) else MIN_ROUNDS
    results, op_times = [], []
    wall = 0.0
    try:
        while len(results) < min_rounds * len(wl.inputs) or (min_rounds > 1 and wall < args.seconds):
            started = time.perf_counter()
            for inp in wl.inputs:
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        out = wl.run(state, inp)
                    else:
                        with tracer.span("op", OP):
                            out = wl.run(state, inp)
                except Exception as exc:  # an operation that raises counts as failed
                    out = exc
                op_times.append(time.perf_counter() - t0)
                results.append(out)
            wall += time.perf_counter() - started
            while min_rounds > 1 and len(setup_times) < SETUP_REPEATS \
                    and len(setup_times) <= len(results) // len(wl.inputs) * SETUPS_PER_ROUND:
                set_up()
    finally:
        if tracer is not None:
            tracer.uninstall()

    checks_started = time.perf_counter()
    n = len(wl.inputs)
    rounds = len(results) // n
    errors = []
    ok = [not isinstance(out, Exception) and not wl.failed(out) for out in results]
    for k, out in enumerate(results):
        if not ok[k]:
            print("operation %d (input %d) failed: %r" % (k, k % n, out), file=sys.stderr)
    for i in range(n):
        if ok[i]:
            errors += ["input %d: %s" % (i, e) for e in wl.check(state, i, results[i])]
    records = [wl.record(results[i]) if ok[i] else None for i in range(n if rounds > 1 else 1)]
    for k in range(n, len(results)):
        if ok[k] and wl.record(results[k]) != records[k % n]:
            errors.append("round %d, input %d: output differs from round 1" % (k // n + 1, k % n))
    if ok[0] and wl.record(wl.run(state, wl.inputs[0])) != records[0]:
        errors.append("replaying input 0 gave a different result")
    quality, quality_errors = wl.quality(state, [(i, results[i]) for i in range(n) if ok[i]])
    errors += quality_errors

    if tracer is None:
        best = [min(op_times[i::n]) for i in range(n) if all(ok[i::n])]
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "op_p50_s": {"value": statistics.median(best), "unit": "s"},
            "op_tail_s": {"value": percentile_lower(best, max(0.0, 1.0 - 10.0 / n)), "unit": "s"},
            "ops_per_s": {"value": sum(ok) / wall, "unit": "1/s"},
            "exec_s_mean": {"value": quality["exec_s_mean"], "unit": "s"},
            "max_jerk_mean": {"value": quality["max_jerk_mean"], "unit": "rad/s3"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    else:
        metrics, shares = layer_metrics(tracer, len(results))
        if metrics["motion.fallback_plan.calls"]["value"] != 0:
            errors.append("the fallback planner ran; its wall-clock deadline makes results host-dependent")
        print("layer share of operation time: " + ", ".join(
            "%s %.1f%%" % (k, 100 * v) for k, v in shares.items()), file=sys.stderr)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / ("trace-%s-%d.npz" % (args.workload, args.seed)))

    for e in errors:
        print("check failed: " + e, file=sys.stderr)
    for where, leg, depth in wl.sweeps:
        print("note: %s, leg %d touches an obstacle by %.3g between the program's own "
              "samples, seen at %d times their resolution"
              % (where, leg, -depth, workloads.CHECK_REFINE), file=sys.stderr)
    for i, mi, count in getattr(wl, "geodesic_notes", ()):
        print("note: input %d, map %d: verify_gha reports %d geodesic bound violations"
              % (i, mi, count), file=sys.stderr)
    print("%s: %d rounds of %d operations in %.2f s, checks %.2f s"
          % (args.workload, rounds, n, wall, time.perf_counter() - checks_started), file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": len(results),
                      "failed": len(results) - sum(ok), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
