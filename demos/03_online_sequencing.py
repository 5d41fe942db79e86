"""Online stage: sequence a four-task mission and compare against baselines.

On the single-obstacle tabletop, the first map covers the strip with the
elbow-up branch. The task-space-only baseline assigns each task its first IK
solution, mixing elbow branches mid-tour and paying huge configuration
jumps; matching against the stored maps keeps the branch consistent.
"""

import os
import warnings

from armseq import (Checker, CostOracle, SequencingParams, adapt_plan, build_graph,
                    build_task_grid, decompose, naive_sequence,
                    plan_visit_cost, robotsp_sequence, sequence)
from armseq.render import render_plan_svg
from armseq.serialize import load_scenario

scenario = load_scenario("scenarios/tabletop_single_box.json")
points = build_task_grid(scenario.grid_region, scenario.grid_spacing)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    graph = build_graph(points, scenario.connection_radius, scenario.arm,
                        scenario.scene, scenario.edge_check_count)
dec = decompose(graph, scenario.decomposition)

tasks = scenario.tasks
plan = sequence(tasks, dec, scenario.home_task,
                SequencingParams(scenario.k, scenario.threshold),
                scenario.arm, scenario.scene)
print("visit order (-1 is home):", plan.visit_order)
print("groups by map:", plan.group_orders)

# one checker serves both baselines and the oracle that costs every method
check = Checker(scenario.arm, scenario.scene)
naive = naive_sequence(tasks, check, scenario.home_task, home_q=plan.home_config)
robotsp = robotsp_sequence(tasks, check, scenario.home_task, home_q=plan.home_config)

# every method is costed by the same oracle: adapted straight-seed legs
oracle = CostOracle(check, rng_seed=scenario.seed)
for name, p in (("subspace", plan), ("naive", naive), ("robotsp", robotsp)):
    print("%-9s total cost %.3f" % (name, plan_visit_cost(p, oracle)))

# adapt the winning plan to executable trajectories and draw it
adapted = adapt_plan(plan, scenario.arm, scenario.scene, scenario.step,
                     rng_seed=scenario.seed, timeout=scenario.timeout)
print("adapted legs valid:", [leg.valid for leg in adapted.legs])
os.makedirs("demos/out", exist_ok=True)
with open("demos/out/mission.svg", "w") as fh:
    fh.write(render_plan_svg(adapted, scenario.scene, scenario.arm))
print("figure written to demos/out/mission.svg")
