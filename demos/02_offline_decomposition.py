"""Offline stage: cover a task strip with distortion-bounded subspace maps.

The tabletop scene has two low boxes flanking the arm base. Reaching the left
part of the strip forces one elbow branch and the right part the other, so
the decomposition finds two maps whose configuration-space images are far
apart, with a small task-space overlap in the middle.
"""

import os
import warnings

from armseq import (build_graph, build_task_grid, config_distance, decompose,
                    verify_gha)
from armseq.render import render_decomposition_svg
from armseq.serialize import load_scenario

scenario = load_scenario("scenarios/tabletop.json")

points = build_task_grid(scenario.grid_region, scenario.grid_spacing)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    graph = build_graph(points, scenario.connection_radius, scenario.arm,
                        scenario.scene, scenario.edge_check_count)
print("task graph: %d nodes, %d edges" % (len(graph), len(graph.edges)))

dec = decompose(graph, scenario.decomposition)
print("maps found: %d, coverage %.2f" % (len(dec.maps), dec.coverage))
for i, m in enumerate(dec.maps):
    print("  map %d: %d nodes, objective %.2f, root at %s"
          % (i, len(m.assignment), m.objective, graph.nodes[m.root].position))

# the two maps use opposite elbow branches: far apart in configuration space
cross = min(config_distance(qa, qb)
            for qa in dec.maps[0].assignment.values()
            for qb in dec.maps[1].assignment.values())
print("min cross-map d_C: %.2f (epsilon %.2f)"
      % (cross, scenario.decomposition.epsilon))

# the distortion audit checks edges, chained hops and geodesic images
for i, m in enumerate(dec.maps):
    rep = verify_gha(m, graph, scenario.decomposition.epsilon)
    print("  map %d verification clean: %s" % (i, rep.clean()))

os.makedirs("demos/out", exist_ok=True)
with open("demos/out/decomposition.svg", "w") as fh:
    fh.write(render_decomposition_svg(dec, scenario.scene, scenario.arm))
print("figure written to demos/out/decomposition.svg"
      " (hatched nodes belong to both maps)")
