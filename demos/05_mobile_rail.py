"""Mobile-base variant: one subspace map per rail position.

A strip wider than the arm's reach is covered by giving the decomposition a
discrete set of base poses; each iteration runs the map search from every
unused base and keeps the globally best, so each pose ends up owning the
region it reaches most cheaply.
"""

import os
import warnings

from armseq import decompose_mobile
from armseq.render import render_decomposition_svg
from armseq.serialize import load_scenario

scenario = load_scenario("scenarios/rail_mobile.json")
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    dec = decompose_mobile(scenario.grid_region, scenario.grid_spacing,
                           scenario.connection_radius, scenario.base_poses,
                           scenario.arm, scenario.scene, scenario.decomposition,
                           scenario.edge_check_count)

print("coverage %.2f with %d maps" % (dec.coverage, len(dec.maps)))
for i, m in enumerate(dec.maps):
    g = dec.graph_for(m)
    xs = [g.nodes[n].position[0] for n in m.assignment]
    print("  map %d from base %s covers x in [%.2f, %.2f] (%d nodes)"
          % (i, m.base_pose, min(xs), max(xs), len(m.assignment)))

os.makedirs("demos/out", exist_ok=True)
with open("demos/out/mobile.svg", "w") as fh:
    fh.write(render_decomposition_svg(dec, scenario.scene, scenario.arm))
print("figure written to demos/out/mobile.svg")
