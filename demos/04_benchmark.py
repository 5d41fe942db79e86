"""Randomized benchmark sweep comparing all four sequencing methods.

Shrinks the sweep of scenarios/tabletop.json so the demo finishes in well
under a minute; its full sweep ({3, 5, 8} tasks x 10 trials) is what the
acceptance suite runs.
Identical (scenario, seed) pairs always produce byte-identical reports.
"""

from armseq.bench import run_bench, summary_table
from armseq.serialize import Scenario, dumps, load_json

data = load_json("scenarios/tabletop.json")
data["bench"] = {"task_counts": [3, 5], "trials": 3}
scenario = Scenario(data)

report, timings = run_bench(scenario)
print(summary_table(report))
print()
print("decomposition took %.2f s; %d timing rows collected separately"
      % (timings["decompose_s"], len(timings["rows"])))

again, _ = run_bench(scenario)
print("second run byte-identical:", dumps(report) == dumps(again))
