"""Byte-identity guard: pinned digests of the CLI's deterministic outputs.

For every shipped scenario the decomposition artifact written by
``armseq decompose`` and the plan record written by ``armseq sequence`` for a
fixed 6-task mission must hash to the digests below, and so must the report
of a reduced ``armseq bench`` sweep for two of them. A refactor that claims
to keep behaviour keeps these digests; a change that alters outputs on
purpose updates them and explains the difference.
"""

import hashlib
import json
from pathlib import Path

import pytest

from armseq.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

TABLETOP_TASKS = [[-0.9, 0.8], [-0.5, 1.1], [0.05, 0.95], [0.4, 0.7], [0.85, 0.75], [1.0, 1.0]]
RAIL_TASKS = [[-1.6, 0.8], [-1.0, 0.7], [-0.3, 0.9], [0.3, 0.7], [1.0, 0.9], [1.6, 0.8]]

# scenario -> (tasks, artifact sha256, plan record sha256)
GOLDEN = {
    "tabletop": (
        TABLETOP_TASKS,
        "367055f9e59b99fafc3fe04fcc525279f6ca71cfe0424fc03d032de9dd8fed9b",
        "1c6531890646769e2c0984dc74213f400f6e507c917a80c96e02c416eeb872b7",
    ),
    "tabletop_3link": (
        TABLETOP_TASKS,
        "edcd4a67644c506042d4fbf3696e08dfc85b135d3063392b78cd2df009fe015d",
        "d3f7cb0310f938307e8e81a0b7fe0948db3b47735c7b95f475e65cb053182901",
    ),
    "tabletop_single_box": (
        TABLETOP_TASKS,
        "fc6ff57824f2c9b382fa690c5954f11cad4bc1285d8070077d538437c611e302",
        "9885e1324c0fb2b7a651c7cde2c1d9fed5a2ebab31e6d1c1bd51f901953ec0f9",
    ),
    "rail_mobile": (
        RAIL_TASKS,
        "005dfe1b9d1ea19d371f2d08d32ce2270c0469747f5e9d455fada8d39bd93767",
        "14158be936dd6b7f7201656eee332f72abf3ea8a43ef3c721e3ebee1ab7ad348",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_outputs_match_pinned_digests(name, tmp_path, capsys):
    tasks, artifact_sha, plan_sha = GOLDEN[name]
    artifact = tmp_path / "artifact.json"
    plan = tmp_path / "plan.json"
    tasks_file = tmp_path / "tasks.json"
    tasks_file.write_text(json.dumps({"tasks": tasks}))
    assert main(["decompose", "--scenario", str(SCENARIOS / (name + ".json")),
                 "--out", str(artifact)]) == 0
    assert main(["sequence", "--artifact", str(artifact), "--tasks", str(tasks_file),
                 "--out", str(plan)]) == 0
    assert _sha256(artifact) == artifact_sha
    assert _sha256(plan) == plan_sha


# scenario -> bench report sha256 for a one-trial sweep over 3 and 8 tasks; the
# baselines' 9-node task-space tours run through the exact TSP solver
GOLDEN_BENCH = {
    "rail_mobile": "29fca67a1c75060a92116cb854e27bce9754b3cb27363cd1ef3acfec1096fc40",
    "tabletop_single_box": "faa60a0fba4681f45e769c3e425205c7ff71310664c3fa5986a6d1030a1a935c",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BENCH))
def test_cli_bench_report_matches_pinned_digest(name, tmp_path, capsys):
    data = json.loads((SCENARIOS / (name + ".json")).read_text())
    data["bench"] = {"task_counts": [3, 8], "trials": 1}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    report = tmp_path / "report.json"
    assert main(["bench", "--scenario", str(scenario), "--out", str(report),
                 "--format", "json"]) == 0
    assert _sha256(report) == GOLDEN_BENCH[name]
