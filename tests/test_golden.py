"""Byte-identity guard: pinned digests of the CLI's deterministic outputs.

For every shipped scenario the decomposition artifact written by
``armseq decompose`` and the plan record written by ``armseq sequence`` for a
fixed 6-task mission must hash to the digests below, and so must the
standard output of ``armseq verify`` and the SVG of ``armseq render`` on that
artifact, and the report of a reduced ``armseq bench`` sweep for two of them.
The verify and render digests pin what a loaded artifact yields (its rows,
root and mean configurations) apart from how the artifact spells it. A refactor that claims
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

# scenario -> (tasks, artifact sha256, plan record sha256, verify stdout sha256,
#              render SVG sha256)
GOLDEN = {
    "tabletop": (
        TABLETOP_TASKS,
        "41b48e115193d9407a8622c60dfd1037c00971e87c2dcdd85e38d567b6ad0d80",
        "1c6531890646769e2c0984dc74213f400f6e507c917a80c96e02c416eeb872b7",
        "d4c60d43d30660824760e3d5631bf3a88e3947bf8084a38351011ca28cad2b86",
        "759ec5a07c486311527ed7ef769f7896ce2078fc3167a6b5055f2c77eeae3792",
    ),
    "tabletop_3link": (
        TABLETOP_TASKS,
        "bd91480c6652f0846de622b510fd2c64a65c4984fe056da1e37e596b79c9f80e",
        "d3f7cb0310f938307e8e81a0b7fe0948db3b47735c7b95f475e65cb053182901",
        "f9f00c671513025ecbeabbe76bd93dd4ada4c8f13cb5cdfa089855264c8405d1",
        "1e5d6edc1a245a2d5b5b1ea73fdf24b360fc40386876988436dd5751f2eb7b42",
    ),
    "tabletop_single_box": (
        TABLETOP_TASKS,
        "e50b1fba291d802c64bc938172d1aad85ac7e8da7ff6c2a4a617757d45029b39",
        "9885e1324c0fb2b7a651c7cde2c1d9fed5a2ebab31e6d1c1bd51f901953ec0f9",
        "25c0c2902db5d7f889735c8d5014c674d099b60818bec964c587f2899d573a6b",
        "7c4151edf14ef851eaa6f643db9fe2d2ff8eec1af10974f69523be25e7439972",
    ),
    "rail_mobile": (
        RAIL_TASKS,
        "304bdf2f260c1b93b168afde8c9365a7c835bb2054478176f5c9f8c7a25a1723",
        "14158be936dd6b7f7201656eee332f72abf3ea8a43ef3c721e3ebee1ab7ad348",
        "03e69983a1d6844b139595d802f95cf4de5b65329f4c468b4b7b45d531be0292",
        "2c8d6a7c212e1cc940789c3b8d7edc20ef2682b63514f38e20c8390117795ff7",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_outputs_match_pinned_digests(name, tmp_path, capsys):
    tasks, artifact_sha, plan_sha, verify_sha, render_sha = GOLDEN[name]
    artifact = tmp_path / "artifact.json"
    plan = tmp_path / "plan.json"
    figure = tmp_path / "figure.svg"
    tasks_file = tmp_path / "tasks.json"
    tasks_file.write_text(json.dumps({"tasks": tasks}))
    assert main(["decompose", "--scenario", str(SCENARIOS / (name + ".json")),
                 "--out", str(artifact)]) == 0
    assert main(["sequence", "--artifact", str(artifact), "--tasks", str(tasks_file),
                 "--out", str(plan)]) == 0
    capsys.readouterr()
    assert main(["verify", "--artifact", str(artifact)]) == 0
    verify_out = capsys.readouterr().out
    assert main(["render", "--artifact", str(artifact), "--out", str(figure)]) == 0
    assert _sha256(artifact) == artifact_sha
    assert _sha256(plan) == plan_sha
    assert hashlib.sha256(verify_out.encode()).hexdigest() == verify_sha
    assert _sha256(figure) == render_sha


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
