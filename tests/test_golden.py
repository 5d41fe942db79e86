"""Byte-identity guard: pinned digests of the CLI's deterministic outputs.

For every shipped scenario the decomposition artifact written by
``armseq decompose`` and the plan record written by ``armseq sequence`` for a
fixed 6-task mission must hash to the digests below. A refactor that claims
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
        "9551c5d734f19b5a862257f822d9fc6cddaf637991336908106980db4dcec693",
        "d438454ade6ca4f061f3f73a8f3b8a472b267bd438708a7df198bcde578e52ea",
    ),
    "tabletop_single_box": (
        TABLETOP_TASKS,
        "7aeee3e2f5c30c32a9907a6e384a12fcd2d5c408206d28d02b8a1c57e4e31943",
        "c258f4411d3045014c59ce1726a8f486f1a3e35d49bb951e237afa2165c98a44",
    ),
    "rail_mobile": (
        RAIL_TASKS,
        "4d7c426b741235d93f69a7e5f13cceeb61af18955014252d12c399366fad6035",
        "8fedf40e969294dce67fcc9a70bfc13829f6413fdcc36c31640aad78e81aebe5",
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
