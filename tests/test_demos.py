"""The demos run as scripts and redraw the committed figures byte for byte.

Demo 04 runs a full benchmark sweep (tens of seconds) and is left out.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("demo, figures", [
    ("01_arm_and_world", []),
    ("02_offline_decomposition", ["decomposition.svg"]),
    ("03_online_sequencing", ["mission.svg"]),
    ("05_mobile_rail", ["mobile.svg"]),
])
def test_demo_runs_and_redraws_committed_figures(demo, figures, tmp_path):
    shutil.copytree(ROOT / "scenarios", tmp_path / "scenarios")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(DEMOS / (demo + ".py"))], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    written = sorted((tmp_path / "demos" / "out").glob("*.svg"))
    assert [svg.name for svg in written] == figures
    for svg in written:
        assert svg.read_bytes() == (DEMOS / "out" / svg.name).read_bytes(), svg.name
