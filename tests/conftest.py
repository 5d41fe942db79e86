import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from armseq import (ArmModel, Checker, Scene, build_graph, build_task_grid, decompose)
from armseq.serialize import Scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# property tests draw the same examples on every run and store none
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def arm2():
    return ArmModel(link_lengths=(1.0, 1.0),
                    joint_limits=((-np.pi, np.pi), (-np.pi, np.pi)),
                    link_thickness=(0.04, 0.04))


@pytest.fixture(scope="session")
def arm3():
    return ArmModel(link_lengths=(0.6, 0.5, 0.4),
                    joint_limits=((-np.pi, np.pi),) * 3,
                    link_thickness=(0.03, 0.03, 0.03))


@pytest.fixture(scope="session")
def empty_scene():
    return Scene()


@pytest.fixture(scope="session")
def check2(arm2, empty_scene):
    return Checker(arm2, empty_scene)


@pytest.fixture(scope="session")
def scenario_json():
    """Loader of a shipped scenario by name; every call returns a fresh dict."""
    return lambda name: json.loads((SCENARIOS / (name + ".json")).read_text())


@pytest.fixture(scope="session")
def tabletop_scenario(scenario_json):
    return Scenario(scenario_json("tabletop"))


@pytest.fixture(scope="session")
def single_box_scenario(scenario_json):
    return Scenario(scenario_json("tabletop_single_box"))


def _build(scenario):
    points = build_task_grid(scenario.grid_region, scenario.grid_spacing)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_graph(points, scenario.connection_radius, scenario.arm,
                           scenario.scene, scenario.edge_check_count)


@pytest.fixture(scope="session")
def tabletop_graph(tabletop_scenario):
    return _build(tabletop_scenario)


@pytest.fixture(scope="session")
def tabletop_decomposition(tabletop_scenario, tabletop_graph):
    return decompose(tabletop_graph, tabletop_scenario.decomposition)


@pytest.fixture(scope="session")
def single_box_graph(single_box_scenario):
    return _build(single_box_scenario)


@pytest.fixture(scope="session")
def single_box_decomposition(single_box_scenario, single_box_graph):
    return decompose(single_box_graph, single_box_scenario.decomposition)
