"""Task sequencing for planar serial arms via configuration-subspace decompositions.

Offline, a discretised task space is covered by maps that assign one IK
solution per task point while bounding the distortion between task-space and
configuration-space distances. Online, missions are matched to those maps,
sequenced with per-subspace TSPs anchored at a home configuration, and the
resulting seed trajectories are adapted to the live scene.
"""

from .baselines import (CostOracle, TooLargeError, gtsp_bruteforce,
                        naive_sequence, plan_visit_cost, robotsp_sequence)
from .decomposition import (Decomposition, DecompositionParams, EmptyGraphError,
                            GhaMap, GhaVerification, NoFeasibleRootError,
                            NoProgressWarning, build_map, decompose, decompose_mobile,
                            generate_map, get_mapping, update, verify_gha)
from .kinematics import (ArmModel, TaskPoint, config_distance,
                         forward_kinematics, ik_solutions, task_distance)
from .motion import (PlanningTimeoutError, SeedInvalidError, Trajectory,
                     TrajectoryMetrics, adapt_trajectory, fallback_plan,
                     finite_difference_max_jerk, plan_leg, trajectory_metrics)
from .sequencer import (HOME, DisconnectedError, Leg, NoIkSolutionsError,
                        SequencePlan, SequencingParams, TaskMatch, adapt_plan,
                        home_config, intra_subspace_trajectory, match_task,
                        sequence, solve_tsp)
from .taskgraph import IslandWarning, TaskGraph, build_graph, build_task_grid
from .world import Box, Checker, Disc, Scene, config_valid, motion_valid

__version__ = "0.1.0"

__all__ = [
    "ArmModel", "Box", "Checker", "CostOracle", "Decomposition", "DecompositionParams",
    "Disc", "DisconnectedError", "EmptyGraphError", "GhaMap", "GhaVerification", "HOME",
    "IslandWarning", "Leg", "NoFeasibleRootError", "NoIkSolutionsError",
    "NoProgressWarning", "PlanningTimeoutError", "Scene", "SeedInvalidError",
    "SequencePlan", "SequencingParams", "TaskGraph", "TaskMatch", "TaskPoint",
    "TooLargeError", "Trajectory", "TrajectoryMetrics", "adapt_plan",
    "adapt_trajectory", "build_graph", "build_map", "build_task_grid",
    "config_distance", "config_valid", "decompose", "decompose_mobile", "fallback_plan",
    "finite_difference_max_jerk", "forward_kinematics", "generate_map", "get_mapping",
    "gtsp_bruteforce", "home_config", "ik_solutions", "intra_subspace_trajectory",
    "match_task", "motion_valid", "naive_sequence", "plan_leg", "plan_visit_cost",
    "robotsp_sequence", "sequence", "solve_tsp", "task_distance", "trajectory_metrics",
    "update", "verify_gha",
]
