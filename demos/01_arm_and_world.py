"""Kinematics and collision checking for the planar two-link arm.

Forward kinematics, the analytic inverse-kinematics branch set, the two
metrics used throughout the library, and capsule collision checks against a
simple scene.
"""

import numpy as np

from armseq import (ArmModel, Box, Checker, Disc, Scene, TaskPoint, config_distance,
                    forward_kinematics, ik_solutions, task_distance)

arm = ArmModel(
    link_lengths=(1.0, 1.0),
    joint_limits=((-np.pi, np.pi), (-np.pi, np.pi)),
    link_thickness=(0.04, 0.04),
)

# forward kinematics returns the tip plus every joint position
tip, joints = forward_kinematics(arm, [np.pi / 4, -np.pi / 2])
print("tip:", np.round(tip, 4))
print("joints:", [np.round(j, 4) for j in joints])

# a target inside the reachable annulus has two elbow branches; a checker
# for the arm in its scene decides which of them are valid
target = TaskPoint((1.0, 1.0))
for q in ik_solutions(Checker(arm, Scene()), target):
    print("IK solution:", np.round(q, 4))

# the configuration metric is L-infinity by default, the task metric Euclidean
qa, qb = np.array([0.1, 0.2]), np.array([0.6, -0.5])
print("d_C:", config_distance(qa, qb), " d_T:",
      task_distance(TaskPoint((0, 0)), TaskPoint((3, 4))))

# obstacles remove IK branches and invalidate sweeps
cluttered = Scene((Box(1.2, 1.2, 1.7, 1.7), Disc((-0.9, 0.4), 0.15)))
# one checker answers every validity question for this arm in this scene
check = Checker(arm, cluttered)
print("solutions in clutter:", len(ik_solutions(check, target)))
print("config (0, 0) valid:", check.valid(np.array([0.0, 0.0])))
print("straight sweep to (pi/2, 0) valid:",
      check.motion(np.array([0.0, 0.0]), np.array([np.pi / 2, 0.0])))
