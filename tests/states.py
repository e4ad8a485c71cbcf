"""Scalar trial states for unit tests of the per-tick functions."""

from crosswalk_sim.core import ControllerParams, EntrySide, WorldGeometry
from crosswalk_sim.pedestrian import GapAcceptanceModel
from crosswalk_sim.simulator import Scenario, TrialState


def trial_state(geometry=WorldGeometry(), side=EntrySide.NEAR, gap=2.0, gap_model=GapAcceptanceModel(),
                **values) -> TrialState:
    """The start of a trial on ``geometry`` from ``side``, lane A, with ``values``
    written over its fields (for example ``d``, ``v``, ``x_p``, ``xdot_p``)."""
    s = TrialState(Scenario(geometry, ControllerParams(), gap_model, entry_side=side), gap)
    for name, value in values.items():
        setattr(s, name, value)
    return s
