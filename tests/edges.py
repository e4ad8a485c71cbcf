"""The edges of ``simulator.plan_batch``'s gap classes, which the tests place gaps on."""

import numpy as np

from crosswalk_sim.simulator import _reference


def class_edges(scenario, controller) -> list[float]:
    """The edges of the gap classes on ``scenario``: the record lows, in falling
    order, of the time gap ``line / v`` (``line > 0``) that a waiting pedestrian
    reads at each tick of the reference trial (``simulator._reference``), any gap's
    trial up to its first tick that arms every pedestrian (the vehicle stopped or
    passed; once it has passed, ``line`` only falls). A colliding tick adds an edge.
    """
    least = _reference(scenario, controller)[0]
    lowest_before = np.minimum.accumulate(np.concatenate(([np.inf], least)))[:-1]
    return least[(least < lowest_before) & (least > -np.inf)].tolist()
