"""The default config, its variations, and scalar trial states for unit tests.

Every model object a test builds comes from the config, as the command line
builds it: from ``CONFIG``, from ``config_with`` for a variation, or from
``dataclasses.replace`` on one of them.
"""

from dataclasses import fields, replace

from crosswalk_sim.config import load_config
from crosswalk_sim.core import EntrySide
from crosswalk_sim.pedestrian import in_crosswalk
from crosswalk_sim.simulator import TrialState

CONFIG = load_config(env={})  # the defaults, whatever the environment holds
SCENARIO = CONFIG.scenario()


def config_with(preset=None, **sections):
    """The config of ``preset`` (None for the defaults) with ``sections``, each a
    ``{key: value}`` dict, laid over it as command-line flags are."""
    return load_config(preset=preset, env={}, cli_overrides=sections)


def scaled_weights(k):
    """The default config's reward weights, each times ``k``, as ``[pomdp]`` keys."""
    weights = CONFIG.reward_weights()
    return {f.name: k * getattr(weights, f.name) for f in fields(weights)}


def set_fields(s, geometry=SCENARIO.geometry, **values):
    """``s`` with ``values`` written over its fields, then its ``right_of_way`` set
    by ``in_crosswalk`` on ``geometry``, as the engines set it wherever they
    write the pedestrian."""
    for name, value in values.items():
        setattr(s, name, value)
    s.right_of_way = in_crosswalk(s, geometry)
    return s


def trial_state(geometry=SCENARIO.geometry, side=EntrySide.NEAR, gap_model=SCENARIO.gap_model,
                **values) -> TrialState:
    """The start of a trial on ``geometry`` from ``side``, lane A, with ``values``
    written over its fields (for example ``d``, ``v``, ``x_p``, ``xdot_p``) by
    ``set_fields``."""
    s = TrialState(replace(SCENARIO, geometry=geometry, gap_model=gap_model, entry_side=side))
    return set_fields(s, geometry, **values)
