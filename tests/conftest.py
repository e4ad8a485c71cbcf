import pytest

from crosswalk_sim.core import ControllerParams, WorldGeometry
from crosswalk_sim.hybrid import HybridController
from crosswalk_sim.pedestrian import GapAcceptanceModel
from crosswalk_sim.pomdp import PomdpModel, qmdp_solve
from crosswalk_sim.simulator import Scenario


@pytest.fixture(scope="session")
def geometry():
    return WorldGeometry()


@pytest.fixture(scope="session")
def params():
    return ControllerParams()


@pytest.fixture(scope="session")
def gap_model():
    return GapAcceptanceModel()


@pytest.fixture(scope="session")
def scenario_factory(geometry, params, gap_model):
    def make(**kwargs):
        defaults = dict(geometry=geometry, params=params, gap_model=gap_model)
        defaults.update(kwargs)
        return Scenario(**defaults)

    return make


@pytest.fixture(scope="session")
def hybrid_for():
    """A hybrid controller for a scenario, built as the CLI builds it."""

    def make(scenario):
        return HybridController(scenario.params, scenario.geometry, dt=scenario.dt)

    return make


@pytest.fixture(scope="session")
def pomdp_model(geometry, params, gap_model):
    return PomdpModel(params, geometry, gap_model)


@pytest.fixture(scope="session")
def solved_policy(pomdp_model):
    return qmdp_solve(pomdp_model)
