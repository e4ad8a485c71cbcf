from dataclasses import replace

import pytest

from crosswalk_sim.hybrid import HybridController
from crosswalk_sim.pomdp import qmdp_solve

from states import CONFIG


@pytest.fixture(scope="session")
def config():
    """The default config; every fixture below comes from it."""
    return CONFIG


@pytest.fixture(scope="session")
def geometry(config):
    return config.geometry()


@pytest.fixture(scope="session")
def params(config):
    return config.controller_params()


@pytest.fixture(scope="session")
def gap_model(config):
    return config.gap_model()


@pytest.fixture(scope="session")
def scenario_factory(config):
    """The default scenario with ``kwargs`` written over its fields."""
    scenario = config.scenario()

    def make(**kwargs):
        return replace(scenario, **kwargs)

    return make


@pytest.fixture(scope="session")
def hybrid_for():
    """A hybrid controller for a scenario, built as the CLI builds it."""

    def make(scenario):
        return HybridController(scenario.params, scenario.geometry, dt=scenario.dt)

    return make


@pytest.fixture(scope="session")
def ctrl(scenario_factory, hybrid_for):
    """The hybrid controller of the default scenario."""
    return hybrid_for(scenario_factory())


@pytest.fixture(scope="session")
def pomdp_model(config):
    return config.pomdp_model()


@pytest.fixture(scope="session")
def solved_policy(config, pomdp_model):
    return qmdp_solve(pomdp_model, tol=config.pomdp["tol"])
