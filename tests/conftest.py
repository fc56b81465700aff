import pytest

from quadtrack import Scenario, run_scenario


@pytest.fixture(scope="session")
def default_run():
    """The stock 120 s mission, integrated once per test session."""
    sc = Scenario()
    result = run_scenario(sc)
    return sc, result
