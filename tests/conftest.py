"""Shared fixtures: the stock network, scenario and accuracy constants,
all built from the program's DEFAULT_CONFIG."""

import numpy as np
import pytest

from util import stock_config


@pytest.fixture(scope="session")
def template_net():
    return stock_config().network


@pytest.fixture(scope="session")
def default_scenario():
    return stock_config().scenario


@pytest.fixture(scope="session")
def default_params():
    return stock_config().accuracy


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
