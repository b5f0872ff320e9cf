import numpy as np
import pytest
from hypothesis import settings

from jspectral import Space, hardy

# property tests are reproducible run to run and untimed; each sets only
# its own max_examples
settings.register_profile("jspectral", deadline=None, derandomize=True)
settings.load_profile("jspectral")


@pytest.fixture(scope="session")
def l2_256():
    return Space.uniform(256, 2.0)


@pytest.fixture(scope="session")
def l3_256():
    return Space.uniform(256, 3.0)


@pytest.fixture(scope="session")
def hardy_l2(l2_256):
    return hardy(l2_256, l2_256)


@pytest.fixture(scope="session")
def hardy_l3_l2(l3_256, l2_256):
    return hardy(l3_256, l2_256)


def rng(seed=0):
    return np.random.default_rng(seed)
