import pytest
from hypothesis import HealthCheck, settings

from rangelab.walks import builtin_distribution

# Timing belongs to the benchmark, not the property tests.
settings.register_profile(
    "rangelab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("rangelab")


@pytest.fixture(scope="session")
def srw():
    return builtin_distribution("srw")


@pytest.fixture(scope="session")
def lazy():
    return builtin_distribution("lazy-srw")


@pytest.fixture(scope="session")
def king():
    return builtin_distribution("king")
