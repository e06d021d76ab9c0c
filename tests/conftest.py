import os

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


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache(tmp_path_factory):
    """Keep table caches inside the test session, shared across tests."""
    old = os.environ.get("RANGELAB_CACHE_DIR")
    os.environ["RANGELAB_CACHE_DIR"] = str(tmp_path_factory.mktemp("table-cache"))
    yield
    if old is None:
        os.environ.pop("RANGELAB_CACHE_DIR", None)
    else:
        os.environ["RANGELAB_CACHE_DIR"] = old


@pytest.fixture(scope="session")
def srw():
    return builtin_distribution("srw")


@pytest.fixture(scope="session")
def lazy():
    return builtin_distribution("lazy-srw")


@pytest.fixture(scope="session")
def king():
    return builtin_distribution("king")
