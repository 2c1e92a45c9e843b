import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "acceptance",
    max_examples=1000,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large, HealthCheck.filter_too_much],
)
settings.register_profile(
    "dev",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large, HealthCheck.filter_too_much],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "acceptance"))


@pytest.fixture()
def scorer_processes(monkeypatch):
    """Every process a scorer client spawns; the test fails if one outlives it."""
    from ctxsens.scorer import ExternalScorerClient

    spawned = []
    init = ExternalScorerClient.__init__

    def recording_init(self, endpoint):
        init(self, endpoint)
        if self._process is not None:
            spawned.append(self._process)

    monkeypatch.setattr(ExternalScorerClient, "__init__", recording_init)
    yield spawned
    alive = [process.args for process in spawned if process.poll() is None]
    for process in spawned:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=5)
    assert not alive, f"scorer processes left running: {alive}"
