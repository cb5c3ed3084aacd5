"""Obs test hygiene: never leak a live recorder between tests."""

import pytest

from repro import telemetry


@pytest.fixture(autouse=True)
def no_recorder_leak():
    telemetry.disable()
    yield
    telemetry.disable()
