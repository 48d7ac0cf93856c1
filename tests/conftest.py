"""Session fixtures: the bundled scenario runs shared across test modules."""

from __future__ import annotations

import time

import pytest

from loadshed.optimizer import solve
from loadshed.scenario import default_scenario
from loadshed.sim import run_lockstep


@pytest.fixture(scope="session")
def bundled_scenario():
    return default_scenario()


@pytest.fixture(scope="session")
def run_durations():
    return {}


@pytest.fixture(scope="session")
def advanced_run(bundled_scenario, run_durations):
    t0 = time.perf_counter()
    result = run_lockstep(bundled_scenario, algorithm="advanced", seed=42)
    run_durations["advanced"] = time.perf_counter() - t0
    return result


@pytest.fixture(scope="session")
def baseline_run(bundled_scenario, run_durations):
    t0 = time.perf_counter()
    result = run_lockstep(bundled_scenario, algorithm="baseline", seed=42)
    run_durations["baseline"] = time.perf_counter() - t0
    return result


@pytest.fixture
def solves(monkeypatch):
    """Every plan the controllers' ``solve`` computes, in order."""
    plans = []

    def counting(instance, deadline_s=0.05):
        plans.append(solve(instance, deadline_s))
        return plans[-1]

    monkeypatch.setattr("loadshed.controller.solve", counting)
    return plans
