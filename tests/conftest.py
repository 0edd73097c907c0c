"""Shared pytest hooks and fixtures for the test suite."""

import sys

import pytest

from cacherec import optim


@pytest.fixture
def y_step_fails_at_iteration_2(monkeypatch):
    """Make the CARS recommendation step raise `ValueError` on its second
    call, which is iteration 2 of the first solve.

    Returns the list that holds the first call's output.
    """
    real = optim.cars_y_step
    outputs = []

    def step(*args, **kwargs):
        if outputs:
            raise ValueError("forced step failure")
        outputs.append(real(*args, **kwargs))
        return outputs[0]

    monkeypatch.setattr(optim, "cars_y_step", step)
    return outputs


def pytest_terminal_summary(terminalreporter):
    """Replay acceptance pass/fail lines after output capture ends."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "_REPORT", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
