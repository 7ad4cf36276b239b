"""Shared pytest plumbing for the acceptance suite.

Acceptance tests report one PASS/FAIL/WARN line per criterion; the lines are
collected here and echoed in a dedicated section of the terminal summary so
they are visible regardless of output capturing.

Pool sweeps keep their children for later sweeps.  After each test the
fixture below drops them, so every test starts without a kept child and
forks its own, and then checks that no child process is left.
"""
import multiprocessing

import pytest

from tempora import sampler

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_sweep_child_left():
    yield
    sampler._drop_children()
    assert multiprocessing.active_children() == []
