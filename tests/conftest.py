"""Shared pytest plumbing: surface acceptance verdicts in the summary.

The acceptance tests print one "[PASS]/[FAIL] criterion N: ..." line
each, but pytest captures stdout of passing tests, so only failures
would be visible in a plain run. Tests register their verdict lines
here and a terminal-summary hook prints the full scoreboard. The pools
fixture, shared by the simulator and CLI tests, spies on process pools.
"""

import concurrent.futures

import pytest

ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture
def pools(monkeypatch):
    """The worker count of every process pool opened, in order."""
    opened = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kw):
            opened.append(max_workers)
            super().__init__(max_workers, **kw)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return opened
