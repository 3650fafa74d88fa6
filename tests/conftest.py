"""Fixtures shared by the test modules."""

import pytest

from wordbeam import fanout


@pytest.fixture
def one_process(monkeypatch):
    """Run every fan-out in this process alone: a spy on the CLI's or the
    trend lanes' calls sees only the calls of its own process."""
    monkeypatch.setattr(fanout, "available_cpus", lambda: 1)
