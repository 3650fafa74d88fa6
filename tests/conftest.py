"""Fixtures shared by the test modules."""

import warnings

import pytest

from wordbeam import fanout

# Hypothesis reports a failing example through ``hypothesis.extra._patching``,
# whose first import warns in mypy_extensions. ``pytest -W error`` overrides
# the pyproject.toml filter for that warning, and raised inside the report
# hook it would end the session; imported here once, it warns no more.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst, hypothesis reports without it
        pass


@pytest.fixture
def one_process(monkeypatch):
    """Run every fan-out in this process alone: a spy on the CLI's or the
    trend lanes' calls sees only the calls of its own process."""
    monkeypatch.setattr(fanout, "available_cpus", lambda: 1)
