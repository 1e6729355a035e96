"""Shared fixtures for the runner suite."""

import pytest

from . import chaos


@pytest.fixture
def chaos_workload():
    """Register the chaos workload for the duration of one test.

    The registration goes on the default registry (worker processes inherit
    it via fork) and is removed afterwards so the rest of the suite — and the
    CLI's ``--workload`` choices — never see a ``chaos`` entry.
    """
    chaos.install()
    yield
    chaos.uninstall()
