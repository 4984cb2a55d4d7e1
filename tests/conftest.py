"""Shared test settings: hypothesis runs a fixed set of examples, and no
test may leave a child process behind.

derandomize makes every run draw the same examples, so the suite is
deterministic; deadline=None because some examples run a whole sweep.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process, running or a zombie."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)    # reaps a zombie it finds
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid: {left})")
