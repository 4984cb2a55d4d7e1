"""Shared test settings: hypothesis runs a fixed set of examples, and no
test may leave a child process or an open file descriptor behind.

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


def _open_fds():
    """The descriptors open in this process, or None where /proc is absent."""
    try:
        listed = os.listdir("/proc/self/fd")
    except FileNotFoundError:
        return None
    open_now = set()
    for name in listed:       # one of them was the listing's own, closed by now
        try:
            os.fstat(int(name))
        except OSError:
            continue
        open_now.add(int(name))
    return open_now


@pytest.fixture(autouse=True)
def no_fd_left():
    """Fail a test that leaves a file descriptor open; skipped without /proc."""
    before = _open_fds()
    yield
    if before is not None:
        left = _open_fds() - before
        if left:
            pytest.fail(f"the test left file descriptors open: {sorted(left)}")
