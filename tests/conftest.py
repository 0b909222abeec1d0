import os

import pytest


def pytest_addoption(parser):
    parser.addoption("--heavy", action="store_true", default=False,
                     help="run the long Monte Carlo validation tests")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--heavy"):
        return
    skip = pytest.mark.skip(reason="heavy Monte Carlo run; pass --heavy to enable")
    for item in items:
        if "heavy" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped (the
    Monte Carlo flush worker, for one, must be gone when its chunk ends)."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:       # no child at all
        return
    pytest.fail("the test left a child process running" if pid == 0
                else f"the test left child process {pid} unreaped")


@pytest.fixture(autouse=True)
def no_file_descriptor_left():
    """Fail a test that leaves more file descriptors open than it found (the
    pipes of the Monte Carlo flush worker, for one, must be closed when its
    chunk ends).  Where /proc is missing the check is skipped."""
    fds = "/proc/self/fd"
    if not os.path.isdir(fds):
        yield
        return
    before = len(os.listdir(fds))
    yield
    left = len(os.listdir(fds)) - before
    if left > 0:
        pytest.fail(f"the test left {left} more file descriptor(s) open")
