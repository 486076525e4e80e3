import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_is_left():
    """Fail a test that leaves a child process, running or exited but not
    reaped: `bench` forks, and each child must be gone when it returns."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    if pid:
        pytest.fail(f"the test left child process {pid} unreaped "
                    f"(exit status {os.waitstatus_to_exitcode(status)})")
    pytest.fail("the test left a child process running")
