import os

import pytest

from aucmax import _rowblocks

# The process counts the forked-path tests force: in place, one child, two.
COUNTS = (1, 2, 3)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def force(monkeypatch):
    """force(processes, max_block_values=None): the process count every forked
    row or window block split gets, so the forked path runs on any machine."""
    def set_count(processes, max_block_values=None):
        monkeypatch.setattr(_rowblocks, "process_count", lambda n_values: processes)
        if max_block_values is not None:
            monkeypatch.setattr(_rowblocks, "MAX_BLOCK_VALUES", max_block_values)
    return set_count
