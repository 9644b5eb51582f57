import os

import pytest

from aucmax import _rowblocks, features

# The worker counts the tests force: in place, then two or three processes
# (forked row blocks) or threads (the feature window loop).
COUNTS = (1, 2, 3)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def force(monkeypatch):
    """force(workers, max_block_values=None): the worker count of every forked
    row block split and of the feature window loop's threads, so both run on
    any machine."""
    def set_count(workers, max_block_values=None):
        monkeypatch.setattr(_rowblocks, "worker_count", lambda n_values: workers)
        monkeypatch.setattr(features, "worker_count", lambda n_values: workers)
        if max_block_values is not None:
            monkeypatch.setattr(_rowblocks, "MAX_BLOCK_VALUES", max_block_values)
    return set_count
