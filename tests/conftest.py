import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """Record every ``os.fork`` call, which still forks, and return the
    record: the pid of each child, as the forking process saw it."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids
