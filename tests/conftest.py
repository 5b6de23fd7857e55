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


@pytest.fixture(autouse=True)
def _keep_affinity():
    """Give each test back the CPUs it started on: a split pins the parent
    back to the CPU list ``collide_json.usable_cpus`` gave, which a test may
    have faked."""
    before = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    yield
    if before is not None and os.sched_getaffinity(0) != before:
        os.sched_setaffinity(0, before)
