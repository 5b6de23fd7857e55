import concurrent.futures

import pytest


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace ``concurrent.futures.ProcessPoolExecutor`` with an in-process
    stand-in and return its record: one [max_workers, items mapped] entry per
    pool created."""
    started = []

    class SerialPool:
        """In-process stand-in for the process pool; records its size and load."""

        def __init__(self, max_workers):
            self.load = [max_workers, 0]
            started.append(self.load)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, *iterables):
            self.load[1] += len(items)
            return map(fn, items, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return started
