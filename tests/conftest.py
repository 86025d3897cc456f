"""Fixtures shared by the tests of the passes that split over the cores."""

import threading

import pytest

from chi_dlog import qstate


@pytest.fixture
def see_cores(monkeypatch):
    """A setter: see_cores(count) makes every split pass find `count` cores."""
    def see(count):
        monkeypatch.setattr(qstate.os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)
    return see


@pytest.fixture
def started(monkeypatch):
    """Every thread the split passes start, in order."""
    threads = []

    class Recorded(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()
    monkeypatch.setattr(qstate.threading, "Thread", Recorded)
    return threads
