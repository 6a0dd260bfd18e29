"""Fixtures shared by the test modules."""

import signal
from contextlib import contextmanager

import pytest

from sgwaves import pde_sim


class Overran(Exception):
    """A call outlived its time bound.  Neither an OSError nor an SGWaveError, so no `except` of the
    library, of `cli.main` or of a test that expects a refusal takes it for one."""


@contextmanager
def _bounded(seconds: float):
    def expire(signum, frame):
        raise Overran(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def time_bound():
    """time_bound(seconds): a context that raises Overran in the test's own thread once its body has
    run for `seconds`, so a call that never returns fails its test instead of holding the suite."""
    return _bounded


@pytest.fixture
def kernels(monkeypatch):
    """Every pde_sim._Leapfrog built during the test, in order."""
    built, build = [], pde_sim._Leapfrog

    def recorded(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(pde_sim, "_Leapfrog", recorded)
    return built
