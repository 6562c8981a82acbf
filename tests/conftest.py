"""Fixtures shared by the test files."""

import sys

import pytest


@pytest.fixture
def fast_thread_switching():
    """Threads switch every microsecond during the test, so that they
    interleave inside calls."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name, *more) wraps the function owner.name for the test, on
    owner and on each module of more that binds the same function: every call
    appends its positional arguments to the list spy returns, then runs the
    function."""

    def install(owner, name, *more):
        original, calls = getattr(owner, name), []

        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for target in (owner, *more):
            monkeypatch.setattr(target, name, wrapper)
        return calls

    return install
