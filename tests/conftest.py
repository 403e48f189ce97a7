"""Shared test settings.

Property tests draw the same examples on every run (derandomized, so no
example database is kept) and have no per-example deadline, so a slow
machine cannot turn a passing run into a failing one. A test that takes
the `switching_often` fixture runs with the interpreter switching threads
every microsecond, so that work done twice, or a count lost, by threads
that run at once shows.
"""

import sys

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def switching_often():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)
