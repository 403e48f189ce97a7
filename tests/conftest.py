"""Shared test settings.

Property tests draw the same examples on every run (derandomized, so no
example database is kept) and have no per-example deadline, so a slow
machine cannot turn a passing run into a failing one.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
