"""Shared test configuration.

Hypothesis draws the same examples on every run (``derandomize``), keeps no
example database between runs, and has no per-example deadline, because
exact coefficient arithmetic is slow on its first, cold call.
"""

from hypothesis import settings

settings.register_profile("rmx", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("rmx")
