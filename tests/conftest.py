"""Hypothesis runs the same examples on every run of the suite.

Property tests that set no seed of their own are derandomized, and slow
examples (a dense-sampling check may take seconds) never fail on a
deadline. Tests keep their own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("trajq", derandomize=True, deadline=None)
settings.load_profile("trajq")
