"""Hypothesis profiles.

``ci`` derandomizes every property test: the examples are drawn from a seed
fixed by each test's source, so a failure in CI reproduces locally with
``python -m pytest --hypothesis-profile=ci``.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
