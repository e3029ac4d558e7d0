"""Test-suite settings shared by every module.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so a run of the suite checks the same inputs on every checkout.
Each ``@given`` test keeps its own ``max_examples`` and ``deadline``.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
