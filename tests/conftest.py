"""Suite-wide hypothesis settings: every property test draws the same
examples on every run, and no example database carries state between runs.
Each test's own ``max_examples`` and ``deadline`` still apply."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
