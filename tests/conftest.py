"""Suite-wide test settings.

Property tests run under one hypothesis profile: examples are derived
from each test's own code (no random seed, no example database) and the
example count is bounded, so every run checks the same cases in a
bounded time.
"""

from hypothesis import settings

settings.register_profile("lagdyn", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("lagdyn")
