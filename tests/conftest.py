"""Test-wide settings: property tests run a fixed, derandomized set of examples.

Every run draws the same examples, so the suite stays deterministic and a
property failure reproduces without a saved example database.
"""

from hypothesis import settings

settings.register_profile(
    "shockline", derandomize=True, deadline=None, max_examples=200, database=None
)
settings.load_profile("shockline")
