"""Hypothesis settings for the whole test run: derandomized, so every run
draws the same examples and gives the same result; no deadline, since the
oracles are slow by design.  Per-test ``@settings`` keep their own
``max_examples``."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
