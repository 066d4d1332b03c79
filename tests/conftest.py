"""Hypothesis runs derandomized, with no deadline and no example database, so
the property tests draw the same cases on every run and machine."""

from hypothesis import settings

settings.register_profile("fredlab", derandomize=True, deadline=None, database=None)
settings.load_profile("fredlab")
