"""One ``hypothesis`` profile for every property test: derandomized, so
each run draws the same examples, and no per-example deadline."""

from hypothesis import settings

settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")
