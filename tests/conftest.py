"""Shared test settings: hypothesis runs a fixed set of examples.

derandomize makes every run draw the same examples, so the suite is
deterministic; deadline=None because some examples run a whole sweep.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
