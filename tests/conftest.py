"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` replays the same examples
on every run and never fails on a slow runner's deadline; local runs keep
hypothesis's default profile."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
