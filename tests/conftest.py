"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` replays the same examples
on every run and never fails on a slow runner's deadline; local runs keep
hypothesis's default profile."""

import os
import warnings

from hypothesis import settings

# On a failing example, hypothesis's pytest plugin imports its patch writer,
# which imports libcst, which may raise a DeprecationWarning (mypy_extensions
# >= 1.1).  Under ``filterwarnings = error`` that warning crashes the plugin
# and aborts the whole run.  Importing the module here, with that warning
# ignored for this import only, lets a failing test report as a failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
