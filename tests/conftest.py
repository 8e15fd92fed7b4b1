"""Hypothesis profiles.  ``HYPOTHESIS_PROFILE=ci`` selects the CI profile:
derandomized, so a failure reproduces on rerun, and printing the blob that
replays a failing example.  ``HYPOTHESIS_PROFILE=random`` draws afresh on
every run, as the default profile does, and also prints that blob.  Without
either the default profile applies."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.register_profile("random", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
