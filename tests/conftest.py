"""Test-session settings.

`HYPOTHESIS_PROFILE=ci` selects a derandomized `hypothesis` profile that
prints the reproduction blob of a failing example, so a CI failure replays
locally with `@reproduce_failure`.  Without it, local runs keep random
exploration.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
