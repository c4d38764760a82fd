"""Test-session settings.

`HYPOTHESIS_PROFILE=ci` selects a derandomized `hypothesis` profile that
prints the reproduction blob of a failing example, so a CI failure replays
locally with `@reproduce_failure`.  `HYPOTHESIS_PROFILE=ci-deep` is the same
with 500 examples per test; CI runs the bit-for-bit stepper test, the
expression sampling tests (whose tree comparison takes ten times the count),
the eigenpair and factor tests and the config fuzz test under it.
Without either, local runs keep random exploration.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.register_profile("ci-deep", settings.get_profile("ci"), max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
