"""Hypothesis profiles, chosen by ``HYPOTHESIS_PROFILE``.

``ci`` draws the same examples on every run.  ``ci-deep`` does too, and
draws 2,000 per property, for the properties a fast path rests on.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.register_profile("ci-deep", derandomize=True, max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
