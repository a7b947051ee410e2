"""Hypothesis profiles. Tier-1 runs the default profile; a run can name
another with pytest's --hypothesis-profile option:

    python -m pytest --hypothesis-profile=deep tests/test_adversary.py::TestOnePassVerdict

deep draws 5,000 examples per property with no deadline, for the
properties whose rare corners a default run of 100 examples may miss.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=5000, deadline=None)
