"""Suite-wide pytest configuration.

Registers the ``ci`` hypothesis profile: derandomized (the examples are
a function of the test alone, so a red CI run reproduces locally) with a
bounded example count. Select it with ``--hypothesis-profile=ci``; the
default profile stays random so local runs keep exploring.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=300, deadline=None)
