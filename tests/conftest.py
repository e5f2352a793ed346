"""Suite-wide test configuration.

Every hypothesis property runs under one profile that prints the
``@reproduce_failure`` blob of a failing example, so a property failure
in CI can be replayed locally from the log alone.  Example counts and
deadlines stay as each test sets them.
"""

from hypothesis import settings

settings.register_profile("repro", print_blob=True)
settings.load_profile("repro")
