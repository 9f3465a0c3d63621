"""Shared test configuration: one hypothesis profile for every property
test, reproducible across runs and writing no example database.

Hypothesis also keeps a cache of source constants; it is written under the
system temporary directory rather than into the checkout. The variable is
read on first use, so setting it here, before any test runs, is enough.
"""

import os
import tempfile

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "survix-hypothesis"))

from hypothesis import settings  # noqa: E402

settings.register_profile("survix", deadline=None, derandomize=True, database=None)
settings.load_profile("survix")
