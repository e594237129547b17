"""Shared test setup.

Under ``filterwarnings = ["error"]`` a failing Hypothesis test would end
in INTERNALERROR and lose its falsifying example: reporting it imports
``hypothesis.extra._patching``, whose own imports raise a
DeprecationWarning, turned into an error there.  Importing that module
once here, with the warning ignored, keeps the example in the report.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
