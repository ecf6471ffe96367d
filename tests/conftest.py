"""Shared test setup.

Hypothesis reports a failing property through ``hypothesis.extra._patching``,
which imports libcst when it is installed; libcst's import emits a
DeprecationWarning, and under ``-W error`` that ends the whole run with an
INTERNALERROR instead of one FAILED test.  Importing the module once here,
with that warning ignored, leaves later imports silent.
"""

import importlib
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError:
        pass
