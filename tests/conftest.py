"""Suite-wide setup."""

import contextlib
import warnings

# hypothesis imports libcst to print a patch for a failing example, and libcst's import
# raises a DeprecationWarning, which this suite turns into an error inside pytest's report
# hook (an INTERNALERROR that ends the session).  Loading it here, with that warning
# silenced, keeps a failure an ordinary failure in every module that uses hypothesis.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
