"""Exception types shared across the package.

There is one class per CLI exit code: configuration problems (bad JSON,
out-of-range run parameters) are :class:`ConfigError` (exit 1), physics
validity problems (a second-moment bound violated, a degenerate
conditioning, a non-unity gain) are :class:`ValidityError` (exit 2), and
the message says which.  A failed inequality-chain verification is not an
exception: it is counted in the verification summary.
"""

from __future__ import annotations


class CvTeleportError(Exception):
    """Base class for all errors raised by this package."""


class ValidityError(CvTeleportError, ValueError):
    """A physics validity constraint on second moments is violated.

    The message names the violated bound so callers can surface it directly.
    """


class ConfigError(CvTeleportError, ValueError):
    """A run configuration is malformed or out of the supported range."""
