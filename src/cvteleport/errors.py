"""Exception types shared across the package.

The hierarchy mirrors how failures are reported: configuration problems
(bad JSON, out-of-range run parameters) are distinct from physics validity
problems (a second-moment bound violated).  A failed inequality-chain
verification is not an exception: it is counted in the verification
summary.
"""

from __future__ import annotations


class CvTeleportError(Exception):
    """Base class for all errors raised by this package."""


class LabelError(CvTeleportError, KeyError):
    """A linear form references a variable label the state does not carry."""


class ValidityError(CvTeleportError, ValueError):
    """A physics validity constraint on second moments is violated.

    The message names the violated bound so callers can surface it directly.
    """


class DegenerateConditioningError(ValidityError):
    """Conditioning on a zero-variance variable that still shows correlation."""


class UnsupportedRotationError(ValidityError):
    """A quadrature-mixing coefficient is nonzero where the model needs it zero."""


class GainConditionError(ValidityError):
    """Total gain differs from one where unity gain is required."""


class ConfigError(CvTeleportError, ValueError):
    """A run configuration is malformed or out of the supported range."""
