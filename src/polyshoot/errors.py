"""Exception types shared across the package."""


class PolyshootError(Exception):
    """Base class for all domain errors raised by this package."""


class NonPositiveU(PolyshootError, ValueError):
    """The u-component is zero or negative where positivity is required; an
    invalid argument too (ValueError) where a caller gave that value."""


class WindowTooNarrow(PolyshootError):
    """A fit window spans less than a factor of 2 in r."""


class DivergentTail(PolyshootError):
    """The fitted tail exponent makes the improper volume integral diverge."""


class UndefinedVolume(PolyshootError):
    """Volume requested for a trajectory that is not entire and positive."""


class BracketFailure(PolyshootError):
    """The shooting bracket endpoints do not have opposite classifications."""


class TargetOutOfRange(PolyshootError):
    """A prescribed volume outside the attainable range."""
