"""Exception types shared across the package."""


class PolyshootError(Exception):
    """Base class for all domain errors raised by this package."""


class NonPositiveU(PolyshootError):
    """The u-component is zero or negative where positivity is required."""


class OriginSingularity(PolyshootError):
    """The radial right-hand side was evaluated at r = 0 (use the Taylor launch)."""


class LaunchRadiusTooLarge(PolyshootError):
    """Truncated-series launch error estimate exceeds tolerance at the requested radius."""


class SampleGridMismatch(PolyshootError):
    """The filled sample grid does not end where the integration ended."""


class WindowTooNarrow(PolyshootError):
    """A fit window contains too few samples."""


class DivergentTail(PolyshootError):
    """The fitted tail exponent makes the improper volume integral diverge."""


class UndefinedVolume(PolyshootError):
    """Volume requested for a trajectory that is not entire and positive."""


class BracketFailure(PolyshootError):
    """The shooting bracket endpoints do not have opposite classifications."""


class HorizonTooShort(PolyshootError):
    """A parameter that must collapse classified as entire: increase the horizon."""

    def __init__(self, msg, required_horizon=None):
        super().__init__(msg)
        self.required_horizon = required_horizon


class TargetOutOfRange(PolyshootError):
    """A prescribed volume outside the attainable range."""


class TableExhausted(PolyshootError):
    """The prescribed volume exceeds the largest tabulated critical volume."""
