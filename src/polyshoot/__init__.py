"""Shooting-method toolkit for radial polyharmonic equations.

Integrates radial initial-value problems for Lap^m u = -u^p (m = 2, 3,
negative p) from jet data at the origin, classifies trajectories as
collapsing or entire, computes conformal volumes with modeled tails, and
locates critical shooting parameters by safeguarded bracket refinement.

The package namespace holds the entry points; result types, the dense
output and the helpers stay in their modules (polyshoot.core,
.integrator, .volume, .shooting, .oracle).
"""

from .core import (
    Collapsed,
    EntirePositive,
    EquationSpec,
    Inconclusive,
    Jet,
    RadialState,
    taylor_launch,
)
from .errors import (
    BracketFailure,
    DivergentTail,
    NonPositiveU,
    PolyshootError,
    TargetOutOfRange,
    UndefinedVolume,
    WindowTooNarrow,
)
from .integrator import (
    IntegratorConfig,
    classify_growth,
    integrate,
)
from .oracle import cubic_profile, lambda_star, linear_profile
from .shooting import (
    EpsCache,
    critical_eps,
    critical_eps_residual,
    default_config,
    is_entire,
    prescribe_volume,
)
from .volume import formula1_check, power_tail, volume, volume_of_jet

__version__ = "0.1.0"

__all__ = [
    "EquationSpec", "Jet", "RadialState", "Collapsed", "EntirePositive", "Inconclusive",
    "taylor_launch",
    "IntegratorConfig", "integrate", "classify_growth",
    "formula1_check",
    "volume", "volume_of_jet", "power_tail",
    "EpsCache", "critical_eps", "critical_eps_residual",
    "prescribe_volume", "is_entire", "default_config",
    "linear_profile", "cubic_profile", "lambda_star",
    "PolyshootError", "NonPositiveU", "WindowTooNarrow",
    "DivergentTail", "UndefinedVolume", "BracketFailure",
    "TargetOutOfRange",
]
