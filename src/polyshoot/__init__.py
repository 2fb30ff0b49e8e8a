"""Shooting-method toolkit for radial polyharmonic equations.

Integrates radial initial-value problems for Lap^m u = -u^p (m = 2, 3,
negative p) from jet data at the origin, classifies trajectories as
collapsing or entire, computes conformal volumes with modeled tails, and
locates critical shooting parameters by safeguarded bracket refinement.
"""

from .core import (
    Collapsed,
    EntirePositive,
    EquationSpec,
    Inconclusive,
    Jet,
    RadialState,
    Trajectory,
    Verdict,
    rhs,
    scale,
    taylor_launch,
)
from .errors import (
    BracketFailure,
    DivergentTail,
    HorizonTooShort,
    LaunchRadiusTooLarge,
    NonPositiveU,
    OriginSingularity,
    PolyshootError,
    TableExhausted,
    TargetOutOfRange,
    UndefinedVolume,
    WindowTooNarrow,
)
from .integrator import (
    Event,
    GrowthFit,
    IntegratorConfig,
    classify_growth,
    fit_growth,
    formula1_check,
    integrate,
    ode_residual_max,
)
from .oracle import ClosedForm, cubic_profile, fd_laplacian, lambda_star, linear_profile
from .shooting import (
    CriticalEps,
    EpsCache,
    EpsResidual,
    VolumeSolve,
    collapse_boundary_m2,
    critical_eps,
    critical_eps_residual,
    default_config,
    is_entire,
    lap_limit_estimate,
    prescribe_volume,
    smallest_valid_k,
)
from .volume import PowerTail, VolumeEstimate, power_tail, volume, volume_of_jet

__version__ = "0.1.0"

__all__ = [
    "EquationSpec", "Jet", "RadialState", "Trajectory", "Verdict",
    "Collapsed", "EntirePositive", "Inconclusive",
    "rhs", "taylor_launch", "scale",
    "IntegratorConfig", "Event", "GrowthFit", "integrate",
    "classify_growth", "fit_growth", "formula1_check", "ode_residual_max",
    "VolumeEstimate", "PowerTail", "volume", "volume_of_jet", "power_tail",
    "CriticalEps", "EpsResidual", "EpsCache", "VolumeSolve",
    "critical_eps", "critical_eps_residual", "collapse_boundary_m2",
    "prescribe_volume", "smallest_valid_k", "is_entire",
    "lap_limit_estimate", "default_config",
    "ClosedForm", "linear_profile", "cubic_profile", "lambda_star",
    "fd_laplacian",
    "PolyshootError", "NonPositiveU", "OriginSingularity",
    "LaunchRadiusTooLarge", "WindowTooNarrow", "DivergentTail",
    "UndefinedVolume", "BracketFailure", "HorizonTooShort",
    "TargetOutOfRange", "TableExhausted",
]
