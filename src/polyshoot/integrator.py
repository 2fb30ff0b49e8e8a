"""Adaptive embedded Runge-Kutta integration of the radial system.

A Dormand-Prince 5(4) pair with Shampine's quartic dense-output
interpolant drives every trajectory.  The independent variable is r
itself; the origin singularity is removed by the even Taylor launch, so no
change of variables is needed.  Steps are capped at max(0.1, r/20) to keep
the tail densely enough sampled for growth fitting, and the same tableau
is instantiated in float64 or 80-bit long double depending on the
configured precision.

The uniform sample grid is filled as steps are accepted: each step
evaluates all grid points in (r, r + h] (or up to the floor crossing) in one
array operation.  One evaluator, ``_quartic``, serves that fill, the event
bisection and ``DenseSolution`` (which also gives a collapse its last
sample), so samples and dense output agree; the fill never feeds back into
the step sequence, which is therefore independent of the sample stride.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_simpson

from .core import (
    Collapsed,
    EntirePositive,
    EquationSpec,
    Inconclusive,
    Jet,
    Trajectory,
    _rhs_raw,
    _taylor_state,
    taylor_coefficients,
    taylor_launch,
)
from .errors import LaunchRadiusTooLarge, SampleGridMismatch, WindowTooNarrow

__all__ = [
    "IntegratorConfig",
    "Event",
    "DenseSolution",
    "GrowthFit",
    "integrate",
    "classify_growth",
    "fit_growth",
    "formula1_check",
    "ode_residual_max",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, horizon and sampling for one integration.

    rel_tol/abs_tol are targets for the delivered accuracy of the samples;
    the per-step embedded-error control applies a fixed internal safety
    factor so that accumulated error over the default horizons stays within
    roughly 10x these numbers.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    r_max: float = 1e3
    max_steps: int = 200_000
    u_floor: float = 1e-8
    launch_radius: float = 1e-3
    dense_output_stride: float = 1e-2
    precision: str = "double"

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if not (self.r_max > self.launch_radius > 0):
            raise ValueError("need r_max > launch_radius > 0")
        if not self.u_floor > 0:
            raise ValueError("u_floor must be positive")
        if not self.dense_output_stride > 0:
            raise ValueError("dense_output_stride must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.precision not in ("double", "extended"):
            raise ValueError("precision must be 'double' or 'extended'")

    @property
    def dtype(self):
        return np.longdouble if self.precision == "extended" else np.float64


@dataclass(frozen=True)
class Event:
    """Something noticed during integration, located on the dense output."""

    kind: str          # "u_floor" | "lap_sign_change" | "horizon"
    r_event: float
    level: Optional[int] = None   # Laplacian level for sign changes
    direction: int = 0            # -1 downward crossing, +1 upward


# Dormand-Prince 5(4) tableau with Shampine's dense-output matrix.  All
# entries are exact integer ratios so they can be materialised in any
# floating dtype without double rounding.
_A_NUM = (
    (),
    ((1, 5),),
    ((3, 40), (9, 40)),
    ((44, 45), (-56, 15), (32, 9)),
    ((19372, 6561), (-25360, 2187), (64448, 6561), (-212, 729)),
    ((9017, 3168), (-355, 33), (46732, 5247), (49, 176), (-5103, 18656)),
    ((35, 384), (0, 1), (500, 1113), (125, 192), (-2187, 6784), (11, 84)),
)
_C_NUM = ((0, 1), (1, 5), (3, 10), (4, 5), (8, 9), (1, 1), (1, 1))
_E_NUM = ((71, 57600), (0, 1), (-71, 16695), (71, 1920),
          (-17253, 339200), (22, 525), (-1, 40))
_P_NUM = (
    ((1, 1), (-8048581381, 2820520608), (8663915743, 2820520608),
     (-12715105075, 11282082432)),
    ((0, 1), (0, 1), (0, 1), (0, 1)),
    ((0, 1), (131558114200, 32700410799), (-68118460800, 10900136933),
     (87487479700, 32700410799)),
    ((0, 1), (-1754552775, 470086768), (14199869525, 1410260304),
     (-10690763975, 1880347072)),
    ((0, 1), (127303824393, 49829197408), (-318862633887, 49829197408),
     (701980252875, 199316789632)),
    ((0, 1), (-282668133, 205662961), (2019193451, 616988883),
     (-1453857185, 822651844)),
    ((0, 1), (40617522, 29380423), (-110615467, 29380423),
     (69997945, 29380423)),
)

_TABLEAUS = {}


def _tableau(dtype):
    key = np.dtype(dtype).name
    if key not in _TABLEAUS:
        def frac(pair):
            return dtype(pair[0]) / dtype(pair[1])

        A = np.zeros((7, 7), dtype=dtype)
        for i, row in enumerate(_A_NUM):
            for j, pair in enumerate(row):
                A[i, j] = frac(pair)
        C = np.array([frac(p) for p in _C_NUM], dtype=dtype)
        B = A[6].copy()           # 5th-order weights; FSAL row
        E = np.array([frac(p) for p in _E_NUM], dtype=dtype)
        P = np.array([[frac(p) for p in row] for row in _P_NUM], dtype=dtype)
        _TABLEAUS[key] = (A, B, C, E, P)
    return _TABLEAUS[key]


_THETA_POWERS = np.arange(1, 5)


def _quartic(y0, h, q, theta, derivative: int = 0):
    """Quartic dense output y0 + h q @ [t, t^2, t^3, t^4] at theta = t, or d/dr.

    q has shape (..., n, 4); y0, h and theta broadcast against its leading
    axes, so the sample fill, event bisection and DenseSolution share it.
    """
    if derivative not in (0, 1):
        raise ValueError("only derivative 0 or 1 supported")
    t = np.asarray(theta, dtype=q.dtype)[..., None]
    powers = (t ** _THETA_POWERS if derivative == 0
              else _THETA_POWERS * t ** (_THETA_POWERS - 1))
    qt = np.matmul(q, powers[..., None])[..., 0]
    return y0 + np.asarray(h)[..., None] * qt if derivative == 0 else qt


class DenseSolution:
    """Piecewise-quartic dense output; also evaluates d/dr of every slot."""

    def __init__(self, r_lefts, hs, y_lefts, qs):
        self.r_lefts = np.asarray(r_lefts)
        self.hs = np.asarray(hs)
        self.y_lefts = np.asarray(y_lefts)
        self.qs = np.asarray(qs)
        self.r_lo = float(self.r_lefts[0])
        self.r_hi = float(self.r_lefts[-1] + self.hs[-1])

    def __call__(self, r, derivative: int = 0):
        r = np.atleast_1d(np.asarray(r))
        scalar = r.shape == (1,)
        if np.any(r < self.r_lo - 1e-12) or np.any(r > self.r_hi * (1 + 1e-12) + 1e-300):
            raise ValueError(
                f"dense output defined on [{self.r_lo}, {self.r_hi}], got "
                f"[{r.min()}, {r.max()}]"
            )
        idx = np.searchsorted(self.r_lefts, r, side="right") - 1
        idx = np.clip(idx, 0, len(self.hs) - 1)
        h = self.hs[idx]
        theta = (r.astype(self.hs.dtype) - self.r_lefts[idx]) / h
        out = np.asarray(_quartic(self.y_lefts[idx], h, self.qs[idx], theta,
                                  derivative), dtype=np.float64)
        return out[0] if scalar else out


# Per-step error budget relative to the configured tolerances; keeps the
# accumulated (global) error within ~10x tol over horizons of a few hundred.
_GLOBAL_SAFETY = 0.05

# Collapse-wall exponents: near a finite-radius collapse the solution obeys
# u ~ c (R - r)^(1/2) for m=2 (with c = (16/15)^(1/8), from balancing
# Lap^2 s^(1/2) = -(15/16) s^(-7/2) against -u^(-7)) and u ~ c (R - r) for
# m=3 (soft wall, slope selected by the trajectory).  The m=2 wall steepens
# faster than binary64 can resolve, so the remaining distance at a step-size
# stall is closed with the asymptotic law instead of event bisection.
_WALL_COEF_M2 = (16.0 / 15.0) ** 0.125


def _step_cap(r):
    return max(0.1, float(r) / 20.0)


def _bisect_theta(poly_val, lo, hi, tol_theta, max_iter=200):
    """Bisect a sign change of poly_val over [lo, hi] (poly_val(lo) and (hi) differ)."""
    flo = poly_val(lo)
    for _ in range(max_iter):
        if hi - lo <= tol_theta:
            break
        mid = 0.5 * (lo + hi)
        fm = poly_val(mid)
        if (flo <= 0) == (fm <= 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def integrate(spec: EquationSpec, jet: Jet, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the radial system from the origin jet out to the horizon.

    Returns a Trajectory whose verdict is Collapsed(r*) when u crosses the
    configured floor (r* bisected on the dense output to abs_tol in r),
    EntirePositive(gamma) when the horizon is reached with u above the
    floor throughout, and Inconclusive when the step budget or the step
    size underflows or the growth-fit window [r_end/4, r_end] holds < 2
    samples.  Sign changes of every intermediate Laplacian slot are
    recorded as events; they never terminate the integration.
    """
    dtype = cfg.dtype
    p = spec.rhs_exponent
    n = spec.n_state
    A, B, C, E, P = _tableau(dtype)

    coeffs = taylor_coefficients(spec, jet, dtype=dtype)
    # The configured launch radius is an upper bound: jets with small u(0)
    # have steep coefficient chains, so halve until the series estimate
    # passes its tolerance.
    r_launch = cfg.launch_radius
    launch = None
    for _ in range(60):
        try:
            launch = taylor_launch(spec, jet, r_launch, dtype=dtype)
            break
        except LaunchRadiusTooLarge:
            r_launch *= 0.5
    if launch is None:
        raise LaunchRadiusTooLarge(
            f"no workable launch radius below {cfg.launch_radius} for jet {jet}")
    r = dtype(r_launch)
    y = np.asarray(launch.y, dtype=dtype)
    r_max = dtype(cfg.r_max)

    # Uniform sampling grid; the final horizon point is appended if the
    # stride does not land on it exactly.
    stride = cfg.dense_output_stride
    n_grid = int(math.floor(cfg.r_max / stride + 1e-9)) + 1
    grid = np.arange(n_grid, dtype=np.float64) * stride
    if grid[-1] < cfg.r_max - 1e-9 * max(1.0, cfg.r_max):
        grid = np.append(grid, cfg.r_max)
    samples = np.empty((grid.shape[0], n), dtype=np.float64)

    in_taylor = grid <= r_launch
    if in_taylor.any():
        samples[in_taylor] = _taylor_state(coeffs, spec.m, grid[in_taylor],
                                           dtype=dtype).astype(np.float64)
    next_sample = int(in_taylor.sum())  # grid index of the next point to fill

    r_lefts, hs, y_lefts, qs = [], [], [], []
    events = []
    K = np.empty((7, n), dtype=dtype)
    _rhs_raw(p, r, y, out=K[0])
    # (node, row of A, stages it reads, stage it writes) for stages 1..5
    stages = [(C[i], A[i, :i], K[:i], K[i]) for i in range(1, 6)]
    B6, K6 = B[:6], K[:6]
    nfev = 1
    naccept = nreject = 0
    err_accum = np.zeros(n, dtype=np.float64)
    h = dtype(min(r_launch, _step_cap(r)))
    tiny_h_factor = 128.0 * float(np.finfo(dtype).eps)
    verdict = None

    while True:
        if r >= r_max:
            events.append(Event(kind="horizon", r_event=float(r)))
            break
        if naccept + nreject >= cfg.max_steps:
            verdict = Inconclusive(reason=f"max step count {cfg.max_steps} exhausted")
            break
        h = min(h, r_max - r, dtype(_step_cap(r)))
        if h < tiny_h_factor * max(float(r), 1.0):
            # Step-size stall: inside the collapse wall this is the expected
            # endgame for m=2 (the floor crossing sits below the resolution
            # of r), so close the remaining distance with the wall asymptote.
            u_now, up_now = float(y[0]), float(y[1])
            if u_now < 1e-4 * max(1.0, jet.u0) and up_now < 0.0:
                if spec.m == 2:
                    s_left = (u_now / _WALL_COEF_M2) ** 2
                else:
                    s_left = u_now / -up_now
                r_star = float(r) + s_left
                events.append(Event(kind="u_floor", r_event=r_star, direction=-1))
                verdict = Collapsed(r_star=r_star)
            else:
                verdict = Inconclusive(
                    reason=f"step size underflow at r={float(r):.6g}")
            break

        for c_i, a_i, k_in, k_out in stages:
            _rhs_raw(p, r + c_i * h, y + h * (a_i @ k_in), out=k_out)
        y_new = y + h * (B6 @ K6)
        _rhs_raw(p, r + h, y_new, out=K[6])
        nfev += 6
        err = h * (E @ K)
        scale = _GLOBAL_SAFETY * (
            cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new)))
        with np.errstate(invalid="ignore"):
            z = err / scale
            err_norm = float(np.sqrt(np.add.reduce(z * z) / n))
        if not math.isfinite(err_norm):
            h = h * dtype(0.5)
            nreject += 1
            continue
        if err_norm > 1.0:
            h = h * dtype(min(0.9, max(0.2, 0.9 * err_norm ** -0.2)))
            nreject += 1
            continue

        # accepted
        naccept += 1
        err_accum += np.abs(err.astype(np.float64))
        q = K.T @ P  # (n, 4) dense coefficients for this step
        r_lefts.append(float(r))
        hs.append(float(h))
        y_lefts.append(y)
        qs.append(q)

        # --- events inside (r, r+h] ---
        theta_tol = cfg.abs_tol / float(h)
        terminal_theta = None
        if float(y_new[0]) < cfg.u_floor:
            terminal_theta = _bisect_theta(
                lambda t: float(_quartic(y, h, q, t)[0]) - cfg.u_floor,
                0.0, 1.0, theta_tol)
        for j in range(1, spec.m):
            s0, s1 = float(y[2 * j]), float(y_new[2 * j])
            if s0 * s1 < 0.0:
                tc = _bisect_theta(
                    lambda t, jj=2 * j: float(_quartic(y, h, q, t)[jj]),
                    0.0, 1.0, theta_tol)
                r_ev = float(r + h * dtype(tc))
                if terminal_theta is None or tc <= terminal_theta:
                    events.append(Event(kind="lap_sign_change", r_event=r_ev,
                                        level=j, direction=-1 if s1 < s0 else 1))

        # --- samples inside (r, r_fill_to], one array operation ---
        r_new = r + h
        r_fill_to = float(r_new) if terminal_theta is None \
            else float(r + h * dtype(terminal_theta))
        if next_sample < grid.shape[0] and grid[next_sample] <= r_fill_to:
            stop = int(np.searchsorted(grid, r_fill_to, side="right"))
            theta = (grid[next_sample:stop].astype(dtype) - r) / h
            samples[next_sample:stop] = _quartic(y, h, q, theta)
            next_sample = stop

        if terminal_theta is not None:
            r = r_fill_to  # the deepest radius reached
            events.append(Event(kind="u_floor", r_event=r, direction=-1))
            verdict = Collapsed(r_star=r)
            break

        r, y = r_new, y_new
        K[0] = K[6]  # FSAL
        h = h * dtype(min(5.0, max(0.2, 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0)))

    # --- assemble the trajectory from the filled rows only ---
    dense = DenseSolution(np.array(r_lefts), np.array(hs), np.array(y_lefts),
                          np.array(qs)) if r_lefts else None
    r_arr, y_arr = grid[:next_sample], samples[:next_sample]
    if isinstance(verdict, Collapsed):
        # end on the deepest radius reached (r* after a floor crossing, the
        # last accepted radius after a wall closure), read off the dense output
        if float(r) > r_arr[-1]:
            r_arr = np.append(r_arr, float(r))
            y_arr = np.vstack([y_arr, dense(float(r))])
        r_end = verdict.r_star
    elif verdict is not None:
        r_end = float(r)
    else:
        r_end = float(r_max)
        if abs(r_arr[-1] - cfg.r_max) > 1e-9 * max(1.0, cfg.r_max):
            raise SampleGridMismatch(
                f"last filled sample r={r_arr[-1]!r} is not the horizon {cfg.r_max!r}")

    if verdict is None:
        gamma, _, n_fit = _fit_growth_arrays(r_arr, y_arr[:, 0], r_end / 4.0, r_end)
        if n_fit < 2:
            verdict = Inconclusive(
                reason=f"horizon {r_end:g} too short: {n_fit} sample(s) in the "
                       f"growth-fit window [{r_end / 4.0:g}, {r_end:g}]")
        else:
            verdict = EntirePositive(growth_exponent=gamma)

    stats = {
        "naccept": naccept,
        "nreject": nreject,
        "nfev": nfev,
        "err_accum": err_accum,
        "launch_radius": r_launch,
        "precision": cfg.precision,
    }
    return Trajectory(spec=spec, jet=jet, r=r_arr, y=y_arr, verdict=verdict,
                      r_end=float(r_end), events=tuple(events), dense=dense,
                      stats=stats)


def _fit_growth_arrays(r, u, r_lo, r_hi):
    """Least-squares slope of log u vs log r plus the limit estimate."""
    mask = (r >= r_lo) & (r <= r_hi) & (r > 0) & (u > 0)
    n_in = int(mask.sum())
    if n_in < 2:
        return float("nan"), float("nan"), n_in
    lr = np.log(r[mask])
    lu = np.log(u[mask])
    gamma = float(np.polyfit(lr, lu, 1)[0])
    i_hi = np.flatnonzero(mask)[-1]
    limit = float(u[i_hi] / r[i_hi] ** round(gamma))
    return gamma, limit, n_in


@dataclass(frozen=True)
class GrowthFit:
    gamma: float
    limit_estimate: float
    window: tuple
    n_samples: int

    @property
    def gamma_rounded(self) -> int:
        return round(self.gamma)


def fit_growth(traj: Trajectory, fit_window=None) -> GrowthFit:
    """Fit the growth exponent of an entire trajectory over a log-log window.

    The window defaults to [r_end/4, r_end]; a window reaching further in
    than a quarter of its outer edge is rejected because the asymptotic
    power law has not set in there.
    """
    if not isinstance(traj.verdict, EntirePositive):
        raise ValueError("growth classification needs an EntirePositive verdict")
    r_end = traj.r_end
    if fit_window is None:
        fit_window = (r_end / 4.0, r_end)
    r_lo, r_hi = float(fit_window[0]), float(fit_window[1])
    if r_hi > r_end * (1 + 1e-9):
        raise ValueError(f"window end {r_hi} beyond trajectory end {r_end}")
    if r_lo < r_hi / 20.0 - 1e-9 * r_hi:
        raise ValueError("window reaches too far in: need r_lo >= r_hi / 20")
    gamma, limit, n_in = _fit_growth_arrays(traj.r, traj.u, r_lo, r_hi)
    if n_in < 10:
        raise WindowTooNarrow(f"only {n_in} samples in [{r_lo}, {r_hi}]")
    return GrowthFit(gamma=gamma, limit_estimate=limit,
                     window=(r_lo, r_hi), n_samples=n_in)


def classify_growth(traj: Trajectory, fit_window=None) -> float:
    """Growth exponent gamma of an entire trajectory (see fit_growth)."""
    return fit_growth(traj, fit_window).gamma


def formula1_check(traj: Trajectory, level: int, r_hi: Optional[float] = None) -> float:
    """Self-consistency of the radial integral identity at one Laplacian level.

    Reconstructs w = Lap^level u from w(0) plus the double integral
    int_0^r t^-2 int_0^t s^2 (Lap w)(s) ds dt via cumulative Simpson rules
    on the sample grid, and returns the max defect relative to sup |w|.
    The top level uses Lap^m u = -u^p for the integrand.
    """
    m = traj.spec.m
    if not 0 <= level <= m - 1:
        raise ValueError(f"level must be in 0..{m - 1}")
    r, y = traj.r, traj.y
    if r_hi is not None:
        keep = r <= r_hi
        r, y = r[keep], y[keep]
    if r.shape[0] < 5:
        raise ValueError("too few samples for the reconstruction")
    w = y[:, 2 * level]
    if level < m - 1:
        g = y[:, 2 * level + 2]
    else:
        g = -(y[:, 0] ** traj.spec.rhs_exponent)
    inner = cumulative_simpson(r * r * g, x=r, initial=0.0)
    q = np.zeros_like(inner)
    q[1:] = inner[1:] / (r[1:] ** 2)
    rec = w[0] + cumulative_simpson(q, x=r, initial=0.0)
    return float(np.max(np.abs(rec - w)) / max(1.0, float(np.max(np.abs(w)))))


def ode_residual_max(traj: Trajectory, r_lo: Optional[float] = None,
                     r_hi: Optional[float] = None) -> float:
    """Max relative defect |Lap^m u + u^p| of the interpolated solution.

    Uses the dense output's derivative for (w')' so nothing is differenced
    numerically; normalised pointwise by max(1, |u^p|).
    """
    if traj.dense is None:
        raise ValueError("trajectory has no dense output (scaled or synthetic?)")
    lo = traj.dense.r_lo if r_lo is None else max(r_lo, traj.dense.r_lo)
    hi = traj.dense.r_hi if r_hi is None else min(r_hi, traj.dense.r_hi)
    mask = (traj.r >= lo) & (traj.r <= hi)
    r = traj.r[mask]
    if r.shape[0] == 0:
        raise ValueError("no samples inside the dense range")
    yv = traj.dense(r)
    yd = traj.dense(r, derivative=1)
    u = yv[:, 0]
    wp = yv[:, -1]
    lap_top = yd[:, -1] + 2.0 / r * wp
    resid = lap_top + u ** traj.spec.rhs_exponent
    return float(np.max(np.abs(resid) / np.maximum(1.0, np.abs(u ** traj.spec.rhs_exponent))))
