"""Adaptive embedded Runge-Kutta integration of the radial system.

A Dormand-Prince 5(4) pair with Shampine's quartic dense-output
interpolant drives every trajectory.  The independent variable is r
itself; the origin singularity is removed by the even Taylor launch, so no
change of variables is needed.  The same tableau is instantiated in
float64 or 80-bit long double depending on the configured precision.

Each step runs on Python scalars of that precision (floats for binary64,
np.longdouble scalars for extended), one code path for both.  The state
has only 2m <= 6 slots, so the dispatch of a NumPy call per stage
operation would cost more than its arithmetic.  Every stage sum runs in
tableau order, so the step sequence no longer depends on how a BLAS
library orders a small matrix-vector product.  Arrays are built only for
what leaves the loop: each accepted step's left state and dense
coefficients, and the event bisection.

The dense output is the one thing an integration has to produce.
``DenseSolution`` evaluates a trajectory on [0, r_hi]: the launch's Taylor
series up to the launch radius, one quartic per accepted step beyond.  The
growth fit of the verdict, the critical-datum probes, every integral a
solve takes (volume.dense_quadrature) and the sample rows (Trajectory.y:
a CSV, the formula-1 check) read it; ``_quartic`` also serves the event
bisection, so they agree bit for bit.  The step loop never sees the sample
grid (sample_radii), so the steps taken do not depend on the stride.

Steps are capped at max(0.1, r/20).  The cap is not needed for accuracy
or for the samples, which sit on a uniform grid whatever the step size:
without it every slot of m=2 trajectories with rho in [0.3, 20] still
matched a rel_tol 1e-12 run to the configured tolerance.  It binds for
m=2 with quadratic growth (at r/20 through the tail) and for m=3 on r up
to about 6 (at 0.1).  It stays because without it the m=3 critical_eps
solves at k = 10, 20 and 40 (bracket_tol 1e-6) took 43 integrations and
9969 accepted steps instead of 38 and 9009.

A collapse is closed on the wall asymptote as soon as that is accurate.
Inside the wall the controller takes steps of a fixed fraction of the
remaining distance s (about 85 per decade of s for m=2), so stepping all
the way to the floor would cost most of a collapsing trajectory's steps.
After each accepted step with u' < 0, ``_wall_distance`` gives two
independent estimates of s; once they agree to abs_tol on three
consecutive accepted steps, and no Laplacian slot can reach zero within s,
the trajectory ends at that step with r* = r + s, which is then accurate
to about abs_tol.  A step-size stall before that closes with the same
estimates; a floor crossing reached first is bisected on the dense output.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    Collapsed,
    EntirePositive,
    EquationSpec,
    Inconclusive,
    Jet,
    Trajectory,
    _radial_rhs,
    _taylor_state,
    taylor_coefficients,
    taylor_launch,
)
from .errors import LaunchRadiusTooLarge, WindowTooNarrow

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
    axes, so the sample fill, event bisection, DenseSolution and the
    quadrature nodes of volume.dense_quadrature share it.
    """
    if derivative not in (0, 1):
        raise ValueError("only derivative 0 or 1 supported")
    t = np.asarray(theta, dtype=q.dtype)[..., None]
    powers = (t ** _THETA_POWERS if derivative == 0
              else _THETA_POWERS * t ** (_THETA_POWERS - 1))
    qt = np.matmul(q, powers[..., None])[..., 0]
    return y0 + np.asarray(h)[..., None] * qt if derivative == 0 else qt


class DenseSolution:
    """The solution on [0, r_hi], and d/dr of every slot on [r_lo, r_hi].

    Up to r_lo (the launch radius) it is the even Taylor series of coeffs,
    the launch's coefficients in the integration's precision, which
    series() reads directly; with no accepted step r_hi = r_lo.  Step i
    covers (r_lefts[i], r_rights[i]] and is evaluated at theta = (r -
    r_left) / (r_right - r_left) with multiplier hs[i]: near the m=2 wall
    r + h rounds, and mapping theta over the stored interval keeps the
    interpolant continuous at every step boundary.  Input need not be sorted.
    """

    def __init__(self, coeffs, r_lo, r_lefts, r_rights, hs, y_lefts, qs):
        self.coeffs = np.asarray(coeffs)
        self.m = self.coeffs.shape[0] - 3  # c[0] .. c[m+2]
        self.r_lo = float(r_lo)
        self.r_lefts = np.asarray(r_lefts)
        self.r_rights = np.asarray(r_rights)
        self.hs = np.asarray(hs)
        self.y_lefts = np.asarray(y_lefts)
        self.qs = np.asarray(qs)
        self.r_hi = float(self.r_rights[-1]) if self.hs.shape[0] else self.r_lo

    def series(self, r):
        """All 2m slots of the Taylor series at radii r, as float64."""
        return np.asarray(_taylor_state(self.coeffs, self.m, r, dtype=self.coeffs.dtype.type),
                          dtype=np.float64)

    def __call__(self, r, derivative: int = 0):
        scalar = np.ndim(r) == 0
        r = np.atleast_1d(np.asarray(r))
        lo = 0.0 if derivative == 0 else self.r_lo
        if (np.any(r < lo) or np.any(r > self.r_hi * (1 + 1e-12) + 1e-300)
                or (derivative and not self.hs.shape[0])):
            raise ValueError(
                f"dense output (derivative {derivative}) defined on [{lo}, {self.r_hi}], "
                f"got [{r.min()}, {r.max()}]"
            )
        out = np.empty(r.shape + (2 * self.m,))
        if self.hs.shape[0]:
            idx = np.searchsorted(self.r_lefts, r, side="left") - 1
            idx = np.clip(idx, 0, len(self.hs) - 1)
            r_left = self.r_lefts.take(idx)
            theta = (r.astype(r_left.dtype) - r_left) / (self.r_rights.take(idx) - r_left)
            out[...] = _quartic(self.y_lefts.take(idx, axis=0), self.hs.take(idx),
                                self.qs.take(idx, axis=0), theta, derivative)
        if derivative == 0:
            head = (r <= self.r_lo) | (not self.hs.shape[0])
            if head.any():
                out[head] = self.series(r[head])
        return out[0] if scalar else out


# Per-step error budget relative to the configured tolerances; keeps the
# accumulated (global) error within ~10x tol over horizons of a few hundred.
_GLOBAL_SAFETY = 0.05

# Collapse-wall exponents: near a finite-radius collapse the solution obeys
# u ~ c (R - r)^(1/2) for m=2 (with c = (16/15)^(1/8), from balancing
# Lap^2 s^(1/2) = -(15/16) s^(-7/2) against -u^(-7)) and u ~ c (R - r) for
# m=3 (soft wall, slope selected by the trajectory).  The remaining distance
# is closed with these laws (see _wall_distance) once two estimates agree to
# abs_tol on consecutive steps, or at a step-size stall (the m=2 wall
# steepens faster than binary64 can resolve), instead of stepping to the
# floor; r* is then accurate to about abs_tol.
_WALL_COEF_M2 = (16.0 / 15.0) ** 0.125


# Accepted steps in a row on which the two wall estimates must agree to
# abs_tol before a collapse is closed: their difference changes sign on the
# way into the wall, so a single step can agree by chance.
_WALL_AGREE_STEPS = 3


def _wall_distance(m, r, y, u_floor):
    """Remaining distance s to the collapse from state (r, y), or None.

    Two independent estimates of the distance to the floor crossing: for
    m=2 the wall law (u/c)^2 and the log-derivative -u/(2u'), each less
    the wall-law depth (u_floor/c)^2 of the floor; for m=3 the quadratic
    crossing (with u'' = Lap u - 2u'/r from the state) and the linear one
    (u - u_floor)/(-u').  Returns (s, |difference|), s the first estimate,
    or None when u' >= 0, the quadratic does not reach the floor, or some
    Laplacian slot could reach zero within s (it moves toward zero and
    |y_2j| <= 2 s |y_2j+1|), since that sign change would go unrecorded.
    """
    u, u1 = float(y[0]), float(y[1])
    if not u1 < 0.0:
        return None
    if m == 2:
        depth = (u_floor / _WALL_COEF_M2) ** 2
        s = (u / _WALL_COEF_M2) ** 2 - depth
        other = -u / (2.0 * u1) - depth
    else:
        d = u - u_floor
        curv = float(y[2]) - 2.0 * u1 / float(r)
        disc = u1 * u1 - 2.0 * curv * d
        if not disc >= 0.0:
            return None
        s = 2.0 * d / (math.sqrt(disc) - u1)
        other = d / -u1
    for j in range(2, 2 * m, 2):
        lap, lap1 = float(y[j]), float(y[j + 1])
        if not (lap * lap1 > 0.0 or abs(lap) > 2.0 * s * abs(lap1)):
            return None
    return s, abs(s - other)


def _close_on_wall(r, wall, events):
    """Collapsed(r + s) and its closure record for the last accepted r."""
    s, gap = wall
    r_star = float(r) + s
    events.append(Event(kind="u_floor", r_event=r_star, direction=-1))
    return Collapsed(r_star=r_star), {"kind": "wall", "s": s, "disagreement": gap}


def sample_radii(stride, r_max, r_last, collapsed):
    """The sample grid of an integration that reached r_last.

    The multiples of stride below r_max, then r_max itself, which takes the
    place of the last multiple when that lies within 1e-9 max(1, r_max) of
    it; cut after r_last, and a collapse adds r_last as its last row.
    """
    last = int(math.floor(r_max / stride + 1e-9))
    n_mult = last + (last * stride < r_max - 1e-9 * max(1.0, r_max))
    r = np.arange(n_mult + 1, dtype=np.float64)
    r *= stride  # in place: one allocation, 800 kB for a 100 001-row grid
    r[-1] = r_max
    r = r[:np.searchsorted(r, r_last, side="right")]
    return np.append(r, r_last) if collapsed and r_last > r[-1] else r


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


def _step_tableau(dtype):
    """Nodes c2..c6, rows a2..a7 and weights e1..e7 of the tableau as scalars
    of dtype's precision (ndarray.tolist keeps np.longdouble), plus that
    precision's square root: what one _dp5_step reads."""
    A, _, C, E, _ = _tableau(dtype)
    rows = tuple(row[:i] for i, row in enumerate(A.tolist()))[1:]
    sqrt = math.sqrt if dtype is np.float64 else np.sqrt
    return tuple(C.tolist()[1:6]), rows, tuple(E.tolist()), sqrt


def _dp5_step(tab, p, r, y, k1, h, atol, rtol):
    """One Dormand-Prince 5(4) step of size h from (r, y), on scalars.

    k1 is the derivative at (r, y).  Returns (ys, ks, err, err_norm): ys are
    the states the stages 2..7 are evaluated at (ys[-1] is the 5th-order
    solution at r + h), ks the seven stage derivatives (ks[-1] serves as the
    next k1), err = h E.K the embedded error estimate and err_norm its RMS
    against the safety-scaled tolerance: NaN or inf when a stage state left
    u > 0 or overflowed, so the caller rejects the step.  Every sum runs in
    tableau order, as y + h (A[i, :i] @ K[:i]) reads.
    """
    ((c2, c3, c4, c5, c6),
     ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
      (a61, a62, a63, a64, a65), (b1, b2, b3, b4, b5, b6)),
     (e1, e2, e3, e4, e5, e6, e7), sqrt) = tab
    y2 = [yj + h * (a21 * x1) for yj, x1 in zip(y, k1)]
    k2 = _radial_rhs(p, r + c2 * h, y2)
    y3 = [yj + h * (a31 * x1 + a32 * x2) for yj, x1, x2 in zip(y, k1, k2)]
    k3 = _radial_rhs(p, r + c3 * h, y3)
    y4 = [yj + h * (a41 * x1 + a42 * x2 + a43 * x3)
          for yj, x1, x2, x3 in zip(y, k1, k2, k3)]
    k4 = _radial_rhs(p, r + c4 * h, y4)
    y5 = [yj + h * (a51 * x1 + a52 * x2 + a53 * x3 + a54 * x4)
          for yj, x1, x2, x3, x4 in zip(y, k1, k2, k3, k4)]
    k5 = _radial_rhs(p, r + c5 * h, y5)
    y6 = [yj + h * (a61 * x1 + a62 * x2 + a63 * x3 + a64 * x4 + a65 * x5)
          for yj, x1, x2, x3, x4, x5 in zip(y, k1, k2, k3, k4, k5)]
    k6 = _radial_rhs(p, r + c6 * h, y6)
    y7 = [yj + h * (b1 * x1 + b2 * x2 + b3 * x3 + b4 * x4 + b5 * x5 + b6 * x6)
          for yj, x1, x2, x3, x4, x5, x6 in zip(y, k1, k2, k3, k4, k5, k6)]
    k7 = _radial_rhs(p, r + h, y7)
    err = [h * (e1 * x1 + e2 * x2 + e3 * x3 + e4 * x4 + e5 * x5 + e6 * x6 + e7 * x7)
           for x1, x2, x3, x4, x5, x6, x7 in zip(k1, k2, k3, k4, k5, k6, k7)]
    err_sq = 0.0
    for ej, yj, zj in zip(err, y, y7):
        ej = ej / (_GLOBAL_SAFETY * (atol + rtol * max(abs(yj), abs(zj))))
        err_sq += ej * ej
    return ((y2, y3, y4, y5, y6, y7), (k1, k2, k3, k4, k5, k6, k7), err,
            float(sqrt(err_sq / len(y))))


def integrate(spec: EquationSpec, jet: Jet, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the radial system from the origin jet out to the horizon.

    Returns a Trajectory whose verdict is Collapsed(r*) when u collapses,
    EntirePositive(gamma) when the horizon is reached with u above the
    floor throughout, and Inconclusive when the step budget or the step
    size underflows or the horizon is too short (below).  Sign changes of
    every intermediate Laplacian slot are recorded as events; they never
    terminate the integration.

    A collapse ends in one of two ways, recorded in stats["closure"]:
    {"kind": "floor"} when a step crosses u_floor (r* bisected on the dense
    output to abs_tol in r), or {"kind": "wall", "s": s, "disagreement": d}
    when the two wall estimates of the remaining distance s (_wall_distance)
    agree to abs_tol on three consecutive accepted steps (or the step size
    stalls first), with no Laplacian sign change possible within s.  Then
    r* = r + s is accurate to about abs_tol, and the samples end at that
    last accepted r.  stats["closure"] is None when there is no collapse.

    The growth exponent of an entire verdict is the weighted log-log slope
    of u over _FIT_NODES uniform nodes of the dense output on the window
    [r_end/4, r_end] (_fit_growth_dense).  The horizon is too short when
    dense_output_stride >= r_max - 1e-9 max(1, r_max): then the sample
    grid (sample_radii) has no row strictly between 0 and the horizon, and
    the window holds only the horizon row.  The rows are that grid and the
    dense output there, built the first time the trajectory reads them.

    Each step (_dp5_step) works on scalars, not 2m-slot arrays, because
    NumPy's per-call dispatch dominates at that size; its sums run in
    tableau order, so the steps taken do not depend on the BLAS library.
    """
    dtype = cfg.dtype
    num = float if dtype is np.float64 else dtype  # scalar type of the step
    p = spec.rhs_exponent
    n = spec.n_state
    tab = _step_tableau(dtype)
    P = _tableau(dtype)[4]
    atol, rtol = cfg.abs_tol, cfg.rel_tol

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
    r = num(r_launch)
    y = np.asarray(launch.y, dtype=dtype).tolist()
    r_max = num(cfg.r_max)

    r_lefts, r_rights, hs, y_lefts, qs = [], [], [], [], []
    events = []
    k1 = _radial_rhs(p, r, y)
    nfev = 1
    naccept = nreject = 0
    err_accum = [0.0] * n
    h = num(min(r_launch, _step_cap(r)))
    tiny_h_factor = 128.0 * float(np.finfo(dtype).eps)
    agree = 0  # consecutive accepted steps whose wall estimates agree
    verdict = closure = None

    while True:
        if r >= r_max:
            events.append(Event(kind="horizon", r_event=float(r)))
            break
        if naccept + nreject >= cfg.max_steps:
            verdict = Inconclusive(reason=f"max step count {cfg.max_steps} exhausted")
            break
        h = min(h, r_max - r, num(_step_cap(r)))
        if h < tiny_h_factor * max(float(r), 1.0):
            # Step-size stall before the wall estimates agreed to abs_tol:
            # r cannot resolve the rest of the wall, so close it with them.
            wall = (_wall_distance(spec.m, r, y, cfg.u_floor)
                    if float(y[0]) < 1e-4 * max(1.0, jet.u0) else None)
            if wall is None:
                verdict = Inconclusive(
                    reason=f"step size underflow at r={float(r):.6g}")
            else:
                verdict, closure = _close_on_wall(r, wall, events)
            break

        ys, ks, err, err_norm = _dp5_step(tab, p, r, y, k1, h, atol, rtol)
        nfev += 6
        if not math.isfinite(err_norm):
            h = h * num(0.5)
            nreject += 1
            continue
        if err_norm > 1.0:
            h = h * num(min(0.9, max(0.2, 0.9 * err_norm ** -0.2)))
            nreject += 1
            continue

        # accepted: only what leaves the loop becomes an array
        naccept += 1
        err_accum = [a + abs(float(ej)) for a, ej in zip(err_accum, err)]
        y_new = ys[-1]
        y_left = np.array(y, dtype=dtype)
        q = np.array(ks, dtype=dtype).T @ P  # (n, 4) dense coefficients
        r_new = r + h
        width = r_new - r  # theta runs over the stored interval, not h
        r_lefts.append(r)
        r_rights.append(r_new)
        hs.append(h)
        y_lefts.append(y_left)
        qs.append(q)

        # --- events inside (r, r_new] ---
        theta_tol = cfg.abs_tol / float(width)
        terminal_theta = None
        if float(y_new[0]) < cfg.u_floor:
            terminal_theta = _bisect_theta(
                lambda t: float(_quartic(y_left, h, q, t)[0]) - cfg.u_floor,
                0.0, 1.0, theta_tol)
        for j in range(1, spec.m):
            s0, s1 = float(y[2 * j]), float(y_new[2 * j])
            if s0 * s1 < 0.0:
                tc = _bisect_theta(
                    lambda t, jj=2 * j: float(_quartic(y_left, h, q, t)[jj]),
                    0.0, 1.0, theta_tol)
                r_ev = float(r + width * num(tc))
                if terminal_theta is None or tc <= terminal_theta:
                    events.append(Event(kind="lap_sign_change", r_event=r_ev,
                                        level=j, direction=-1 if s1 < s0 else 1))

        if terminal_theta is not None:
            r = float(r + width * num(terminal_theta))  # the deepest radius reached
            events.append(Event(kind="u_floor", r_event=r, direction=-1))
            verdict, closure = Collapsed(r_star=r), {"kind": "floor"}
            break

        r, y, k1 = r_new, y_new, ks[-1]  # FSAL
        if y[1] < 0.0:  # only a falling u can be inside a wall
            wall = _wall_distance(spec.m, r, y, cfg.u_floor)
            agree = agree + 1 if wall is not None and wall[1] <= atol else 0
            if agree == _WALL_AGREE_STEPS:
                verdict, closure = _close_on_wall(r, wall, events)
                break
        else:
            agree = 0
        h = h * num(min(5.0, max(0.2, 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0)))

    dense = DenseSolution(coeffs, r_launch, np.array(r_lefts, dtype=dtype),
                          np.array(r_rights, dtype=dtype), np.array(hs, dtype=dtype),
                          np.array(y_lefts, dtype=dtype).reshape(-1, n),
                          np.array(qs, dtype=dtype).reshape(-1, n, 4))
    if isinstance(verdict, Collapsed):
        r_end = verdict.r_star
    elif verdict is not None:
        r_end = float(r)
    else:
        r_end = float(r_max)

    stride = cfg.dense_output_stride
    if verdict is None:
        if stride >= cfg.r_max - 1e-9 * max(1.0, cfg.r_max):
            verdict = Inconclusive(
                reason=f"horizon {r_end:g} too short: the growth-fit window "
                       f"[{r_end / 4.0:g}, {r_end:g}] holds only the horizon row "
                       f"(stride {stride:g})")
        else:
            verdict = EntirePositive(
                growth_exponent=_fit_growth_dense(dense, r_end / 4.0, r_end)[0])

    stats = {
        "naccept": naccept,
        "nreject": nreject,
        "nfev": nfev,
        "err_accum": np.array(err_accum),
        "launch_radius": r_launch,
        "precision": cfg.precision,
        "closure": closure,
    }
    radii = functools.partial(sample_radii, stride, cfg.r_max, float(r),
                              isinstance(verdict, Collapsed))
    return Trajectory(spec=spec, jet=jet, verdict=verdict, r_end=float(r_end),
                      events=tuple(events), dense=dense, stats=stats, radii=radii)


# Nodes of the dense output that a fit over a window reads.  Uniform
# nodes with trapezoid weights approximate the least-squares integral over
# the window.  At the default horizons 200 of them give growth exponents
# within 1.8e-8 (m=2, rho in [0, 20]) and 4.5e-6 (m=3, k = 10, 20, 40) of
# a fit over every sample row in the window, against 1.1e-6 and 5.3e-4
# with equal weights; at r_max 50 the m=3 gap, 2.3e-5, is as large as the
# row fit's own distance from the integral.
_FIT_NODES = 200


def window_nodes(dense, lo, hi):
    """_FIT_NODES uniform radii on [lo, hi] (clipped to the dense output),
    their trapezoid weights (up to the common factor of the spacing) and
    the dense output there."""
    r = np.linspace(max(lo, dense.r_lo), min(hi, dense.r_hi), _FIT_NODES)
    w = np.ones(_FIT_NODES)
    w[0] = w[-1] = 0.5
    return r, w, dense(r)


def _fit_growth_dense(dense, r_lo, r_hi):
    """Weighted least-squares slope of log u on log r over the window's
    nodes (window_nodes), and u / r^round(gamma) at its outer end."""
    r, w, y = window_nodes(dense, r_lo, r_hi)
    lr, lu = np.log(r), np.log(y[:, 0])
    dr = lr - (w @ lr) / w.sum()
    gamma = float((w * dr) @ lu / ((w * dr) @ dr))
    return gamma, float(y[-1, 0] / r[-1] ** round(gamma))


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
    than a twentieth of its outer edge is rejected because the asymptotic
    power law has not set in there.  The fit reads the dense output at the
    window's nodes, the routine that fixes integrate's verdict; a window
    with fewer than 10 rows of the sample grid raises WindowTooNarrow, and
    n_samples is that row count.
    """
    if not isinstance(traj.verdict, EntirePositive):
        raise ValueError("growth classification needs an EntirePositive verdict")
    if traj.dense is None:
        raise ValueError("growth classification needs the dense output")
    r_end = traj.r_end
    if fit_window is None:
        fit_window = (r_end / 4.0, r_end)
    r_lo, r_hi = float(fit_window[0]), float(fit_window[1])
    if r_hi > r_end * (1 + 1e-9):
        raise ValueError(f"window end {r_hi} beyond trajectory end {r_end}")
    if r_lo < r_hi / 20.0 - 1e-9 * r_hi:
        raise ValueError("window reaches too far in: need r_lo >= r_hi / 20")
    n_in = traj.count_rows(r_lo, r_hi)
    if n_in < 10:
        raise WindowTooNarrow(f"only {n_in} samples in [{r_lo}, {r_hi}]")
    gamma, limit = _fit_growth_dense(traj.dense, r_lo, r_hi)
    return GrowthFit(gamma=gamma, limit_estimate=limit,
                     window=(r_lo, r_hi), n_samples=n_in)


def classify_growth(traj: Trajectory, fit_window=None) -> float:
    """Growth exponent gamma of an entire trajectory (see fit_growth)."""
    return fit_growth(traj, fit_window).gamma


def formula1_check(traj: Trajectory, level: int, r_hi: Optional[float] = None) -> float:
    """Self-consistency of the radial integral identity at one Laplacian level.

    Reconstructs w = Lap^level u from w(0) plus the double integral
    int_0^r t^-2 int_0^t s^2 (Lap w)(s) ds dt (radial_double_integral) on
    the sample grid, and returns the max defect relative to sup |w|.
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
    rec = w[0] + radial_double_integral(r, g)
    return float(np.max(np.abs(rec - w)) / max(1.0, float(np.max(np.abs(w)))))


def radial_double_integral(r, g):
    """int_0^r t^-2 int_0^t s^2 g(s) ds dt at every radius of r (r[0] = 0).

    Two passes of scipy's cumulative Simpson over the samples, which may
    be unevenly spaced; the inner integral over t^2 is taken as zero at
    t = 0.  Only formula1_check reads it, so scipy is imported here, off
    the package's import path.
    """
    from scipy.integrate import cumulative_simpson

    inner = cumulative_simpson(r * r * g, x=r, initial=0.0)
    q = np.zeros_like(inner)
    q[1:] = inner[1:] / (r[1:] ** 2)
    return cumulative_simpson(q, x=r, initial=0.0)


def ode_residual_max(traj: Trajectory, r_lo: Optional[float] = None,
                     r_hi: Optional[float] = None) -> float:
    """Max relative defect |Lap^m u + u^p| of the interpolated solution.

    Uses the dense output's derivative for (w')' so nothing is differenced
    numerically; normalised pointwise by max(1, |u^p|).
    """
    if traj.dense is None:
        raise ValueError("trajectory has no dense output (not built by integrate)")
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
