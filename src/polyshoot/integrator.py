"""Taylor-series integration of the radial system.

Every step is one Taylor series of order _ORDER from one recurrence,
core._series: the first the even series off r = 0 (core.taylor_launch),
every later one the series about its left end.  A trajectory is one piecewise
polynomial, one per level and step from r = 0 on.  Each step runs on
Python scalars of the configured precision (floats, or np.longdouble
scalars for extended), one code path for both; with 2m <= 6 slots, per-call
NumPy dispatch would cost more than the arithmetic.

The step size comes from the series (Jorba & Zou, Exp. Math. 14 (2005)):
h = 0.9 min over levels j and k in {N-1, N} of (tol_j / |a_{j,k}|)^(1/k),
tol_j = _STEP_TOL (abs_tol + rel_tol |L_j|), in units of r0 for a series
about r0 and of 1 for the origin series, whose step ends at the launch
radius.  The series sees the nearest singularity (a collapse, or the
complex poles of a growing solution), so no cap on h is needed, and the
only rejection is a step ending with u <= 0 or a non-finite slot, which
halves h on the same series.

``DenseSolution`` evaluates the trajectory on [0, r_hi]; the verdict's
power-law fit, the critical-datum probes, every integral of a solve
(volume.dense_quadrature) and the sample rows (Trajectory.y) read it, and
the event bisection reads the same polynomials.  The step loop never sees
the sample grid (sample_radii), so the steps do not depend on the stride.

Inside a collapse wall each step covers a fixed fraction of the remaining
distance s, so stepping to the floor would cost most of a collapse's steps.
After each accepted step with u' < 0, ``_wall_distance`` gives two
independent estimates of s; once they agree to abs_tol on three
consecutive steps, and no Laplacian slot can reach zero within s, the
trajectory ends with r* = r + s, accurate to about abs_tol.  A step-size
stall closes with the same estimates; a floor crossing reached first is
bisected on the step's polynomial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Optional

import numpy as np

from .core import (
    Collapsed,
    EntirePositive,
    EquationSpec,
    Inconclusive,
    Jet,
    Trajectory,
    _ORDER,
    _series,
    taylor_launch,
)
from .errors import WindowTooNarrow

__all__ = [
    "IntegratorConfig",
    "Event",
    "DenseSolution",
    "PowerTail",
    "integrate",
    "fit_tail",
    "classify_growth",
    "fit_growth",
    "formula1_check",
    "ode_residual_max",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, horizon and sampling for one integration.

    rel_tol/abs_tol are targets for the delivered accuracy of the samples.
    Each step keeps the last two terms of every level's series below
    _STEP_TOL (abs_tol + rel_tol |L_j|), a fixed fraction of them, so that
    the error carried along the default horizons, where a growing mode
    amplifies it, stays within them.  Every float field must be positive
    and finite, and max_steps at least 1 and integral (JSON's 1e5 will
    do).  The first step, the origin series, is sized by the same rule, so
    the launch radius is no option: it is dense.r_rights[0].
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    r_max: float = 1e3
    max_steps: int = 200_000
    u_floor: float = 1e-8
    dense_output_stride: float = 1e-2
    precision: str = "double"

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "r_max", "u_floor", "dense_output_stride"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (float(self.max_steps).is_integer() and self.max_steps >= 1):
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps}")
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


# Points of one step in a dense-output call above which they are evaluated
# on their own, against that step's coefficients (the sample rows of long
# steps); the points of consecutive steps holding fewer (the fit nodes,
# single states, the short steps near the origin) go in runs of at most as
# many, which gather each point's coefficients: a few NumPy calls per run,
# and at most _GATHER_MAX K slots gathered values (300 kB for m=3) at once.
# A 200-node fit took 0.70 ms with every step on its own and a 100 001-row
# fill 62 ms with every point gathered, against 0.29 and 12 ms this way.
# Both run the same elementwise operations in the same order, so a value
# depends neither on the run nor on the other points of the call.
_GATHER_MAX = 256


def _horner(P, idx, theta):
    """sum_k P[k, s, idx] theta^k by Horner's rule, for every point and slot
    s: (n, slots), in runs of points of consecutive steps (_GATHER_MAX)."""
    out = np.empty((P.shape[1], idx.shape[0]), dtype=np.result_type(P, theta))
    bounds = [0, *(np.flatnonzero(np.diff(idx)) + 1).tolist(), idx.shape[0]]
    run = 0
    for g in range(len(bounds) - 1):
        lo, hi = bounds[g], bounds[g + 1]
        one_step = hi - lo > _GATHER_MAX
        if not (one_step or g + 2 == len(bounds) or bounds[g + 2] - bounds[run] > _GATHER_MAX):
            continue  # the next step's points join this run
        lo, run = lo if one_step else bounds[run], g + 1
        t, acc, G = theta[lo:hi], out[:, lo:hi], P[:, :, idx[lo], None]
        if not one_step:  # flat operands: NumPy calls without broadcasting cost less
            G, t = P[:, :, idx[lo:hi]].reshape(P.shape[0], -1), np.tile(t, P.shape[1])
            acc = np.empty_like(t)
        acc[...] = G[-1]
        for k in range(P.shape[0] - 2, -1, -1):
            acc *= t
            acc += G[k]
        out[:, lo:hi] = acc.reshape(P.shape[1], -1)
    return out.T


class DenseSolution:
    """The solution and d/dr of every slot on [0, r_hi], one polynomial per
    level and step.

    Step i covers (r_lefts[i], r_rights[i]], step 0 [0, r_rights[0]] (the
    origin series), where level j is sum_k cs[i, j, k] theta^k in theta =
    (r - r_left) / width, width = r_right - r_left, and each derivative
    slot the derivative of its level's polynomial.  Theta runs over the
    stored interval (near the m=2 wall r + h rounds), which keeps the
    pieces continuous.  Input need not be sorted.  With no accepted step
    r_hi = 0 and there is nothing to evaluate.
    """

    def __init__(self, r_lefts, r_rights, cs):
        self.r_lefts, self.r_rights, self.cs = map(np.asarray, (r_lefts, r_rights, cs))
        self.m = self.cs.shape[1]
        self.r_hi = float(self.r_rights[-1]) if self.cs.shape[0] else 0.0
        self._polys = {}

    def slot_polys(self, derivative: int = 0):
        """Polynomials in theta of every slot, or of its d/dr: [k, slot, step]
        is the coefficient of theta^k, the layout _horner gathers from."""
        if derivative not in self._polys:
            if derivative not in (0, 1):
                raise ValueError("only derivative 0 or 1 supported")
            k = np.arange(1, self.cs.shape[2]) / (self.r_rights - self.r_lefts)[:, None, None]

            def d_dr(Q):  # theta = (r - r_left) / width
                return np.concatenate([Q[..., 1:] * k, np.zeros_like(Q[..., :1])], axis=2)

            P = np.repeat(self.cs, 2, axis=1)
            P[:, 1::2] = d_dr(self.cs)
            P = d_dr(P) if derivative else P
            self._polys[derivative] = np.ascontiguousarray(P.transpose(2, 1, 0))
        return self._polys[derivative]

    def __call__(self, r, derivative: int = 0):
        scalar = np.ndim(r) == 0
        r = np.atleast_1d(np.asarray(r))
        steps = self.cs.shape[0]
        # NaN fails both comparisons, so only finite radii pass
        if not (steps and np.all(r >= 0) and np.all(r <= self.r_hi * (1 + 1e-12) + 1e-300)):
            raise ValueError(f"dense output defined on [0, {self.r_hi}] "
                             f"({steps} steps), got [{r.min()}, {r.max()}]")
        idx = np.clip(np.searchsorted(self.r_lefts, r) - 1, 0, steps - 1)
        r_left = self.r_lefts[idx]
        theta = (r.astype(r_left.dtype) - r_left) / (self.r_rights[idx] - r_left)
        out = np.ascontiguousarray(_horner(self.slot_polys(derivative), idx, theta),
                                   dtype=np.float64)
        return out[0] if scalar else out


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


# Per-step tolerance relative to the configured ones.  An error of the
# linear-growth m=2 profile grows about like r through its quadratic mode,
# so the steps must be over 1e3 times sharper than the accuracy wanted at
# r = 1e3: this puts u(1e3) within 1.3e-9 relative at rel_tol 1e-8.
_STEP_TOL = 5e-5


def _step_size(a, atol, rtol):
    """The step rule on a series a in tau = (r - r0) / unit, in units of
    unit (r0, or 1 at the origin); inf for a polynomial, 0 when a
    coefficient is not finite."""
    h = math.inf
    for aj in a:
        tol = atol + rtol * abs(float(aj[0]))
        for k in (_ORDER - 1, _ORDER):
            ak = abs(float(aj[k]))
            if ak > 0.0:
                h = min(h, (tol / ak) ** (1.0 / k))
            elif not ak == 0.0:
                return 0.0
    return 0.9 * h


def _try_step(a, unit, width):
    """The polynomials c[j][k] = a[j][k] (width / unit)^k in theta = (r -
    r0) / width of the series a (in tau = (r - r0) / unit), and the state
    at theta = 1; None when that state has u <= 0 or a slot that is not
    finite."""
    ratio = width / unit
    powers = list(accumulate([ratio] * _ORDER, mul, initial=ratio ** 0))
    c = [list(map(mul, aj, powers)) for aj in a]
    y = [v for cj in c for v in (sum(cj), sum(map(mul, range(_ORDER + 1), cj)) / width)]
    if not (y[0] > 0.0 and all(map(math.isfinite, map(float, y)))):
        return None
    return c, y


def _poly_at(c, theta):
    """sum_k c[k] theta^k by Horner, on scalars."""
    return functools.reduce(lambda acc, ck: acc * theta + ck, reversed(c))


def integrate(spec: EquationSpec, jet: Jet, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the radial system from the origin jet out to the horizon.

    Returns a Trajectory whose verdict is Collapsed(r*) when u collapses,
    EntirePositive(tail) when the horizon is reached with u above the
    floor throughout, and Inconclusive when the step budget or the step
    size underflows or the horizon is too short (below).  Sign changes of
    every intermediate Laplacian slot are recorded as events; they never
    terminate the integration.

    A collapse ends in one of two ways, recorded in stats["closure"]:
    {"kind": "floor"} when a step crosses u_floor (r* bisected on the step's
    polynomial to abs_tol in r), or {"kind": "wall", "s": s, "disagreement":
    d} when the two wall estimates of the remaining distance s agree to
    abs_tol on three consecutive accepted steps (or the step size stalls
    first), with no Laplacian sign change possible within s; the samples
    then end at that last accepted r.  stats["closure"] is None without a
    collapse, stats["nfev"] counts the series computed (a halved step
    reuses its own).

    An entire verdict carries the power-law fit of u on [r_end/2, r_end]
    (fit_tail): its gamma is the growth exponent, and the volume's tail
    reads the same fit.  The horizon is too short when dense_output_stride
    >= r_max - 1e-9 max(1, r_max): then the sample grid (sample_radii) has
    no row strictly between 0 and the horizon, and the window holds only
    the horizon row.  The rows are that grid and the dense output there,
    built the first time the trajectory reads them.
    """
    dtype = cfg.dtype
    num = float if dtype is np.float64 else dtype  # scalar type of the step
    p = spec.rhs_exponent
    atol, rtol = _STEP_TOL * cfg.abs_tol, _STEP_TOL * cfg.rel_tol
    r, r_max = num(0.0), num(cfg.r_max)
    y = [num(v) for lap in jet.lap_values for v in (lap, 0.0)]  # the jet's state at r = 0

    r_lefts, r_rights, cs, events = [], [], [], []
    nfev = naccept = nreject = 0
    tiny_h_factor = 128.0 * float(np.finfo(dtype).eps)
    agree = 0  # consecutive accepted steps whose wall estimates agree
    verdict = closure = h = None

    # np.longdouble scalars warn where Python floats overflow silently; a
    # non-finite series or state is handled below either way
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if r >= r_max:
                events.append(Event(kind="horizon", r_event=float(r)))
                break
            if naccept + nreject >= cfg.max_steps:
                verdict = Inconclusive(reason=f"max step count {cfg.max_steps} exhausted")
                break
            if h is None:  # a new step position; a halved step keeps its series
                # the origin series is in r, every later one in (r - r0) / r0
                a = _series(p, r, y, _ORDER) if r else taylor_launch(spec, jet, dtype=dtype)
                unit = r if r else num(1.0)
                nfev += 1
                h = unit * num(_step_size(a, atol, rtol))
            h = min(h, r_max - r)
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

            r_new = r + h
            width = r_new - r  # theta runs over the stored interval, not h
            step = _try_step(a, unit, width)
            if step is None:
                h = h * num(0.5)
                nreject += 1
                continue
            c, y_new = step

            naccept += 1
            r_lefts.append(r)
            r_rights.append(r_new)
            cs.append(c)

            # --- events inside (r, r_new] ---
            theta_tol = cfg.abs_tol / float(width)
            terminal_theta = None
            if float(y_new[0]) < cfg.u_floor:
                terminal_theta = _bisect_theta(
                    lambda t: float(_poly_at(c[0], num(t))) - cfg.u_floor, 0.0, 1.0, theta_tol)
            for j in range(1, spec.m):
                s0, s1 = float(y[2 * j]), float(y_new[2 * j])
                if s0 * s1 < 0.0:
                    tc = _bisect_theta(lambda t, cj=c[j]: float(_poly_at(cj, num(t))),
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

            r, y, h = r_new, y_new, None
            if y[1] < 0.0:  # only a falling u can be inside a wall
                wall = _wall_distance(spec.m, r, y, cfg.u_floor)
                agree = agree + 1 if wall is not None and wall[1] <= cfg.abs_tol else 0
                if agree == _WALL_AGREE_STEPS:
                    verdict, closure = _close_on_wall(r, wall, events)
                    break
            else:
                agree = 0

    dense = DenseSolution(np.array(r_lefts, dtype=dtype), np.array(r_rights, dtype=dtype),
                          np.array(cs, dtype=dtype).reshape(-1, spec.m, _ORDER + 1))
    r_end = verdict.r_star if isinstance(verdict, Collapsed) else float(r if verdict else r_max)

    stride = cfg.dense_output_stride
    if verdict is None:
        if stride >= cfg.r_max - 1e-9 * max(1.0, cfg.r_max):
            verdict = Inconclusive(
                reason=f"horizon {r_end:g} too short: the growth-fit window "
                       f"[{r_end / 2.0:g}, {r_end:g}] holds only the horizon row "
                       f"(stride {stride:g})")
        else:
            verdict = EntirePositive(fit_tail(dense, (r_end / 2.0, r_end)))

    stats = {
        "naccept": naccept,
        "nreject": nreject,
        "nfev": nfev,
        "precision": cfg.precision,
        "closure": closure,
    }
    if naccept:
        rows = {"radii": functools.partial(sample_radii, stride, cfg.r_max, float(r),
                                           isinstance(verdict, Collapsed))}
    else:  # stalled at the origin: one row, the jet's state there
        rows = {"r": [0.0], "y": [np.array(y, dtype=float)]}
    return Trajectory(spec=spec, jet=jet, verdict=verdict, r_end=float(r_end),
                      events=tuple(events), dense=dense, stats=stats, stride=stride, **rows)


# Nodes of the dense output that a fit over a window reads.  Uniform
# nodes with trapezoid weights approximate the least-squares integral over
# the window.  On [r_end/2, r_end] at the default horizons, 200 of them
# give tail exponents within 9.7e-10 (m=2, rho in [0, 20]) and 3.1e-6 (m=3
# at the critical data of k = 10, 20, 40) of a fit over every sample row
# there, against 2.5e-8 and 7.8e-5 with equal weights; at r_max 50 the m=3
# gap is 4.4e-6.
_FIT_NODES = 200


@dataclass(frozen=True)
class PowerTail:
    """Fitted model u ~ coeff r^gamma (1 + correction / r^2), rms in log u."""

    gamma: float
    coeff: float
    correction: float
    window: tuple
    fit_rms: float

    @property
    def gamma_rounded(self) -> int:
        return round(self.gamma)

    @property
    def limit_estimate(self) -> float:
        """u / r^round(gamma) of the model at the window's outer end."""
        hi = self.window[1]
        return (self.coeff * hi ** (self.gamma - self.gamma_rounded)
                * (1.0 + self.correction / hi ** 2))


def fit_tail(dense, window) -> PowerTail:
    """Weighted least squares of log u ~ log coeff + gamma log r + correction
    / r^2 over _FIT_NODES uniform nodes of the dense output on the window
    (its end clipped to the dense output), with trapezoid weights."""
    r = np.linspace(window[0], min(window[1], dense.r_hi), _FIT_NODES)
    w = np.ones(_FIT_NODES)
    w[0] = w[-1] = 0.5
    lu = np.log(dense(r)[:, 0])
    design = np.column_stack([np.ones_like(r), np.log(r), 1.0 / r ** 2])
    root_w = np.sqrt(w)
    sol, *_ = np.linalg.lstsq(design * root_w[:, None], lu * root_w, rcond=None)
    resid = lu - design @ sol
    return PowerTail(gamma=float(sol[1]), coeff=float(np.exp(sol[0])),
                     correction=float(sol[2]), window=tuple(map(float, window)),
                     fit_rms=float(np.sqrt(w @ resid ** 2 / w.sum())))


def window_rows(traj: Trajectory, lo: float, hi: float) -> int:
    """Rows of the sample grid in [lo, hi] by the length rule, floor(length /
    stride) + 1, give or take one: like integrate's horizon rule, no grid."""
    return max(0, int(math.floor((hi - lo) / traj.stride + 1e-9)) + 1)


def fit_growth(traj: Trajectory, fit_window=None) -> PowerTail:
    """The power-law fit of an entire trajectory over a log-log window.

    The window defaults to [r_end/2, r_end], and the fit there is the
    verdict's own (EntirePositive.tail), which the volume's tail reads
    too; another window is fitted afresh by fit_tail.  A window reaching
    further in than a twentieth of its outer edge is rejected because the
    asymptotic power law has not set in there.  A window holding fewer
    than 10 rows of the sample grid by the length rule (window_rows)
    raises WindowTooNarrow.
    """
    if not isinstance(traj.verdict, EntirePositive):
        raise ValueError("growth classification needs an EntirePositive verdict")
    if traj.dense is None:
        raise ValueError("growth classification needs the dense output")
    r_end = traj.r_end
    window = (r_end / 2.0, r_end) if fit_window is None else fit_window
    r_lo, r_hi = float(window[0]), float(window[1])
    if r_hi > r_end * (1 + 1e-9):
        raise ValueError(f"window end {r_hi} beyond trajectory end {r_end}")
    if r_lo < r_hi / 20.0 - 1e-9 * r_hi:
        raise ValueError("window reaches too far in: need r_lo >= r_hi / 20")
    n_in = window_rows(traj, r_lo, r_hi)
    if n_in < 10:
        raise WindowTooNarrow(f"only {n_in} samples in [{r_lo}, {r_hi}]")
    return traj.verdict.tail if fit_window is None else fit_tail(traj.dense, (r_lo, r_hi))


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
    numerically; normalised pointwise by max(1, |u^p|).  The sample rows
    in [r_lo, r_hi] (default: all) are checked, except r = 0, where 2/r is
    singular.
    """
    if traj.dense is None:
        raise ValueError("trajectory has no dense output (not built by integrate)")
    lo = 0.0 if r_lo is None else r_lo
    hi = traj.dense.r_hi if r_hi is None else min(r_hi, traj.dense.r_hi)
    mask = (traj.r > 0.0) & (traj.r >= lo) & (traj.r <= hi)
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
