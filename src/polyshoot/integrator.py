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
power-law fit, the end state (Trajectory.end), formula1_check and the
output rows (Trajectory.y) read it, and root location and every integral
over a solution (volume.dense_quadrature's rule) read the same polynomials.
The sample grid (sample_radii) only places the output rows: no step,
verdict, fit, integral or check depends on the stride.

Inside a collapse wall each step covers a fixed fraction of the remaining
distance, so stepping to the floor would cost most of a collapse's steps.
Instead each new series about r with u' < 0 is read for the singularity R
it sees (_read_wall, a ratio test on its top u coefficients); once the
readings settle to abs_tol and no Laplacian slot can reach zero first, the
trajectory ends at r* = R less the floor offset, accurate to about abs_tol.
A floor crossing reached first is located on the step's polynomial.

A run locates only the points a verdict or a stop reads: a floor crossing,
w's first zero in a TopZero or stopped run, and, once TopZero.r_zero is
read, where E (below) reads -tau.  Each is a root of one step's polynomial
in theta, located to abs_tol in r by one routine, _crossing_radius, through
refine_bracket: Brent's zeroin, the package's one root finder, which the
shooting solves run too.  A step that starts at or under the value sought
has its crossing at its start: a run whose first step starts and ends
under the collapse floor collapses at r* = 0.

E = w + r w', w = Lap^{m-1} u the top slot, falls strictly (dE/dr = -r
u^p < 0) toward w's limit w_inf at infinity, so E(r) < 0 proves that the
solution is not entire.  Once E < -tau, tau = rel_tol, the run is
certified, and its verdict is TopZero unless it collapses; a run whose
caller asks (stop_at_top_zero) ends once the certified limit estimate has
settled as asked (_tail_limit), or at w's first zero, before any collapse.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (
    Collapsed,
    EntirePositive,
    EquationSpec,
    Inconclusive,
    Jet,
    TopZero,
    Trajectory,
    _ORDER,
    _series,
    taylor_launch,
)
from .errors import WindowTooNarrow

__all__ = [
    "IntegratorConfig",
    "Event",
    "Probe",
    "Bracket",
    "refine_bracket",
    "DenseSolution",
    "PowerTail",
    "integrate",
    "fit_tail",
    "classify_growth",
]


# Sample rows a configuration may ask for, r_max / dense_output_stride: a
# row of m=3 holds 7 floats, so 1e7 rows take 560 MB once built.  The
# default asks for 1e5.
_MAX_ROWS = 1e7

# u below _U_FLOOR is a collapse, and _MAX_STEPS steps, accepted or rejected,
# end a run Inconclusive; integrate reads both when called.
_U_FLOOR, _MAX_STEPS = 1e-8, 200_000


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, horizon and output rows for one integration.

    rel_tol/abs_tol are per-step targets, not bounds on the delivered
    error.  Each step keeps the last two terms of every level's series
    below _STEP_TOL (abs_tol + rel_tol |L_j|), a fixed fraction of them, so
    that the error carried along the default horizons, where a growing
    mode amplifies it, mostly stays within them; it can exceed them: at
    rel_tol 1e-10, abs_tol 1e-12 the m=2 jet (0.6778004781604301,
    2.373809617029592) collapses 2.04e-12 from an extended-precision run
    at rel_tol 1e-12, so r* misses abs_tol.  Every numeric field must be a
    positive finite number, not a bool.  The first step, the origin series,
    is sized by the same rule, so the launch radius is no option: it is
    dense.r_rights[0].  dense_output_stride sets the output rows only
    (sample_radii), at most _MAX_ROWS of them up to r_max (ValueError
    otherwise); nothing an integration computes depends on it.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    r_max: float = 1e3
    dense_output_stride: float = 1e-2
    precision: str = "double"

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "r_max", "dense_output_stride"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value}")
        if self.r_max / self.dense_output_stride > _MAX_ROWS:
            raise ValueError(f"dense_output_stride {self.dense_output_stride:g} asks for over "
                             f"{_MAX_ROWS:.0e} sample rows up to r_max {self.r_max:g}")
        if self.precision not in ("double", "extended"):
            raise ValueError("precision must be 'double' or 'extended'")

    @property
    def dtype(self):
        return np.longdouble if self.precision == "extended" else np.float64


@dataclass(frozen=True)
class Event:
    """The located point a verdict carries: "u_floor" at a collapse's r*, or
    "lap_sign_change" at w's first zero in a TopZero run.  It and
    Trajectory.events remain only for perfbench's tracer (ROADMAP item 1b)."""

    kind: str
    r_event: float


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
    """The solution, every slot, on [0, r_hi], one polynomial per level and
    step.

    Step i covers (r_lefts[i], r_rights[i]], step 0 [0, r_rights[0]] (the
    origin series), where level j is sum_k cs[i, j, k] theta^k in theta =
    (r - r_left) / width, width = r_right - r_left, and each derivative
    slot the derivative of its level's polynomial.  Theta runs over the
    stored interval (near the m=2 wall r + h rounds), which keeps the
    pieces continuous.  Input need not be sorted, and ``slots`` selects
    output slots; Horner runs elementwise, so their values do not depend on
    it.  With no accepted step r_hi = 0 and there is nothing to evaluate.
    """

    def __init__(self, r_lefts, r_rights, cs):
        self.r_lefts, self.r_rights, self.cs = map(np.asarray, (r_lefts, r_rights, cs))
        self.r_hi = float(self.r_rights[-1]) if self.cs.shape[0] else 0.0

    @functools.cached_property
    def slot_polys(self):
        """Polynomials in theta of every slot: [k, slot, step] is the
        coefficient of theta^k, the layout _horner gathers from."""
        k = np.arange(1, self.cs.shape[2]) / (self.r_rights - self.r_lefts)[:, None, None]
        P = np.repeat(self.cs, 2, axis=1)
        # each odd slot is d/dr of its level, theta = (r - r_left) / width
        P[:, 1::2] = np.concatenate([self.cs[..., 1:] * k, np.zeros_like(self.cs[..., :1])],
                                    axis=2)
        return np.ascontiguousarray(P.transpose(2, 1, 0))

    def __call__(self, r, slots: slice = slice(None)):
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
        out = np.ascontiguousarray(_horner(self.slot_polys[:, slots], idx, theta),
                                   dtype=np.float64)
        return out[0] if scalar else out


# Collapse wall.  Near a collapse at R, u ~ c (R - r)^(1/2) for m=2 and u ~
# a (R - r) + b (R - r)^3 log(R - r) for m=3, plus terms analytic at R.  Each
# pure power (R - r)^alpha, and that log term (alpha = 3), has (k+1) a_{k+1}
# / a_k = (k - alpha) / rho in tau, rho = (R - r) / r, so the top three
# coefficients give 1/rho = (k+1) a_{k+1}/a_k - k a_k/a_{k-1} for any alpha:
# the Domb-Sykes form (Proc. R. Soc. A 240 (1957)) of the ratio test of Chang
# & Corliss (J. Inst. Maths Applics 25 (1980)).  The next power in the wall
# biases R_n = r + d, d = r rho, by O(d^2), and two readings, q = d_n /
# d_{n-1}, extrapolate it: linearly, sigma_n = R_n + (R_n - R_{n-1}) q / (1 -
# q), a correction that bounds any bias falling at least like d, and for r*
# quadratically, R_n + (R_n - R_{n-1}) q^2 / (1 - q^2).  The wall closes once
# the linear correction and the change of sigma are both within abs_tol.
# For m=2 offsets in [-0.45, -0.02] and m=3 jets (10, -eps, 1), eps in [3.5,
# 10], at rel_tol 1e-10, abs_tol 1e-12, r* then lies within 0.66 and 0.06
# abs_tol of an extended run at 1e-12 (200 draws); read off sigma, within
# 0.98 and 0.57, since sigma overshoots a bias falling like d^2.
class _Wall(NamedTuple):
    r: object       # the expansion point, in the integration's precision
    d: float        # the ratio test's distance from r to R
    sigma: float    # d, extrapolated linearly; inf on a first reading
    gap: float      # the larger of that correction and the change in sigma
    to_r: float     # d, extrapolated quadratically: the distance closed to R


def _read_wall(a_u, r, last):
    """The wall read off the series a_u of u about r > 0, after the reading
    last of the step before (or None); None when u does not fall or the
    ratio test sees no singularity ahead."""
    k = _ORDER - 1
    lo, mid, hi = map(float, a_u[k - 1:k + 2])
    if not (a_u[1] < 0.0 and lo != 0.0 and mid != 0.0):
        return None
    inv_rho = (k + 1) * hi / mid - k * mid / lo
    if not 0.0 < inv_rho < math.inf:
        return None
    d = float(r) / inv_rho
    if last is None or not d < last.d:
        return _Wall(r, d, math.inf, math.inf, d)
    width, q = float(r - last.r), d / last.d  # the step is exact in r's precision
    correction = (d - last.d + width) * q / (1.0 - q)  # R_n - R_{n-1} = d - (last.d - width)
    sigma = d + correction
    return _Wall(r, d, sigma, max(abs(correction), abs(sigma - last.sigma + width)),
                 d + correction * q / (1.0 + q))


def _close_on_wall(m, y, to_r, u_floor):
    """The distance s from the state y to the floor crossing: to_r, the
    distance to R, less the floor offset to_r (u_floor/u)^(1/gamma), gamma =
    -to_r u'/u the local exponent (1/2 for m=2, about 1 for m=3).  None when
    to_r <= 0 or w = Lap^{m-1} u could reach zero within s (it moves toward
    zero and |w| <= 2 s |w'|): w's zero ends a stopped run first.  No other
    slot is read: nothing records its sign changes."""
    u, u1 = float(y[0]), float(y[1])
    if not to_r > 0.0:
        return None
    s = to_r * (1.0 - (u_floor / u) ** (u / (-to_r * u1)))
    w, w1 = float(y[2 * m - 2]), float(y[2 * m - 1])
    return s if w * w1 > 0.0 or abs(w) > 2.0 * s * abs(w1) else None


def sample_radii(stride, r_max, r_last, stopped):
    """The output rows' radii of an integration that reached r_last.

    The multiples of stride below r_max, then r_max itself, which takes the
    place of the last multiple when that lies within 1e-9 max(1, r_max) of
    it; cut after r_last, and a run that stopped there, at a collapse or
    once certified not entire, adds r_last as its last row.
    """
    last = int(math.floor(r_max / stride + 1e-9))
    n_mult = last + (last * stride < r_max - 1e-9 * max(1.0, r_max))
    r = np.arange(n_mult + 1, dtype=np.float64)
    r *= stride  # in place: one allocation, 800 kB for a 100 001-row grid
    r[-1] = r_max
    r = r[:np.searchsorted(r, r_last, side="right")]
    return np.append(r, r_last) if stopped and r_last > r[-1] else r


# zeroin's resolution: 4 eps (eps = 2^-52, the binary64 machine epsilon)
# times the larger end, never taken below the smallest normal float
_RESOLUTION, _TINY = 4.0 * sys.float_info.epsilon, sys.float_info.min


class Probe(NamedTuple):
    """One evaluation: the end it replaces, what the caller keeps, and an
    optional finite residual, > 0 on the lo side and <= 0 on the hi side."""

    lo_side: bool
    residual: Optional[float]
    payload: object


@dataclass
class Bracket:
    """[lo, hi], the probes at its ends, and the rounds spent refining it."""

    lo: float
    hi: float
    at_lo: Probe
    at_hi: Probe
    rounds: int = 0

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _stop_width(tol, lo, hi):
    """refine_bracket's stopping width t of the bracket [lo, hi]."""
    return tol + _RESOLUTION * max(abs(lo), abs(hi), _TINY)


def refine_bracket(evaluate: Callable[[float], Probe], b: Bracket, tol: float,
                   stop: Optional[Callable[[Bracket], bool]] = None) -> Bracket:
    """Shrink b in place until its width is <= t or stop(b) holds.

    Brent's zeroin (Brent 1973, ch. 4), with its own stopping width t =
    tol + 4 eps max(|lo|, |hi|) (_stop_width), eps the binary64 machine
    epsilon: a tol below the spacing of floats at the root (0 or 5e-324
    included) stops at about 4 ulp, and max takes the smallest normal float
    as its floor, so that t/2 is at least 2 ulp at a root at 0 too.  A round
    steps from best, the end of smaller |residual| (none counts as
    infinite), toward the other end, to the zero of the inverse interpolant through the nodes
    that carry a residual: the two ends, plus the end the last probe
    replaced if that probe is best (three nodes: inverse quadratic; two:
    the secant).  It bisects when fewer than two nodes carry one, when the
    step leaves the 3/4 of the bracket next to best, or when it is not
    under half the step before last.  Every probe lies t/2 or more inside
    the bracket, so every round makes progress and a converged estimate
    steps across the root.
    """
    def size(end):
        return math.inf if end[1].residual is None else abs(end[1].residual)

    replaced, e, d = (None, None), b.width, b.width  # e, d: the step before last, last
    while (b.width > (t := _stop_width(tol, b.lo, b.hi))
           and not (stop is not None and stop(b))):
        ends = [(b.lo, b.at_lo), (b.hi, b.at_hi)]
        (best, _), (other, _) = sorted(ends, key=size)
        if replaced[0] == best:  # Brent's third node
            ends.append(replaced[1])
        nodes = [(x, p.residual) for x, p in ends if p.residual is not None]
        fs, step = [f for _, f in nodes], None
        if len(set(fs)) == len(fs) > 1:  # distinct: the inverse Lagrange interpolant at 0
            step = sum((x - best) * math.prod(fj / (fj - f) for fj in fs if fj != f)
                       for x, f in nodes)
        if step is None or not (0.0 <= step / (other - best) < 0.75 and abs(step) < abs(e) / 2):
            step = d = 0.5 * (b.lo + b.hi) - best  # bisect
        e, d = d, step
        x = min(max(best + step, b.lo + t / 2), b.hi - t / 2)
        probe = evaluate(x)
        b.rounds += 1
        if probe.lo_side:
            replaced, b.lo, b.at_lo = (x, (b.lo, b.at_lo)), x, probe
        else:
            replaced, b.hi, b.at_hi = (x, (b.hi, b.at_hi)), x, probe
    return b


# Per-step tolerance relative to the configured ones.  An error of the
# linear-growth m=2 profile grows about like r through its quadratic mode,
# so the steps must be over 1e3 times sharper than the accuracy wanted at
# r = 1e3: this puts u(1e3) within 1.3e-9 relative at rel_tol 1e-8.
_STEP_TOL = 5e-5
_WEIGHTS = [float(k) for k in range(_ORDER + 1)]  # _try_step's k: floats, exact


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
    c, y = [], []
    for aj in a:
        c.append(cj := list(map(mul, aj, powers)))
        y += (sum(cj), sum(map(mul, _WEIGHTS, cj)) / width)
    if not (y[0] > 0.0 and all(map(math.isfinite, map(float, y)))):
        return None
    return c, y


def _poly_at(c, theta):
    """sum_k c[k] theta^k by Horner, on scalars."""
    return functools.reduce(lambda acc, ck: acc * theta + ck, reversed(c))


def _tail_limit(p, r, y):
    """w_inf estimated from the state y = (u, u', ..., w, w') at r: E = w +
    r w' less the source still to come, int_r^inf s u^p ds, taken for the
    local power law u ~ r^gamma, gamma = r u'/u, as r^2 u^p / (-p gamma -
    2); None where that tail diverges (-p gamma <= 2)."""
    r, u, du, w, dw = map(float, (r, y[0], y[1], y[-2], y[-1]))
    decay = -p * r * du / u - 2.0
    return w + r * dw - r * r * u ** p / decay if decay > 0.0 else None


def _crossing_radius(c, r_left, r_right, shift, num, abs_tol):
    """The first radius of the step (r_left, r_right] where its polynomial c
    in theta reads shift, to abs_tol in r: refine_bracket on c(theta) -
    shift, > 0 at 0 and not at 1, and the final midpoint in theta; r_left
    where c(0) <= shift."""
    y0, width = float(c[0]), r_right - r_left
    if not y0 > shift:
        return float(r_left)

    def evaluate(theta):
        f = float(_poly_at(c, num(theta))) - shift
        return Probe(f > 0.0, f, None)

    ends = (Probe(True, y0 - shift, None), Probe(False, float(sum(c)) - shift, None))
    b = refine_bracket(evaluate, Bracket(0.0, 1.0, *ends), abs_tol / float(width))
    return float(r_left + width * num(0.5 * (b.lo + b.hi)))


def _certified_at(w_zero, c, r_left, r_right, tau, num, abs_tol):
    """r_zero: where E = w + r w' reads -tau in the certificate's step, of top
    level c in theta, or w_zero, w's first zero (or None), if that is first."""
    # E = sum_k (k+1) (c_k + c_(k+1) r_left/width) theta^k
    ratio = r_left / (r_right - r_left)
    e = [(k + 1) * (ck + ratio * cn) for k, (ck, cn) in enumerate(zip(c, [*c[1:], 0.0]))]
    r_cert = _crossing_radius(e, r_left, r_right, -tau, num, abs_tol)
    return r_cert if w_zero is None else min(w_zero, r_cert)


def integrate(spec: EquationSpec, jet: Jet, cfg: IntegratorConfig, *,
              stop_at_top_zero: Optional[float] = None) -> Trajectory:
    """Integrate the radial system from the origin jet out to the horizon.

    Returns a Trajectory whose verdict is Collapsed(r*) when u collapses,
    TopZero(r0) when the horizon is reached after the run was certified
    not entire, EntirePositive(tail) when it is reached without that, and
    Inconclusive when the step budget runs out or the step size
    underflows.  The certificate is E = w + r w' < -tau at a step end, w =
    Lap^{m-1} u, tau = rel_tol, or w's first downward zero; r0 is the
    first radius where either holds.  Both points are located on their
    step's polynomial (_crossing_radius) only for a TopZero verdict: w's
    zero by the run (events then holds it; a collapse's holds r*), and E's
    -tau crossing when TopZero.r_zero is first read.  Nothing else is located.

    With stop_at_top_zero = s a certified run ends, TopZero(r0), at the
    first step end where the limit estimate _tail_limit has moved by at
    most s times itself since the step end before, r_end that step end,
    or at w's first zero, r_end that zero, whichever comes first (a run
    that collapses, gamma = r u'/u <= -2/p, reaches only the zero), unless
    a floor crossing in the same step comes first; every step up to there
    is the full run's; s = inf ends it at the first certified step end.
    With None no certificate or sign change ends the run.

    A collapse ends in one of two ways, recorded in stats["closure"]:
    {"kind": "floor"} when a step crosses _U_FLOOR (r* located on the step's
    polynomial to abs_tol in r), or {"kind": "wall", "s": s, "disagreement":
    d} when the wall read off the series at the last accepted r has settled
    (_read_wall): s = r* - r is the distance closed, to the singularity less
    the floor offset, and d <= abs_tol the larger of the readings' last bias
    correction and change; w cannot reach zero within s (_close_on_wall),
    and the dense output ends at that r.  stats["closure"] is None without a
    collapse, stats["nfev"] counts the series computed (a halved step reuses
    its own, and a wall closure reads one series more than it steps).

    An entire verdict carries the power-law fit of u on [r_end/2, r_end]
    (fit_tail), run the first time something reads it (EntirePositive.tail):
    its gamma is the growth exponent, and the volume's tail reads the same
    fit.  A run whose verdict is only told apart, as the critical-datum
    probes do, fits nothing.  The output rows are the sample grid at
    dense_output_stride (sample_radii) and the dense output there, built
    the first time the trajectory reads them; nothing else reads them.
    """
    dtype = cfg.dtype
    num = float if dtype is np.float64 else dtype  # scalar type of the step
    p = spec.rhs_exponent
    atol, rtol = _STEP_TOL * cfg.abs_tol, _STEP_TOL * cfg.rel_tol
    r, r_max = num(0.0), num(cfg.r_max)
    y = [num(v) for v in jet.origin_state]

    r_lefts, r_rights, cs = [], [], []
    nfev = naccept = nreject = 0
    tiny_h_factor = 128.0 * float(np.finfo(dtype).eps)
    # tau, the certificate's margin: both closed forms are exactly critical
    # (w_inf = 0), and their integrated E(R) reads from -0.0225 to +0.064
    # rel_tol (u0 at R = 100, where the exact E is 2e-11, aside) over rel_tol
    # 1e-4 ... 1e-12, abs_tol 1e-14 ... rel_tol, R = 1e2 and 1e3, in double
    # and extended; it does not move with abs_tol
    top, tau = 2 * (spec.m - 1), cfg.rel_tol
    verdict = closure = h = wall = cert = zero = hat = None
    stopped = False  # cert, zero: the steps where E first fell below -tau, w through zero

    # np.longdouble scalars warn where Python floats overflow silently; a
    # non-finite series or state is handled below either way
    with np.errstate(over="ignore", invalid="ignore"):
        while r < r_max:
            if naccept + nreject >= _MAX_STEPS:
                verdict = Inconclusive(reason=f"max step count {_MAX_STEPS} exhausted")
                break
            if h is None:  # a new step position; a halved step keeps its series
                # the origin series is in r, every later one in (r - r0) / r0
                a = _series(p, r, y, _ORDER) if r else taylor_launch(spec, jet, dtype=dtype)
                unit = r if r else num(1.0)
                nfev += 1
                wall = _read_wall(a[0], r, wall) if r else None
                s = (_close_on_wall(spec.m, y, wall.to_r, _U_FLOOR)
                     if wall is not None and wall.gap <= cfg.abs_tol else None)
                if s is not None:
                    verdict = Collapsed(r_star=float(r) + s)
                    closure = {"kind": "wall", "s": s, "disagreement": wall.gap}
                    break
                h = unit * num(_step_size(a, atol, rtol))
            h = min(h, r_max - r)
            if h < tiny_h_factor * max(float(r), 1.0):
                verdict = Inconclusive(reason=f"step size underflow at r={float(r):.6g}")
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

            # --- what ends the run or reads a verdict inside (r, r_new] ---
            r_floor = (_crossing_radius(c[0], r, r_new, _U_FLOOR, num, cfg.abs_tol)
                       if float(y_new[0]) < _U_FLOOR else None)
            if cert is None and y_new[top] + r_new * y_new[top + 1] < -tau:
                cert = naccept - 1
            if zero is None and float(y[top]) > 0.0 > float(y_new[top]):
                zero = naccept - 1
                if stop_at_top_zero is not None:  # ends here unless the floor comes first
                    r_zero = _crossing_radius(c[-1], r, r_new, 0.0, num, cfg.abs_tol)
                    if r_floor is None or r_zero <= r_floor:
                        r, stopped = r_zero, True
                        break
            if r_floor is not None:
                r = r_floor  # the deepest radius reached
                verdict, closure = Collapsed(r_star=r), {"kind": "floor"}
                break
            if stop_at_top_zero is not None and cert is not None:  # settled as asked?
                before = _tail_limit(p, r, y) if cert == naccept - 1 else hat
                hat = _tail_limit(p, r_new, y_new)
                stopped = stop_at_top_zero == math.inf or (
                    None not in (before, hat) and abs(hat - before) <= stop_at_top_zero * abs(hat))

            r, y, h = r_new, y_new, None
            if stopped:
                break

    dense = DenseSolution(np.array(r_lefts, dtype=dtype), np.array(r_rights, dtype=dtype),
                          np.array(cs, dtype=dtype).reshape(-1, spec.m, _ORDER + 1))
    r_end = (verdict.r_star if isinstance(verdict, Collapsed)
             else float(r if verdict or stopped else r_max))

    radii = functools.partial(sample_radii, cfg.dense_output_stride, cfg.r_max, float(r),
                              stopped or isinstance(verdict, Collapsed))  # stopped short
    w_zero = None  # located only for a TopZero verdict
    if verdict is None and (cert is not None or zero is not None):  # certified
        if zero is not None:  # a stopped run ended on it
            w_zero = r_end if stopped else _crossing_radius(
                cs[zero][-1], r_lefts[zero], r_rights[zero], 0.0, num, cfg.abs_tol)
        verdict = TopZero(w_zero if cert is None else functools.partial(
            _certified_at, w_zero, cs[cert][-1], r_lefts[cert], r_rights[cert], tau, num,
            cfg.abs_tol))
    elif verdict is None:  # the horizon
        verdict = EntirePositive(functools.partial(fit_tail, dense, (r_end / 2.0, r_end)))
    events = ((Event("u_floor", r_end),) if isinstance(verdict, Collapsed)
              else () if w_zero is None else (Event("lap_sign_change", w_zero),))

    stats = {
        "naccept": naccept,
        "nreject": nreject,
        "nfev": nfev,
        "closure": closure,
    }
    return Trajectory(spec=spec, jet=jet, verdict=verdict, r_end=float(r_end),
                      events=events, dense=dense, stats=stats, radii=radii)


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


def fit_tail(dense, window) -> PowerTail:
    """Weighted least squares of log u ~ log coeff + gamma log r + correction
    / r^2, trapezoid weights, at _FIT_NODES uniform nodes of the window (its
    end clipped to the dense output), where the dense output reads u only."""
    r = np.linspace(window[0], min(window[1], dense.r_hi), _FIT_NODES)
    w = np.ones(_FIT_NODES)
    w[0] = w[-1] = 0.5
    lu = np.log(dense(r, slots=slice(0, 1))[:, 0])
    design = np.column_stack([np.ones_like(r), np.log(r), 1.0 / r ** 2])
    root_w = np.sqrt(w)
    sol, *_ = np.linalg.lstsq(design * root_w[:, None], lu * root_w, rcond=None)
    resid = lu - design @ sol
    return PowerTail(gamma=float(sol[1]), coeff=float(np.exp(sol[0])),
                     correction=float(sol[2]), window=tuple(map(float, window)),
                     fit_rms=float(np.sqrt(w @ resid ** 2 / w.sum())))


def classify_growth(traj: Trajectory, fit_window=None) -> float:
    """Growth exponent gamma of an entire trajectory, from the power-law fit
    over a log-log window.

    The window defaults to [r_end/2, r_end], and the fit there is the
    verdict's own (EntirePositive.tail), run on its first read and kept,
    which the volume's tail reads too; another window is fitted afresh by
    fit_tail on the dense output.
    A window reaching further in than a twentieth of its outer edge is
    rejected because the asymptotic power law has not set in there.  One
    spanning less than a factor of 2 (r_lo > r_hi / 2), the verdict's own
    shape, raises WindowTooNarrow.
    """
    if not isinstance(traj.verdict, EntirePositive):
        raise ValueError("growth classification needs an EntirePositive verdict")
    r_end = traj.r_end
    window = (r_end / 2.0, r_end) if fit_window is None else fit_window
    r_lo, r_hi = float(window[0]), float(window[1])
    if r_hi > r_end * (1 + 1e-9):
        raise ValueError(f"window end {r_hi} beyond trajectory end {r_end}")
    if r_lo < r_hi / 20.0 - 1e-9 * r_hi:
        raise ValueError("window reaches too far in: need r_lo >= r_hi / 20")
    if not r_lo <= r_hi / 2.0:
        raise WindowTooNarrow(f"window [{r_lo}, {r_hi}] spans less than a factor of 2")
    tail = traj.verdict.tail if fit_window is None else fit_tail(traj.dense, (r_lo, r_hi))
    return tail.gamma
