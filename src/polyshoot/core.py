"""Problem instances, the radial reduction and its Taylor series.

The equations handled here are the radial forms of

    Lap^m u = -u^p   on R^3,  u > 0,

with m = 2 (p = -7) or m = 3 (p = -3).  A radial function is represented by
the 2m-vector state

    y = (u, u', v, v', ..., w, w')   with v = Lap u, ..., w = Lap^{m-1} u,

pairing each iterated Laplacian with its radial derivative, so that the
3-D radial Laplacian identity  Lap g = g'' + (2/r) g'  closes the system.
All odd radial derivatives vanish at the origin, which makes every state
component an even (respectively odd) function of r: the even series off
r = 0 (taylor_launch) is singularity-free, and is the first step of every
integration.

One recurrence gives every Taylor series (Jorba & Zou, Exp. Math. 14
(2005); Corliss & Chang, ACM TOMS 8 (1982)), _series: each level from
r L'' + 2 L' = r b, in r about the origin and in tau = (r - r0) / r0 about
any r0 > 0, with u^p from Miller's power recurrence (Knuth, TAOCP 2, 4.7).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Optional, Union

import numpy as np

from .errors import NonPositiveU

__all__ = [
    "EquationSpec",
    "Jet",
    "RadialState",
    "Collapsed",
    "EntirePositive",
    "Inconclusive",
    "TopZero",
    "Verdict",
    "Trajectory",
    "taylor_launch",
]


@dataclass(frozen=True)
class EquationSpec:
    """One problem instance, its order m (2 or 3), which fixes the rest.

    rhs_exponent is the (negative) power p in the right-hand side -u^p,
    vol_exponent the power in the conformal volume integrand u^{6/(3-2m)}.
    """

    m: int

    def __post_init__(self):
        if self.m not in (2, 3):
            raise ValueError(f"order m must be 2 or 3, got {self.m}")

    @classmethod
    def for_order(cls, m: int) -> "EquationSpec":
        return cls(m)

    @property
    def rhs_exponent(self) -> int:
        return (3 + 2 * self.m) // (3 - 2 * self.m)   # -7 for m=2, -3 for m=3

    @property
    def vol_exponent(self) -> int:
        return 6 // (3 - 2 * self.m)                  # -6 for m=2, -2 for m=3

    @property
    def n_state(self) -> int:
        return 2 * self.m


@dataclass(frozen=True)
class Jet:
    """Initial data at r = 0: the iterated Laplacian values (u, Lap u, ...).

    Odd radial derivatives at the origin are identically zero and are not
    stored.  lap_values has length m, every value finite (ValueError
    otherwise), and lap_values[0] = u(0) must be > 0.
    """

    lap_values: tuple

    def __init__(self, lap_values):
        object.__setattr__(self, "lap_values", tuple(float(v) for v in lap_values))
        if len(self.lap_values) == 0:
            raise ValueError("jet needs at least u(0)")
        if not all(map(math.isfinite, self.lap_values)):
            raise ValueError(f"jet values must be finite, got {self.lap_values}")
        if not self.lap_values[0] > 0:
            raise NonPositiveU(f"u(0) must be positive, got {self.lap_values[0]}")

    def __len__(self):
        return len(self.lap_values)

    @property
    def origin_state(self) -> tuple:
        """The state (u, 0, Lap u, 0, ...) at r = 0."""
        return tuple(v for lap in self.lap_values for v in (lap, 0.0))


@dataclass(frozen=True)
class RadialState:
    """State (u, u', Lap u, (Lap u)', ...) at one radius."""

    r: float
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y))
        if self.y.ndim != 1 or self.y.shape[0] % 2 != 0:
            raise ValueError("state vector must be 1-D with even length")

    def lap(self, j: int) -> float:
        """Value of Lap^j u at this radius."""
        return float(self.y[2 * j])

    def lap_deriv(self, j: int) -> float:
        """Value of (Lap^j u)' at this radius."""
        return float(self.y[2 * j + 1])


@dataclass(frozen=True)
class Collapsed:
    """u reached the collapse floor at finite radius r_star."""

    r_star: float


class EntirePositive:
    """Horizon reached with u above the floor.  tail is the one fit of the
    asymptote, integrator.fit_tail on [r_end/2, r_end] (a PowerTail), which
    classify_growth and the volume's tail read too.

    The fit runs on first read: integrate hands the verdict the fit to run
    (a callable of no arguments), and the first read of tail or
    growth_exponent runs it once and keeps its PowerTail; a PowerTail given
    directly is the tail as it is.  Equality, hash and repr read the
    fitted tail, so verdicts compare by value.
    """

    __slots__ = ("_tail",)

    def __init__(self, tail):
        self._tail = tail

    @property
    def tail(self):
        if callable(self._tail):
            self._tail = self._tail()
        return self._tail

    @property
    def growth_exponent(self) -> float:
        return self.tail.gamma

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.tail == other.tail

    def __hash__(self):
        return hash((self.tail,))

    def __repr__(self):
        return f"EntirePositive(tail={self.tail!r})"


@dataclass(frozen=True)
class Inconclusive:
    reason: str


@dataclass(frozen=True)
class TopZero:
    """The run was certified not entire at r_zero, and ended where that
    was settled (integrate's stop_at_top_zero) or went on to the horizon
    without a collapse.  r_zero is the first radius where E = w + r w', w
    = Lap^{m-1} u, reads -tau, or w reads 0.  E falls strictly toward w's
    limit w_inf, and w does too, so w_inf < 0: the solution is not
    entire."""

    r_zero: float


Verdict = Union[Collapsed, EntirePositive, Inconclusive, TopZero]


# Rows per dense-output call when the state rows are built: large enough
# that a step's rows go through few NumPy calls, small enough that the
# temporaries of one call (about 1 MB) stay small next to the rows.
_ROW_BLOCK = 16384


class Trajectory:
    """A numerical solution: its dense output and termination verdict.

    ``dense`` is the integrator's DenseSolution, which evaluates the
    solution from 0 to the deepest radius reached; the verdict, the volume
    and the critical-datum probes read only it and ``end``.  An entire
    verdict's tail is fitted on it the first time it is read
    (EntirePositive), and the probes, which read ``end`` only, fit none.
    The sample rows are a view of it for output: ``radii`` is a picklable
    function giving the row radii ``r`` (integrate's sample grid at the
    configured stride), and ``y`` is the state there, both built the first
    time they are read, then kept; ``len`` reads ``r`` only.  With no
    accepted step the dense output is empty and the one state, at r = 0,
    is the jet's.  ``events``, the point the verdict carries, serves only
    perfbench's tracer.
    """

    def __init__(self, spec: EquationSpec, jet: Jet, *, verdict: Verdict, r_end: float,
                 dense, radii: Callable[[], np.ndarray], events: tuple = (),
                 stats: Optional[dict] = None):
        self.spec, self.jet, self.verdict, self.r_end = spec, jet, verdict, r_end
        self.events, self.dense, self.stats = events, dense, stats
        self._radii, self._r, self._y = radii, None, None

    @functools.cached_property
    def end(self) -> RadialState:
        """The state at the last radius reached, min(r_end, dense.r_hi), read
        once: past a wall closure's r* the dense output does not reach."""
        r = min(self.r_end, self.dense.r_hi)
        return RadialState(r=r, y=self._states(r))

    def _states(self, r):
        """dense(r), or the jet's state where no step was accepted (r = 0)."""
        if self.dense.r_hi:
            return self.dense(r)
        state = np.asarray(self.jet.origin_state)
        return np.broadcast_to(state, np.shape(r) + state.shape)

    @property
    def r(self) -> np.ndarray:
        if self._r is None:
            self._r = self._radii()
        return self._r

    @property
    def y(self) -> np.ndarray:
        if self._y is None:
            self._y = self._dense_rows()
        return self._y

    def _dense_rows(self) -> np.ndarray:
        """The state rows, in blocks of _ROW_BLOCK rows."""
        r = self.r
        y = np.empty((r.shape[0], self.spec.n_state))
        for lo in range(0, r.shape[0], _ROW_BLOCK):
            y[lo:lo + _ROW_BLOCK] = self._states(r[lo:lo + _ROW_BLOCK])
        return y

    def __len__(self):
        return self.r.shape[0]

    @property
    def u(self) -> np.ndarray:
        """u on the rows, the first column of y (built on first read)."""
        return self.y[:, 0]


# Order of every step's series, the origin's included.  A step covers the
# fraction 0.9 (tol / |L|)^(1/N) of the distance to the nearest
# singularity, and costs about N^2/2 products; 20 to 28 took the same time
# on collapses and profiles.
_ORDER = 24

_DIVISORS = [(k + 1) * (k + 2) for k in range(_ORDER + 1)]  # exact: one rounding each


def _power0(u0, p):
    """u0^p, or inf where it overflows a binary64 Python float (which raises)."""
    try:
        return u0 ** p
    except OverflowError:
        return math.inf


def _series(p, r0, y, order):
    """Taylor coefficients a[j][k], k = 0 .. order (2 .. _ORDER), of every
    level L_j = Lap^j u from the state y at r0, as scalars of y's floating
    type: in tau = (r - r0) / r0 about r0 > 0, and in r about the origin,
    r0 = 0, the regular singular point, where y's odd slots are 0.  With
    b = L_{j+1}, or b = v = -u^p at the top, r L_j'' + 2 L_j' = r b gives

        a_{j,k+2} = r0^2 (b_k + b_{k-1}) / ((k+1)(k+2)) - a_{j,k+1}   (r0 > 0),
        a_{j,k+2} = b_k / ((k+2)(k+3))                                (r0 = 0),
        v_k = sum_{i=1..k} ((p+1) i - k) u_i v_{k-i} / (k u_0)   (k >= 1, Miller),

    b_{-1} = 0, each coefficient by left-to-right sums and an exact integer
    divisor (_DIVISORS), so its bits do not depend on the loop's layout.
    The sums are the built-in sum(), which from Python 3.12 compensates
    float sums (Neumaier): sum([1e16, 1.0, -1e16]) is 0.0 on 3.11 and 1.0
    on 3.12.  So the bits of a double series, like the frozen reference
    they are tested against, hold per interpreter version.
    Callers pass u = y[0] > 0 (Jet enforces it at the origin, _try_step
    before each step); nothing is checked, and a coefficient beyond the
    floating range leaves some of them non-finite.
    """
    m = len(y) // 2
    a = [[y[2 * j], y[2 * j + 1] * r0] for j in range(m)]
    u, top = a[0], a[m - 1]
    pairs = [(a[j], a[j + 1]) for j in range(m - 2, -1, -1)]  # (L_j, b = L_{j+1})
    u0, rr, v_rev = u[0], r0 * r0, [_power0(u[0], p)]  # v_rev: v_{k-1} .. v_0
    if r0:  # k = 0, where b_{-1} = 0
        f = rr / _DIVISORS[0]
        top.append(-v_rev[0] * f - top[1])
        for aj, b in pairs:
            aj.append(b[0] * f - aj[1])
    else:
        top.append(-v_rev[0] / _DIVISORS[1])
        for aj, b in pairs:
            aj.append(b[0] / _DIVISORS[1])
    u_tail, iu = [u[1]], [u[1]]  # u_1 .. u_k and i u_i, i = 1 .. k
    for k in range(1, order - 1):
        u_tail.append(u[k + 1])
        iu.append((k + 1) * u[k + 1])
        v_rev.insert(0, ((p + 1) * sum(map(mul, iu, v_rev))
                         - k * sum(map(mul, u_tail, v_rev))) / (k * u0))
        if r0:
            f = rr / _DIVISORS[k]
            top.append(-(v_rev[0] + v_rev[1]) * f - top[k + 1])
            for aj, b in pairs:
                aj.append((b[k] + b[k - 1]) * f - aj[k + 1])
        else:
            d = _DIVISORS[k + 1]
            top.append(-v_rev[0] / d)
            for aj, b in pairs:
                aj.append(b[k] / d)
    return a


def taylor_launch(spec: EquationSpec, jet: Jet, dtype=np.float64) -> list:
    """The origin series of every level in r through r^_ORDER, _series at
    r0 = 0 from the jet's state there, as scalars of dtype's type (Python
    floats for float64).  It is the first step of every integration, sized
    by the step rule like any other, in units of 1.  A jet whose length is
    not m raises ValueError.
    """
    m = spec.m
    if len(jet) != m:
        raise ValueError(f"jet has {len(jet)} values, order m={m} needs {m}")
    num = float if dtype is np.float64 else dtype
    y = [num(v) for v in jet.origin_state]
    return _series(spec.rhs_exponent, num(0.0), y, _ORDER)
