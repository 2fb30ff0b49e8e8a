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

import math
from dataclasses import dataclass, replace
from itertools import islice
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
    "Verdict",
    "Trajectory",
    "taylor_launch",
    "scale",
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
    def u0(self) -> float:
        return self.lap_values[0]


@dataclass(frozen=True)
class RadialState:
    """State (u, u', Lap u, (Lap u)', ...) at one radius."""

    r: float
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y))
        if self.y.ndim != 1 or self.y.shape[0] % 2 != 0:
            raise ValueError("state vector must be 1-D with even length")

    @property
    def u(self) -> float:
        return float(self.y[0])

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


@dataclass(frozen=True)
class EntirePositive:
    """Horizon reached with u above the floor.  tail is the one fit of the
    asymptote, integrator.fit_tail on [r_end/2, r_end] (a PowerTail), which
    fit_growth and the volume's tail read too."""

    tail: object

    @property
    def growth_exponent(self) -> float:
        return self.tail.gamma


@dataclass(frozen=True)
class Inconclusive:
    reason: str


Verdict = Union[Collapsed, EntirePositive, Inconclusive]


# Rows per dense-output call when the state rows are built: large enough
# that a step's rows go through few NumPy calls, small enough that the
# temporaries of one call (about 1 MB) stay small next to the rows.
_ROW_BLOCK = 16384


class Trajectory:
    """A numerical solution: dense output, sample rows and termination verdict.

    Rows are stored column-wise: ``r`` has shape (n,), ``y`` shape (n, 2m).
    ``integrate`` passes a picklable grid function (``radii``) and its
    ``stride`` instead of the arrays: ``r`` is built from it, and ``y`` as
    ``dense(r)``, the first time each is read, then kept.  ``len`` and
    ``state`` read ``r`` only.  Rows given as arrays take their widest gap
    as the stride, which the fits' window rule compares with a window.
    ``dense`` (when present) is the integrator's DenseSolution, which
    evaluates the solution from 0 to the deepest radius reached; the
    verdict, the volume and the critical-datum probes read only it.
    """

    def __init__(self, spec: EquationSpec, jet: Jet, r=None, y=None, *,
                 verdict: Verdict, r_end: float, events: tuple = (),
                 dense: Optional[object] = None, stats: Optional[dict] = None,
                 radii: Optional[Callable[[], np.ndarray]] = None,
                 stride: Optional[float] = None):
        self.spec, self.jet, self.verdict, self.r_end = spec, jet, verdict, r_end
        self.events, self.dense, self.stats = events, dense, stats
        self._radii, self._r, self._y, self.stride = radii, None, None, stride
        if radii is None:
            self._r = np.asarray(r, dtype=float)
            self._y = np.asarray(y, dtype=float)
            if stride is None:
                self.stride = float(np.diff(self._r).max(initial=0.0)) or math.inf
            if self._y.shape != (self._r.shape[0], self.spec.n_state):
                raise ValueError(
                    f"sample array shape {self._y.shape} does not match "
                    f"{(self._r.shape[0], self.spec.n_state)}"
                )

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
        """The state rows, dense(r) in blocks of _ROW_BLOCK rows."""
        r = self.r
        y = np.empty((r.shape[0], self.spec.n_state))
        for lo in range(0, r.shape[0], _ROW_BLOCK):
            y[lo:lo + _ROW_BLOCK] = self.dense(r[lo:lo + _ROW_BLOCK])
        return y

    def __len__(self):
        return self.r.shape[0]

    @property
    def u(self) -> np.ndarray:
        return self.y[:, 0]

    def state(self, i: int) -> RadialState:
        """Row i as a RadialState; an unbuilt row is evaluated on its own."""
        r = float(self.r[i])
        return RadialState(r=r, y=self.dense(r) if self._y is None else self._y[i].copy())

    def validate(self):
        """Check the structural invariants; raises ValueError on violation."""
        if not self.r[0] == 0.0:
            raise ValueError("samples must start at r = 0")
        if not np.all(np.diff(self.r) > 0):
            raise ValueError("samples must be strictly increasing")
        if not np.all(self.y[0, 1::2] == 0.0):
            raise ValueError("odd slots must vanish at r = 0")
        if not (isinstance(self.verdict, Collapsed) or np.all(self.y[:, 0] > 0)):
            raise ValueError("u must stay positive unless collapsed")


# Order of every step's series, the origin's included.  A step covers the
# fraction 0.9 (tol / |L|)^(1/N) of the distance to the nearest
# singularity, and costs about N^2/2 products; 20 to 28 took the same time
# on collapses and profiles.
_ORDER = 24


def _power0(u0, p):
    """u0^p, or inf where it overflows a binary64 Python float (which raises)."""
    try:
        return u0 ** p
    except OverflowError:
        return math.inf


def _power_coefficient(p, u, iu, v_rev, k):
    """Coefficient k >= 1 of v = u^p by Miller's recurrence

        v_k = sum_{i=1..k} ((p+1) i - k) u_i v_{k-i} / (k u_0),

    from u (u_0, u_1, ...), iu (i u_i for i = 1, 2, ...) and v_rev (v_{k-1}
    .. v_0); the sums stop with v_rev, so longer u and iu do no harm.
    """
    s_iu = sum(map(mul, iu, v_rev))
    s_u = sum(map(mul, islice(u, 1, None), v_rev))
    return ((p + 1) * s_iu - k * s_u) / (k * u[0])


def _series(p, r0, y, order):
    """Taylor coefficients a[j][k], k = 0 .. order, of every level L_j = Lap^j u
    from the state y at r0, as scalars of y's floating type: in tau = (r -
    r0) / r0 about r0 > 0, and in r about the origin, r0 = 0, the regular
    singular point, where y's odd slots are 0.  With b = L_{j+1}, or b =
    -u^p (Miller's recurrence) at the top, r L_j'' + 2 L_j' = r b gives

        a_{j,k+2} = r0^2 (b_k + b_{k-1}) / ((k+1)(k+2)) - a_{j,k+1}   (r0 > 0),
        a_{j,k+2} = b_k / ((k+2)(k+3))                                (r0 = 0).

    Callers pass u = y[0] > 0 (Jet enforces it at the origin, and _try_step
    rejects a state with u <= 0 before it starts a step); nothing is
    checked, and a coefficient beyond the floating range leaves some of them
    non-finite.
    """
    m = len(y) // 2
    a = [[y[2 * j], y[2 * j + 1] * r0] for j in range(m)]
    u, top = a[0], a[m - 1]
    rr, iu, v_rev = r0 * r0, [u[1]], [_power0(u[0], p)]
    for k in range(order - 1):
        if k:
            v_rev.insert(0, _power_coefficient(p, u, iu, v_rev, k))
        if r0:
            f = rr / ((k + 1) * (k + 2))
            top.append(-(v_rev[0] + v_rev[1]) * f - top[k + 1] if k
                       else -v_rev[0] * f - top[1])
            for j in range(m - 2, -1, -1):
                b = a[j + 1]
                a[j].append((b[k] + b[k - 1]) * f - a[j][k + 1] if k
                            else b[0] * f - a[j][1])
        else:
            d = (k + 2) * (k + 3)  # an exact divisor: one rounding per coefficient
            top.append(-v_rev[0] / d)
            for j in range(m - 2, -1, -1):
                a[j].append(a[j + 1][k] / d)
        iu.append((k + 2) * u[k + 2])
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
    y = [num(v) for lap in jet.lap_values for v in (lap, 0.0)]
    return _series(spec.rhs_exponent, num(0.0), y, _ORDER)


def _scaling_weights(spec: EquationSpec, lam: float) -> np.ndarray:
    """Per-slot powers of lambda under u -> lam^{(3-2m)/2} u(lam r)."""
    alpha = (3 - 2 * spec.m) / 2.0
    w = np.empty(spec.n_state)
    for j in range(spec.m):
        w[2 * j] = lam ** (alpha + 2 * j)
        w[2 * j + 1] = lam ** (alpha + 2 * j + 1)
    return w


def scale(spec: EquationSpec, traj: Trajectory, lam: float) -> Trajectory:
    """Resample a trajectory under the volume-preserving scaling.

    The scaled solution is u_lam(r) = lam^{(3-2m)/2} u(lam r); each Lap^j
    slot picks up lam^{(3-2m)/2 + 2j} and each derivative slot one more
    power.  Sample radii map to r/lam, so no interpolation is needed.  The
    dense output's radii are divided by lam and its step polynomials of
    level j multiplied by lam^{(3-2m)/2 + 2j}: theta does not change, and a
    derivative slot, the derivative over the step's width, picks up its
    extra power by itself.  An entire verdict's fit c r^gamma (1 + d/r^2)
    becomes c lam^((3-2m)/2 + gamma) r^gamma (1 + d lam^-2 / r^2) on window / lam.
    """
    if not lam > 0:
        raise ValueError("scaling factor must be positive")
    if lam == 1.0:
        return traj
    w = _scaling_weights(spec, lam)
    new_r = traj.r / lam
    new_y = traj.y * w
    verdict = traj.verdict
    if isinstance(verdict, Collapsed):
        verdict = Collapsed(r_star=verdict.r_star / lam)
    elif isinstance(verdict, EntirePositive):
        t = verdict.tail
        verdict = EntirePositive(replace(
            t, coeff=t.coeff * w[0] * lam ** t.gamma, correction=t.correction / lam ** 2,
            window=tuple(x / lam for x in t.window)))
    new_jet = Jet(tuple(v * w[2 * j] for j, v in enumerate(traj.jet.lap_values)))
    events = tuple(replace(ev, r_event=ev.r_event / lam) for ev in traj.events)
    dense = traj.dense
    if dense is not None:
        dense = type(dense)(dense.r_lefts / lam, dense.r_rights / lam, dense.cs * w[0::2, None])
    return Trajectory(
        spec=traj.spec,
        jet=new_jet,
        r=new_r,
        y=new_y,
        verdict=verdict,
        r_end=traj.r_end / lam,
        events=events,
        dense=dense,
        stats=None,
        stride=traj.stride / lam,
    )
