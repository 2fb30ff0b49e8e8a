"""Problem instances and the first-order radial reduction.

The equations handled here are the radial forms of

    Lap^m u = -u^p   on R^3,  u > 0,

with m = 2 (p = -7) or m = 3 (p = -3).  A radial function is represented by
the 2m-vector state

    y = (u, u', v, v', ..., w, w')   with v = Lap u, ..., w = Lap^{m-1} u,

pairing each iterated Laplacian with its radial derivative, so that the
3-D radial Laplacian identity  Lap g = g'' + (2/r) g'  closes the system.
All odd radial derivatives vanish at the origin, which makes every state
component an even (respectively odd) function of r and permits a
singularity-free even-power Taylor launch off r = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .errors import LaunchRadiusTooLarge, NonPositiveU, OriginSingularity

__all__ = [
    "EquationSpec",
    "Jet",
    "RadialState",
    "Collapsed",
    "EntirePositive",
    "Inconclusive",
    "Verdict",
    "Trajectory",
    "rhs",
    "taylor_launch",
    "taylor_coefficients",
    "scale",
]


@dataclass(frozen=True)
class EquationSpec:
    """One problem instance: the order m fixes both exponents.

    rhs_exponent is the (negative) power p in the right-hand side -u^p,
    vol_exponent the power in the conformal volume integrand u^{6/(3-2m)}.
    """

    m: int
    rhs_exponent: int
    vol_exponent: int
    dimension: int = 3

    def __post_init__(self):
        if self.m not in (2, 3):
            raise ValueError(f"order m must be 2 or 3, got {self.m}")
        if self.dimension != 3:
            raise ValueError("only dimension 3 is supported")
        expected_p = {2: -7, 3: -3}[self.m]
        expected_v = {2: -6, 3: -2}[self.m]
        if self.rhs_exponent != expected_p:
            raise ValueError(f"rhs_exponent must be {expected_p} for m={self.m}")
        if self.vol_exponent != expected_v:
            raise ValueError(f"vol_exponent must be {expected_v} for m={self.m}")

    @classmethod
    def for_order(cls, m: int) -> "EquationSpec":
        """Build the spec for order m, deriving both exponents."""
        if m not in (2, 3):
            raise ValueError(f"order m must be 2 or 3, got {m}")
        p = (3 + 2 * m) // (3 - 2 * m)   # -7 for m=2, -3 for m=3 (exact integers)
        v = 6 // (3 - 2 * m)             # -6 for m=2, -2 for m=3
        return cls(m=m, rhs_exponent=p, vol_exponent=v)

    @property
    def n_state(self) -> int:
        return 2 * self.m


@dataclass(frozen=True)
class Jet:
    """Initial data at r = 0: the iterated Laplacian values (u, Lap u, ...).

    Odd radial derivatives at the origin are identically zero and are not
    stored.  lap_values has length m and lap_values[0] = u(0) must be > 0.
    """

    lap_values: tuple

    def __init__(self, lap_values):
        object.__setattr__(self, "lap_values", tuple(float(v) for v in lap_values))
        if len(self.lap_values) == 0:
            raise ValueError("jet needs at least u(0)")
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
    """Horizon reached with u above the floor; growth_exponent from a log-log fit."""

    growth_exponent: float


@dataclass(frozen=True)
class Inconclusive:
    reason: str


Verdict = Union[Collapsed, EntirePositive, Inconclusive]


class Trajectory:
    """A numerical solution: dense output, sample rows and termination verdict.

    Rows are stored column-wise: ``r`` has shape (n,), ``y`` shape (n, 2m).
    ``integrate`` passes a row builder (``rows``) instead of the arrays:
    they are built the first time ``r`` or ``y`` is read and then kept,
    while ``len``, ``state`` and ``count_rows`` answer from the builder
    without building them.  ``dense`` (when present) is the integrator's
    piecewise dense output and evaluates the solution and its derivative
    anywhere in (launch_radius, r_end]; the verdict, the volume and the
    critical-datum probes read only it.
    """

    def __init__(self, spec: EquationSpec, jet: Jet, r=None, y=None, *,
                 verdict: Verdict, r_end: float, events: tuple = (),
                 dense: Optional[object] = None, stats: Optional[dict] = None,
                 rows: Optional[object] = None):
        self.spec, self.jet, self.verdict, self.r_end = spec, jet, verdict, r_end
        self.events, self.dense, self.stats = events, dense, stats
        self._rows, self._r, self._y = rows, None, None
        if rows is None:
            self._set_rows(r, y)

    def _set_rows(self, r, y):
        self._r = np.asarray(r, dtype=float)
        self._y = np.asarray(y, dtype=float)
        if self._y.shape != (self._r.shape[0], self.spec.n_state):
            raise ValueError(
                f"sample array shape {self._y.shape} does not match "
                f"{(self._r.shape[0], self.spec.n_state)}"
            )
        self._rows = None

    @property
    def r(self) -> np.ndarray:
        if self._r is None:
            self._set_rows(*self._rows())
        return self._r

    @property
    def y(self) -> np.ndarray:
        if self._y is None:
            self._set_rows(*self._rows())
        return self._y

    def __len__(self):
        return len(self._rows) if self._r is None else self._r.shape[0]

    def count_rows(self, lo: float, hi: float) -> int:
        """Number of sample rows with lo <= r <= hi."""
        if self._r is None:
            return self._rows.count(lo, hi)
        return int(np.count_nonzero((self._r >= lo) & (self._r <= hi)))

    @property
    def u(self) -> np.ndarray:
        return self.y[:, 0]

    def state(self, i: int) -> RadialState:
        """Row i as a RadialState; an unbuilt row is evaluated on its own."""
        if self._r is None:
            r = self._rows.radius(i)
            return RadialState(r=r, y=self._rows.evaluate(np.array([r]))[0])
        return RadialState(r=float(self.r[i]), y=self.y[i].copy())

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


def _radial_rhs(p, r, y) -> list:
    """Derivative of the first-order radial state, on scalars, at r > 0.

    y holds the 2m slots as scalars of one floating type (Python floats,
    or np.longdouble for extended precision) and the result is a list of
    that type.  The state has at most six slots, so per-call NumPy
    dispatch would cost more than the arithmetic; the step loop and rhs()
    both use this form.  No checks: when u <= 0 every slot is NaN, and when
    u^p overflows (a binary64 Python float raises where NumPy gives inf)
    the top slot is -inf, so an adaptive stepper rejects the step.
    """
    u = y[0]
    if not u > 0:
        return [math.nan] * len(y)
    try:
        top = u ** p
    except OverflowError:
        top = math.inf
    t = 2.0 / r
    if len(y) == 4:
        u, u1, v, v1 = y
        return [u1, -t * u1 + v, v1, -t * v1 - top]
    u, u1, v, v1, w, w1 = y
    return [u1, -t * u1 + v, v1, -t * v1 + w, w1, -t * w1 - top]


def rhs(spec: EquationSpec, state: RadialState) -> np.ndarray:
    """Right-hand side of the first-order radial system at r > 0.

    Each even slot's derivative is the paired odd slot; each odd slot's
    derivative is (next iterated Laplacian) - (2/r)(own value), and the top
    level substitutes Lap^m u = -u^p.
    """
    if state.r == 0:
        raise OriginSingularity("rhs is singular at r = 0; use taylor_launch")
    if state.r < 0:
        raise ValueError("negative radius")
    if not state.u > 0:
        raise NonPositiveU(f"u = {state.u} at r = {state.r}")
    y = np.asarray(state.y, dtype=float)
    if y.shape[0] != spec.n_state:
        raise ValueError(f"state has {y.shape[0]} slots, spec needs {spec.n_state}")
    return np.array(_radial_rhs(spec.rhs_exponent, float(state.r), y.tolist()))


def taylor_coefficients(spec: EquationSpec, jet: Jet, dtype=np.float64) -> np.ndarray:
    """Iterated Laplacians of the solution at the origin, through order m+2.

    c[j] = Lap^j u(0).  The first m entries come from the jet; the equation
    and its first two Laplacians at the origin supply

        c[m]   = -c0^p
        c[m+1] = -p c0^(p-1) c1
        c[m+2] = -p c0^(p-1) c2 - (5/3) p (p-1) c0^(p-2) c1^2

    (gradients vanish at the origin, so only these chain-rule terms survive).
    """
    m = spec.m
    if len(jet) != m:
        raise ValueError(f"jet has {len(jet)} values, order m={m} needs {m}")
    p = dtype(spec.rhs_exponent)
    c = np.zeros(m + 3, dtype=dtype)
    c[:m] = jet.lap_values
    c0, c1 = c[0], c[1]
    c[m] = -(c0 ** p)
    c[m + 1] = -p * c0 ** (p - 1) * c1
    c2 = c[2]  # for m=2 this is c[m], already set above
    c[m + 2] = -p * c0 ** (p - 1) * c2 - dtype(5.0 / 3.0) * p * (p - 1) * c0 ** (p - 2) * c1 ** 2
    return c


# Inverse odd factorials 1/(2j+1)! for the even series u = sum c_j r^(2j)/(2j+1)!
_INV_ODD_FACT = [1.0 / math.factorial(2 * j + 1) for j in range(8)]


def _taylor_state(c, m, r, dtype=np.float64):
    """Evaluate all 2m slots of the truncated even series at radii r (array ok)."""
    r = np.asarray(r, dtype=dtype)
    n_coef = c.shape[0]
    y = np.zeros(r.shape + (2 * m,), dtype=dtype)
    for level in range(m):
        val = np.zeros_like(r)
        der = np.zeros_like(r)
        for j in range(n_coef - level):
            cj = c[level + j]
            w = dtype(_INV_ODD_FACT[j])
            val += cj * w * r ** (2 * j)
            if j > 0:
                der += cj * w * (2 * j) * r ** (2 * j - 1)
        y[..., 2 * level] = val
        y[..., 2 * level + 1] = der
    return y


def taylor_launch(spec: EquationSpec, jet: Jet, r0: float, *, tol: float = 1e-9,
                  dtype=np.float64) -> RadialState:
    """State at a small radius r0 from the even Taylor series off the origin.

    The series for Lap^l u keeps terms through the highest known coefficient
    c[m+2], giving per-slot truncation error O(r0^{2m+2}) or better.  Raises
    LaunchRadiusTooLarge when the relative size of the last retained term of
    any slot exceeds ``tol``.
    """
    if not r0 > 0:
        raise ValueError("launch radius must be positive")
    c = taylor_coefficients(spec, jet, dtype=dtype)
    m = spec.m
    # First omitted term of slot `level`, extrapolated geometrically from the
    # last two retained terms (the coefficient chain grows roughly like a
    # power of 1/u(0), so the term ratio is an honest convergence estimate).
    worst = 0.0
    for level in range(m):
        j_last = (m + 2) - level
        t_last = abs(float(c[m + 2])) * float(r0) ** (2 * j_last) * _INV_ODD_FACT[j_last]
        t_prev = abs(float(c[m + 1])) * float(r0) ** (2 * (j_last - 1)) \
            * _INV_ODD_FACT[j_last - 1]
        ratio = t_last / t_prev if t_prev > 0 else 1.0
        est = t_last * min(1.0, ratio)
        scale = max(1.0, abs(float(c[level])))
        worst = max(worst, est / scale)
    if worst > tol:
        raise LaunchRadiusTooLarge(
            f"launch truncation estimate {worst:.3e} exceeds tol {tol:.1e} at r0={r0}"
        )
    y = _taylor_state(c, m, dtype(r0), dtype=dtype)
    return RadialState(r=float(r0), y=y)


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
    dense output is rescaled alike: its radii and step lengths are divided
    by lam, its left states multiplied by the slot weights w and its
    coefficients by lam * w, since each step's length shrinks by lam.
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
    new_jet = Jet(tuple(v * w[2 * j] for j, v in enumerate(traj.jet.lap_values)))
    events = tuple(replace(ev, r_event=ev.r_event / lam) for ev in traj.events)
    dense = traj.dense
    if dense is not None:
        dense = type(dense)(dense.r_lefts / lam, dense.r_rights / lam, dense.hs / lam,
                            dense.y_lefts * w, dense.qs * (lam * w)[:, None])
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
    )
