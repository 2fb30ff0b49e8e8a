"""Root-finding layers over the integrator.

One safeguarded bracket refinement (refine_bracket) over trajectory
classifications and residuals solves three shooting problems:

  * critical_eps: the largest second-datum magnitude eps for which the
    sixth-order problem (m=3, jet (k, -eps, 1)) stays entire,
  * collapse_boundary_m2: the offset rho below which the fourth-order
    problem (jet (u0+rho, lap-u0)) collapses,
  * prescribe_volume: parameters achieving a requested conformal volume.

"Entire" is operational: the trajectory reaches the horizon with u above
the collapse floor and the top Laplacian slot positive throughout (the
quantity whose positivity characterises entire solutions for both orders).
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import oracle
from .core import EntirePositive, EquationSpec, Jet, Trajectory
from .errors import (BracketFailure, HorizonTooShort, PolyshootError,
                     TableExhausted, TargetOutOfRange)
from .integrator import IntegratorConfig, integrate
from .volume import dense_quadrature, volume, volume_of_jet

__all__ = ["default_config", "jet_m2", "jet_m3", "is_entire", "lap_limit_estimate",
           "Probe", "Bracket", "refine_bracket", "CriticalEps", "critical_eps",
           "EpsResidual", "critical_eps_residual", "collapse_boundary_m2",
           "VolumeSolve", "prescribe_volume", "smallest_valid_k", "EpsCache"]

DEFAULT_K_MIN = 5.0
DEFAULT_TABLE_K = (10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0)


def default_config(m: int, **overrides) -> IntegratorConfig:
    """Per-order defaults: horizon 1e3 for m=2, 1e2 for m=3."""
    return IntegratorConfig(**{"r_max": 1e3 if m == 2 else 1e2, **overrides})


def jet_m2(rho: float) -> Jet:
    """m=2 jet whose u(0) is offset by rho from the linear-growth profile's."""
    profile = oracle.linear_profile()
    return Jet((profile.eval(0.0, 0) + rho, profile.eval(0.0, 2)))


def jet_m3(k: float, eps: float) -> Jet:
    """m=3 jet (u, Lap u, Lap^2 u)(0) = (k, -eps, 1)."""
    return Jet((k, -eps, 1.0))


def is_entire(traj: Trajectory) -> bool:
    """Horizon reached, u above floor, and Lap^{m-1} u positive throughout.

    The top slot w = Lap^{m-1} u falls strictly (w' = -r^-2 int s^2 u^p <
    0), so its least sample is the last one, read off the dense output
    without building the rows; a sign change between samples is an event.
    """
    if not isinstance(traj.verdict, EntirePositive):
        return False
    m = traj.spec.m
    if traj.state(-1).lap(m - 1) <= 0.0:
        return False
    return not any(ev.kind == "lap_sign_change" and ev.level == m - 1
                   for ev in traj.events)


def lap_limit_estimate(traj: Trajectory) -> float:
    """Extrapolated infinite-radius limit of the top Laplacian slot.

    The top slot obeys w(r) = w_inf + I/r + O(r^-7) where I is the
    (finite) total source integral, so w + r w' evaluated at the horizon
    estimates w_inf with O(r^-7) error.  This removes the O(1/r_max)
    horizon bias that a bare sign check of w(r_max) carries, which is what
    makes the critical-datum refinement horizon-robust.  The state is the
    last sample row's, read off the dense output.
    """
    m = traj.spec.m
    last = traj.state(-1)
    return last.lap(m - 1) + last.r * last.lap_deriv(m - 1)


def _entire(traj: Trajectory) -> bool:
    """Critical-datum classifier: is_entire is not enough, since a
    supercritical trajectory can outlive the horizon; w_inf must stay > 0."""
    return is_entire(traj) and lap_limit_estimate(traj) > 0.0


class Probe(NamedTuple):
    """One evaluation: the end it replaces, an optional finite residual
    (> 0 on the lo side, <= 0 on the hi side) and what the caller keeps."""

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


def refine_bracket(evaluate: Callable[[float], Probe], b: Bracket, tol: float,
                   stop: Optional[Callable[[Bracket], bool]] = None) -> Bracket:
    """Shrink b in place until its width is <= tol or stop(b) holds.

    A round evaluates Illinois false position when both ends carry a
    residual (Dowell & Jarratt 1971), else the zero of the secant through
    the two latest lo-side residuals (once per new lo-side point, if within
    tol/2 of the bracket), else the midpoint, clamped tol/2 inside so that a
    converged estimate steps across the root.  After two guesses in a row
    that fail to halve the width a round bisects (Brent 1973).
    """
    f = {True: b.at_lo.residual, False: b.at_hi.residual}  # Illinois weights
    lo_points = [(b.lo, f[True])] if f[True] is not None else []
    secant_after, last_side, stalls = 2, None, 0
    while b.width > tol and not (stop is not None and stop(b)):
        width = b.width
        x = mid = 0.5 * (b.lo + b.hi)
        if stalls < 2 and None not in (f[True], f[False]) and f[True] != f[False]:
            x = b.lo + width * f[True] / (f[True] - f[False])
        elif stalls < 2 and len(lo_points) >= secant_after:
            (x1, f1), (x2, f2) = lo_points[-2:]
            secant_after = len(lo_points) + 1  # once per new lo-side point
            guess = x2 - f2 * (x2 - x1) / (f2 - f1) if f1 != f2 else x
            if b.lo - tol / 2 <= guess <= b.hi + tol / 2:  # else bisect
                x = guess
        x = min(max(x, b.lo + tol / 2), b.hi - tol / 2)
        probe = evaluate(x)
        b.rounds += 1
        side = probe.lo_side
        if side:
            b.lo, b.at_lo = x, probe
            if probe.residual is not None:
                lo_points.append((x, probe.residual))
        else:
            b.hi, b.at_hi = x, probe
        if side == last_side and f[not side] is not None:
            f[not side] *= 0.5  # Illinois: an end kept twice weighs half
        f[side], last_side = probe.residual, side
        # a midpoint halves the width, though rounding may leave it a hair
        # over; only a guess that fails to halve it is a stall
        stalls = stalls + 1 if b.width > 0.5 * width and x != mid else 0
    return b


class EpsCache:
    """JSON map from (k, integrator config, bracket_tol) to a critical bracket
    and its entire-side volume and residual.  Writes hold an exclusive
    ``flock`` on ``critical_eps.json.lock`` and go through a temp file and a
    rename, so parallel table builders neither corrupt it nor lose entries."""

    SCHEMA = 8  # 8: the origin series from _series at r0 = 0
    FIELDS = ("eps_star", "eps_lo", "eps_hi", "precision", "volume", "volume_err",
              "delta2_at_horizon", "partial_integral")

    def __init__(self, directory):
        self.path = Path(directory) / "critical_eps.json"

    @staticmethod
    def key(k: float, cfg: IntegratorConfig, bracket_tol: float) -> str:
        """Every IntegratorConfig field plus k and bracket_tol, numbers as floats."""
        fields = {name: float(v) if isinstance(v, (int, float)) else v
                  for name, v in asdict(cfg).items()}
        return json.dumps({"m": 3, "k": float(k), "bracket_tol": float(bracket_tol),
                           **fields}, sort_keys=True)

    def _load(self) -> dict:
        try:
            with open(self.path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return {}
        return data.get("entries", {}) if data.get("schema") == self.SCHEMA else {}

    def get(self, key: str):
        return self._load().get(key)

    def put(self, key: str, value: dict):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(str(self.path) + ".lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
            entries = self._load()
            entries[key] = value
            payload = {"schema": self.SCHEMA, "entries": entries}
            fd, tmp = tempfile.mkstemp(dir=self.path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(payload, fh, indent=1, sort_keys=True)
                os.replace(tmp, self.path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)


@dataclass
class CriticalEps:
    """Refined bracket [eps_lo, eps_hi] for the critical second datum at fixed
    k, with the volume (and its error estimate) and the critical-balance
    residual (see EpsResidual) of the entire end eps_lo; a cache hit reads
    these from the entry and carries no trajectories.  precision is that of
    the config the solve ran with."""

    k: float
    eps_lo: float
    eps_hi: float
    eps_star: float
    width: float
    horizon_used: float
    iterations: int
    bracket_tol: float
    precision: str
    volume: float
    volume_err: float
    delta2_at_horizon: float
    partial_integral: float
    cache_hit: bool = False
    traj_lo: Optional[Trajectory] = field(default=None, repr=False)
    traj_hi: Optional[Trajectory] = field(default=None, repr=False)

    @property
    def eps_cap(self) -> float:
        return math.sqrt(6.0 * self.k / 5.0)


def critical_eps(k: float, cfg: Optional[IntegratorConfig] = None,
                 bracket_tol: float = 1e-6, *, k_min: float = DEFAULT_K_MIN,
                 cache: Optional[EpsCache] = None) -> CriticalEps:
    """Locate the critical second datum of the m=3 problem at fixed k.

    Starts from the bracket imposed by theory: eps=0 must integrate entire
    (BracketFailure otherwise, signalling k below the large-k regime at
    this horizon) and eps=sqrt(6k/5) must not (BracketFailure: horizon too
    short).  refine_bracket closes it to bracket_tol, with w_inf of every
    trajectory passing is_entire as the residual; bracket_tol must be
    positive and finite (ValueError).  Every integration runs
    at cfg.precision; for a bracket_tol near the rounding width of eps,
    pass precision="extended" in cfg.
    """
    if k < k_min:
        raise ValueError(f"k={k} below configured k_min={k_min}")
    if not (math.isfinite(bracket_tol) and bracket_tol > 0):
        raise ValueError(f"bracket_tol must be positive and finite, got {bracket_tol}")
    cfg = cfg if cfg is not None else default_config(3)
    spec = EquationSpec.for_order(3)
    eps_cap = math.sqrt(6.0 * k / 5.0)

    key = EpsCache.key(k, cfg, bracket_tol)
    hit = cache.get(key) if cache is not None else None
    if hit is not None:
        return CriticalEps(k=k, width=hit["eps_hi"] - hit["eps_lo"],
                           horizon_used=cfg.r_max, iterations=0, bracket_tol=bracket_tol,
                           cache_hit=True, **{name: hit[name] for name in EpsCache.FIELDS})

    def evaluate(eps):
        traj = integrate(spec, jet_m3(k, eps), cfg)
        w_inf = lap_limit_estimate(traj) if is_entire(traj) else None
        return Probe(w_inf is not None and w_inf > 0.0, w_inf, traj)

    b = Bracket(0.0, eps_cap, evaluate(0.0), evaluate(eps_cap))
    if not b.at_lo.lo_side:
        raise BracketFailure(
            f"eps=0 does not integrate entire at k={k}, horizon {cfg.r_max}: k is "
            f"below the large-k regime for this horizon ({b.at_lo.payload.verdict})")
    if b.at_hi.lo_side:
        raise BracketFailure(
            f"eps=sqrt(6k/5)={eps_cap:.6g} still classifies entire at "
            f"horizon {cfg.r_max}: horizon too short")

    refine_bracket(evaluate, b, bracket_tol)

    v_lo = volume(spec, b.at_lo.payload)
    delta2, partial = _critical_balance(b.at_lo.payload)
    result = CriticalEps(
        k=k, eps_lo=b.lo, eps_hi=b.hi, eps_star=0.5 * (b.lo + b.hi), width=b.width,
        horizon_used=cfg.r_max, iterations=b.rounds, bracket_tol=bracket_tol,
        precision=cfg.precision, volume=v_lo.total, volume_err=v_lo.err_estimate,
        delta2_at_horizon=delta2, partial_integral=partial,
        traj_lo=b.at_lo.payload, traj_hi=b.at_hi.payload)
    if cache is not None:
        cache.put(key, {name: getattr(result, name) for name in EpsCache.FIELDS})
    return result


@dataclass(frozen=True)
class EpsResidual:
    """How far the entire-side trajectory is from the critical balance.

    At the critical datum the top Laplacian drains to zero at infinity;
    equivalently the normalised source integral reaches one.  Both
    quantities are reported: delta2_at_horizon straight from the state,
    partial_integral from an independent quadrature of the dense output.
    """

    delta2_at_horizon: float
    partial_integral: float
    eps_used: float
    horizon: float


def _critical_balance(traj: Trajectory) -> tuple:
    """(Lap^2 u at the horizon, normalised source integral) of an m=3 trajectory.

    The source integral int_0^R t^-2 int_0^t s^2 u^-3 ds dt over the
    dense output's range [0, R] is, with the order of integration swapped
    (int_s^R t^-2 dt = 1/s - 1/R), the single integral
    int_0^R s (1 - s/R) u^-3 ds, taken by dense_quadrature.
    """
    r_hi = traj.dense.r_hi
    partial, _ = dense_quadrature(traj, lambda dr, r, u: dr * r * (1.0 - r / r_hi) * u ** -3.0)
    return traj.state(-1).lap(2), partial


def critical_eps_residual(ce: CriticalEps,
                          cfg: Optional[IntegratorConfig] = None) -> EpsResidual:
    """Critical-balance residual at the entire bracket end.

    Read from ce (computed by the solve, or stored in its cache entry) when
    cfg's horizon is within the solve's; a longer horizon re-integrates the
    entire end there.
    """
    cfg = cfg if cfg is not None else default_config(3)
    if cfg.r_max <= ce.horizon_used:
        delta2, partial, horizon = ce.delta2_at_horizon, ce.partial_integral, ce.horizon_used
    else:
        traj = integrate(EquationSpec.for_order(3), jet_m3(ce.k, ce.eps_lo), cfg)
        (delta2, partial), horizon = _critical_balance(traj), traj.r_end
    return EpsResidual(delta2_at_horizon=delta2, partial_integral=partial,
                       eps_used=ce.eps_lo, horizon=float(horizon))


def collapse_boundary_m2(cfg: Optional[IntegratorConfig] = None,
                         tol_b: float = 1e-3, delta: float = 0.1) -> float:
    """Locate the collapse boundary of the fourth-order problem in rho.

    Bisects rho over [-(u0(0)) + delta, 0] on the entire/collapse verdict
    (refine_bracket without residuals); theory puts the boundary at 0, so
    the estimate must land in [-tol_b, 0].  A parameter below -tol_b that
    classifies entire raises HorizonTooShort with a horizon estimate
    extrapolated from the decay of the Laplacian gap.
    """
    cfg = cfg if cfg is not None else default_config(2)
    spec = EquationSpec.for_order(2)
    profile = oracle.linear_profile()

    def evaluate(rho, guard=True):
        traj = integrate(spec, jet_m2(rho), cfg)
        entire = is_entire(traj)
        if entire and guard and rho < -tol_b:
            gap = profile.eval(traj.r_end, 2) - traj.state(-1).lap(1)
            required = 2.0 / gap if gap > 0 else float("inf")
            raise HorizonTooShort(
                f"rho={rho:.6g} < -tol_b classified entire at horizon "
                f"{cfg.r_max:g}; estimated required horizon ~{required:.3g}",
                required_horizon=required)
        return Probe(not entire, None, traj)

    lo = -profile.eval(0.0, 0) + delta
    if not lo < 0:
        raise ValueError("delta must leave a negative bracket")
    at_hi = evaluate(0.0)
    if at_hi.lo_side:
        raise BracketFailure(
            f"rho=0 failed to classify entire at horizon {cfg.r_max}")
    at_lo = evaluate(lo, guard=False)
    if not at_lo.lo_side:
        raise BracketFailure(f"rho={lo:.4g} classified entire; widen delta")
    b = refine_bracket(evaluate, Bracket(lo, 0.0, at_lo, at_hi), tol_b)
    return 0.5 * (b.lo + b.hi)


@dataclass
class VolumeSolve:
    """Result of a prescribed-volume solve."""

    target: float
    param: object            # rho for m=2, (k, eps) for m=3
    achieved: float
    iterations: int
    monotone_observed: bool = True
    multi_root_flag: bool = False
    k_used: Optional[float] = None

    @property
    def rel_err(self) -> float:
        return abs(self.achieved - self.target) / self.target


def prescribe_volume(spec: EquationSpec, target: float,
                     cfg: Optional[IntegratorConfig] = None, *,
                     rel_tol_target: float = 1e-3, cache: Optional[EpsCache] = None,
                     bracket_tol: float = 1e-6, table_k=DEFAULT_TABLE_K) -> VolumeSolve:
    """Find initial data whose trajectory has the prescribed volume.

    m=2: solves V(rho) = target for rho >= 0 (V decreasing from the
    critical volume toward 0); targets above the critical volume raise
    TargetOutOfRange.  m=3: picks the smallest tabulated k whose
    near-critical volume reaches the target, then moves the second datum
    up from the critical one (volume decreasing to 0); targets beyond the
    largest tabulated k raise TableExhausted.  Both then double the
    parameter until V < target and refine log(V / target), until the
    volume is within rel_tol_target (positive and finite, ValueError
    otherwise) of the target.
    """
    if not (math.isfinite(rel_tol_target) and rel_tol_target > 0):
        raise ValueError(f"rel_tol_target must be positive and finite, got {rel_tol_target}")
    if not target > 0:
        raise TargetOutOfRange(f"volume target must be positive, got {target}")
    cfg = cfg if cfg is not None else default_config(spec.m)
    evaluated = []

    def point(v):  # on a decreasing volume map: lo side while V >= target
        return Probe(v >= target, math.log(v / target), v)

    def close(p):
        return abs(p.payload - target) / target <= rel_tol_target

    def evaluate(x):  # jet_of is set per order below
        evaluated.append(x)
        return point(volume_of_jet(spec, jet_of(x), cfg).total)

    def scan_down(scan, x, limit):
        while scan[-1][1].lo_side:
            if x > limit:
                raise PolyshootError("volume failed to drop below target")
            scan.append((x, evaluate(x)))
            x *= 2.0
        return scan

    def solve(lo_end, hi_end):
        (lo, at_lo), (hi, at_hi) = lo_end, hi_end
        b = refine_bracket(evaluate, Bracket(lo, hi, at_lo, at_hi),
                           1e-12 * max(1.0, abs(lo), abs(hi)),  # floor; close() ends it
                           stop=lambda b: close(b.at_lo) or close(b.at_hi))
        x, best = (b.lo, b.at_lo) if close(b.at_lo) else (b.hi, b.at_hi)
        if not close(best):
            raise PolyshootError(
                f"volume solve failed to reach {rel_tol_target:.1e} relative "
                f"(best {best.payload:.6g} vs target {target:.6g})")
        return x, best.payload

    if spec.m == 2:
        jet_of = jet_m2
        p0 = evaluate(0.0)
        if target > p0.payload * (1.0 + rel_tol_target):
            raise TargetOutOfRange(
                f"target {target:.6g} above the critical volume {p0.payload:.6g}")
        if close(p0):
            return VolumeSolve(target=target, param=0.0, achieved=p0.payload,
                               iterations=len(evaluated))
        scan = scan_down([(0.0, p0)], 1.0, 1e6)
        monotone = all(b.payload < a.payload for (_, a), (_, b) in zip(scan, scan[1:]))
        ends = scan[-2:]
        if not monotone:
            # non-monotone scan: refine to the first bracketing interval
            grid = [(g, evaluate(g)) for g in np.linspace(0.0, scan[-1][0], 17)[1:]]
            grid.insert(0, (0.0, p0))
            ends = next(((a, b) for a, b in zip(grid, grid[1:])
                         if (a[1].payload - target) * (b[1].payload - target) <= 0), ends)
        rho, achieved = solve(*ends)
        return VolumeSolve(target=target, param=rho, achieved=achieved,
                           iterations=len(evaluated), monotone_observed=monotone,
                           multi_root_flag=not monotone)

    # m=3: two-level strategy through the critical table
    for k in table_k:
        ce = critical_eps(k, cfg, bracket_tol, cache=cache)
        if ce.volume >= target:
            break
    else:
        raise TableExhausted(
            f"target {target:.6g} above the largest tabulated near-critical "
            f"volume; extend table_k beyond {table_k[-1]}")
    def jet_of(s):  # V decreases in the second jet slot s = -eps
        return jet_m3(k, -s)

    scan = scan_down([(-ce.eps_lo, point(ce.volume))], max(1.0, 2.0 * ce.eps_lo), 1e9)
    s, achieved = solve(*scan[-2:])
    return VolumeSolve(target=target, param=(k, -s), achieved=achieved,
                       iterations=len(evaluated), k_used=k)


def smallest_valid_k(cfg: Optional[IntegratorConfig] = None,
                     k_grid=tuple(range(1, 11))) -> tuple:
    """Measure the smallest k whose theoretical bracket is valid here.

    The large-k threshold of the theory is not explicit; this scans a k
    grid and reports (smallest valid k, per-k detail) at the configured
    horizon, where valid means eps=0 entire and eps=sqrt(6k/5) not.
    """
    cfg = cfg if cfg is not None else default_config(3)
    spec = EquationSpec.for_order(3)
    detail = []
    for k in k_grid:
        lo_ok = _entire(integrate(spec, jet_m3(k, 0.0), cfg))
        hi_ok = not _entire(integrate(spec, jet_m3(k, math.sqrt(6.0 * k / 5.0)), cfg))
        detail.append({"k": k, "eps0_entire": lo_ok,
                       "cap_collapses": hi_ok, "valid": lo_ok and hi_ok})
    return next((d["k"] for d in detail if d["valid"]), None), detail
