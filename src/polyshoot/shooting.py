"""Root-finding layers over the integrator.

Three shooting problems are solved by bisection on trajectory
classifications:

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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.integrate import cumulative_simpson

from . import oracle
from .core import Collapsed, EntirePositive, EquationSpec, Jet, Trajectory
from .errors import (
    BracketFailure,
    HorizonTooShort,
    TableExhausted,
    TargetOutOfRange,
    PolyshootError,
)
from .integrator import IntegratorConfig, integrate
from .volume import volume, volume_of_jet

__all__ = [
    "default_config",
    "is_entire",
    "lap_limit_estimate",
    "CriticalEps",
    "critical_eps",
    "EpsResidual",
    "critical_eps_residual",
    "collapse_boundary_m2",
    "VolumeSolve",
    "prescribe_volume",
    "smallest_valid_k",
    "EpsCache",
]

DEFAULT_K_MIN = 5.0
DEFAULT_TABLE_K = (10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0)


def default_config(m: int, **overrides) -> IntegratorConfig:
    """Per-order defaults: horizon 1e3 for m=2, 1e2 for m=3."""
    kw = {"r_max": 1e3 if m == 2 else 1e2}
    kw.update(overrides)
    return IntegratorConfig(**kw)


def is_entire(traj: Trajectory) -> bool:
    """Horizon reached, u above floor, and Lap^{m-1} u positive throughout."""
    if not isinstance(traj.verdict, EntirePositive):
        return False
    m = traj.spec.m
    if np.min(traj.y[:, 2 * (m - 1)]) <= 0.0:
        return False
    return not any(ev.kind == "lap_sign_change" and ev.level == m - 1
                   for ev in traj.events)


def lap_limit_estimate(traj: Trajectory) -> float:
    """Extrapolated infinite-radius limit of the top Laplacian slot.

    The top slot obeys w(r) = w_inf + I/r + O(r^-7) where I is the
    (finite) total source integral, so w + r w' evaluated at the horizon
    estimates w_inf with O(r^-7) error.  This removes the O(1/r_max)
    horizon bias that a bare sign check of w(r_max) carries, which is what
    makes the critical-datum bisection horizon-robust.
    """
    m = traj.spec.m
    w = float(traj.y[-1, 2 * (m - 1)])
    wp = float(traj.y[-1, 2 * (m - 1) + 1])
    return w + float(traj.r[-1]) * wp


def _divergence_radius(t1: Trajectory, t2: Trajectory, rel: float = 0.05):
    """First common radius where the u-components differ by `rel` relatively."""
    n = min(len(t1), len(t2))
    if n == 0:
        return None
    u1, u2 = t1.u[:n], t2.u[:n]
    bad = np.abs(u1 - u2) > rel * (1.0 + np.minimum(np.abs(u1), np.abs(u2)))
    idx = np.flatnonzero(bad)
    return float(t1.r[idx[0]]) if idx.size else None


class EpsCache:
    """JSON-backed map from (m, k, horizon, tol) to (eps_star, volume).

    Writes are serialised by an exclusive ``flock`` on
    ``critical_eps.json.lock`` and performed atomically (temp file +
    rename), so parallel table builders neither corrupt it nor lose entries.
    """

    SCHEMA = 1

    def __init__(self, directory):
        self.path = Path(directory) / "critical_eps.json"

    @staticmethod
    def key(k: float, cfg: IntegratorConfig, bracket_tol: float) -> str:
        return (f"m=3|k={k:g}|horizon={cfg.r_max:g}|bracket_tol={bracket_tol:g}"
                f"|rel_tol={cfg.rel_tol:g}|precision={cfg.precision}")

    def _load(self) -> dict:
        try:
            with open(self.path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return {}
        if data.get("schema") != self.SCHEMA:
            return {}
        return data.get("entries", {})

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
    """Bisection result for the critical second datum at fixed k."""

    k: float
    eps_lo: float
    eps_hi: float
    eps_star: float
    width: float
    horizon_used: float
    iterations: int
    bracket_tol: float
    precision: str
    cache_hit: bool = False
    traj_lo: Optional[Trajectory] = field(default=None, repr=False)
    traj_hi: Optional[Trajectory] = field(default=None, repr=False)

    @property
    def eps_cap(self) -> float:
        return math.sqrt(6.0 * self.k / 5.0)


def _jet_m3(k: float, eps: float) -> Jet:
    return Jet((k, -eps, 1.0))


def critical_eps(k: float, cfg: Optional[IntegratorConfig] = None,
                 bracket_tol: float = 1e-6, *, k_min: float = DEFAULT_K_MIN,
                 cache: Optional[EpsCache] = None,
                 extended_retry_width: float = 1e-10) -> CriticalEps:
    """Bisect for the critical second datum of the m=3 problem at fixed k.

    Starts from the bracketimposed by theory: eps=0 must integrate entire
    (BracketFailure otherwise, signalling k below the large-k regime at
    this horizon) and eps=sqrt(6k/5) must not (BracketFailure: horizon too
    short).  When the two bracket trajectories diverge before a tenth of
    the horizon while the bracket is already at rounding width, the
    bisection restarts the endpoint integrations in extended precision.
    """
    if k < k_min:
        raise ValueError(f"k={k} below configured k_min={k_min}")
    if not bracket_tol > 0:
        raise ValueError("bracket_tol must be positive")
    cfg = cfg if cfg is not None else default_config(3)
    spec = EquationSpec.for_order(3)
    eps_cap = math.sqrt(6.0 * k / 5.0)

    key = EpsCache.key(k, cfg, bracket_tol)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return CriticalEps(
                k=k, eps_lo=hit["eps_lo"], eps_hi=hit["eps_hi"],
                eps_star=hit["eps_star"], width=hit["eps_hi"] - hit["eps_lo"],
                horizon_used=cfg.r_max, iterations=0, bracket_tol=bracket_tol,
                precision=hit.get("precision", cfg.precision), cache_hit=True)

    def run(eps, config):
        return integrate(spec, _jet_m3(k, eps), config)

    def entire(traj):
        # surviving to the horizon with signs intact is not enough: the
        # extrapolated top-Laplacian limit must stay positive, otherwise a
        # supercritical trajectory that merely outlives the horizon passes
        return is_entire(traj) and lap_limit_estimate(traj) > 0.0

    t_lo = run(0.0, cfg)
    if not entire(t_lo):
        raise BracketFailure(
            f"eps=0 does not integrate entire at k={k}, horizon {cfg.r_max}: "
            f"k is below the large-k regime for this horizon ({t_lo.verdict})")
    t_hi = run(eps_cap, cfg)
    if entire(t_hi):
        raise BracketFailure(
            f"eps=sqrt(6k/5)={eps_cap:.6g} still classifies entire at "
            f"horizon {cfg.r_max}: horizon too short")

    lo, hi = 0.0, eps_cap
    iterations = 0
    while hi - lo > bracket_tol:
        iterations += 1
        if cfg.precision == "double":
            width = hi - lo
            r_div = _divergence_radius(t_lo, t_hi)
            if (width <= extended_retry_width * max(1.0, hi)
                    and r_div is not None and r_div < cfg.r_max / 10.0):
                # bracket at rounding width but trajectories split early:
                # the split is initial-condition rounding noise
                cfg = replace(cfg, precision="extended")
                t_lo = run(lo, cfg)
                t_hi = run(hi, cfg)
                if not (entire(t_lo) and not entire(t_hi)):
                    raise BracketFailure(
                        "bracket classifications did not survive the "
                        "extended-precision retry")
        mid = 0.5 * (lo + hi)
        t_mid = run(mid, cfg)
        if entire(t_mid):
            lo, t_lo = mid, t_mid
        else:
            hi, t_hi = mid, t_mid

    result = CriticalEps(
        k=k, eps_lo=lo, eps_hi=hi, eps_star=0.5 * (lo + hi), width=hi - lo,
        horizon_used=cfg.r_max, iterations=iterations,
        bracket_tol=bracket_tol, precision=cfg.precision,
        traj_lo=t_lo, traj_hi=t_hi)
    if cache is not None:
        vol_lo = volume(spec, t_lo).total
        cache.put(key, {"eps_star": result.eps_star, "eps_lo": lo,
                        "eps_hi": hi, "volume": vol_lo,
                        "precision": cfg.precision})
    return result


@dataclass(frozen=True)
class EpsResidual:
    """How far the entire-side trajectory is from the critical balance.

    At the critical datum the top Laplacian drains to zero at infinity;
    equivalently the normalised source integral reaches one.  Both
    quantities are reported: delta2_at_horizon straight from the state,
    partial_integral from an independent quadrature of the samples.
    """

    delta2_at_horizon: float
    partial_integral: float
    eps_used: float
    horizon: float


def critical_eps_residual(ce: CriticalEps,
                          cfg: Optional[IntegratorConfig] = None) -> EpsResidual:
    """Evaluate the critical-balance residual at the entire bracket end."""
    cfg = cfg if cfg is not None else default_config(3)
    spec = EquationSpec.for_order(3)
    traj = ce.traj_lo
    if traj is None or traj.r_end < cfg.r_max:
        traj = integrate(spec, _jet_m3(ce.k, ce.eps_lo), cfg)
    r, u = traj.r, traj.u
    inner = cumulative_simpson(r * r * u ** -3.0, x=r, initial=0.0)
    q = np.zeros_like(inner)
    q[1:] = inner[1:] / r[1:] ** 2
    partial = float(cumulative_simpson(q, x=r, initial=0.0)[-1])
    return EpsResidual(delta2_at_horizon=float(traj.y[-1, 4]),
                       partial_integral=partial, eps_used=ce.eps_lo,
                       horizon=float(traj.r_end))


def collapse_boundary_m2(cfg: Optional[IntegratorConfig] = None,
                         tol_b: float = 1e-3, delta: float = 0.1) -> float:
    """Locate the collapse boundary of the fourth-order problem in rho.

    Bisects rho over [-(u0(0)) + delta, 0] on the entire/collapse verdict;
    theory puts the boundary exactly at 0, so the returned estimate must
    land in [-tol_b, 0].  A parameter below -tol_b classifying entire
    raises HorizonTooShort with a horizon estimate extrapolated from the
    decay of the Laplacian gap.
    """
    cfg = cfg if cfg is not None else default_config(2)
    spec = EquationSpec.for_order(2)
    profile = oracle.linear_profile()
    u00 = profile.eval(0.0, 0)
    lap00 = profile.eval(0.0, 2)

    def run(rho):
        return integrate(spec, Jet((u00 + rho, lap00)), cfg)

    lo = -u00 + delta
    if not lo < 0:
        raise ValueError("delta must leave a negative bracket")
    t_hi = run(0.0)
    if not is_entire(t_hi):
        raise BracketFailure(
            f"rho=0 failed to classify entire at horizon {cfg.r_max}")
    t_lo = run(lo)
    if is_entire(t_lo):
        raise BracketFailure(f"rho={lo:.4g} classified entire; widen delta")

    hi = 0.0
    while hi - lo > tol_b:
        mid = 0.5 * (lo + hi)
        t_mid = run(mid)
        if is_entire(t_mid):
            if mid < -tol_b:
                gap = profile.eval(t_mid.r_end, 2) - float(t_mid.y[-1, 2])
                required = 2.0 / gap if gap > 0 else float("inf")
                raise HorizonTooShort(
                    f"rho={mid:.6g} < -tol_b classified entire at horizon "
                    f"{cfg.r_max:g}; estimated required horizon ~{required:.3g}",
                    required_horizon=required)
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


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


def _bisect_volume(vol_at, lo, hi, v_lo, v_hi, target, rel_tol, max_iter=200):
    """Bisect a decreasing volume map until the relative target tolerance."""
    best = (lo, v_lo) if abs(v_lo - target) < abs(v_hi - target) else (hi, v_hi)
    iterations = 0
    for _ in range(max_iter):
        if abs(best[1] - target) / target <= rel_tol:
            return best[0], best[1], iterations
        mid = 0.5 * (lo + hi)
        v_mid = vol_at(mid)
        iterations += 1
        if abs(v_mid - target) < abs(best[1] - target):
            best = (mid, v_mid)
        if v_mid >= target:
            lo, v_lo = mid, v_mid
        else:
            hi, v_hi = mid, v_mid
    raise PolyshootError(
        f"volume bisection failed to reach {rel_tol:.1e} relative after "
        f"{max_iter} iterations (best {best[1]:.6g} vs target {target:.6g})")


def prescribe_volume(spec: EquationSpec, target: float,
                     cfg: Optional[IntegratorConfig] = None, *,
                     rel_tol_target: float = 1e-3,
                     cache: Optional[EpsCache] = None,
                     bracket_tol: float = 1e-6,
                     table_k=DEFAULT_TABLE_K) -> VolumeSolve:
    """Find initial data whose trajectory has the prescribed volume.

    m=2: solves V(rho) = target for rho >= 0 (V decreasing from the
    critical volume toward 0); targets above the critical volume raise
    TargetOutOfRange.  m=3: picks the smallest tabulated k whose
    near-critical volume reaches the target, then bisects the second datum
    upward from the critical one (volume decreasing to 0); targets beyond
    the largest tabulated k raise TableExhausted.
    """
    if not target > 0:
        raise TargetOutOfRange(f"volume target must be positive, got {target}")
    cfg = cfg if cfg is not None else default_config(spec.m)

    if spec.m == 2:
        profile = oracle.linear_profile()
        u00, lap00 = profile.eval(0.0, 0), profile.eval(0.0, 2)
        evaluations = 0

        def vol_at(rho):
            nonlocal evaluations
            evaluations += 1
            return volume_of_jet(spec, Jet((u00 + rho, lap00)), cfg).total

        v0 = vol_at(0.0)
        if target > v0 * (1.0 + rel_tol_target):
            raise TargetOutOfRange(
                f"target {target:.6g} above the critical volume {v0:.6g}")
        if abs(v0 - target) / target <= rel_tol_target:
            return VolumeSolve(target=target, param=0.0, achieved=v0,
                               iterations=evaluations)
        scan = [(0.0, v0)]
        rho_hi, v_hi = 1.0, vol_at(1.0)
        scan.append((rho_hi, v_hi))
        while v_hi > target:
            rho_hi *= 2.0
            v_hi = vol_at(rho_hi)
            scan.append((rho_hi, v_hi))
            if rho_hi > 1e6:
                raise PolyshootError("volume failed to drop below target")
        monotone = all(b[1] < a[1] for a, b in zip(scan, scan[1:]))
        multi_root = False
        lo, v_lo = scan[-2] if len(scan) >= 2 else (0.0, v0)
        if not monotone:
            # non-monotone scan: refine to the first bracketing interval
            multi_root = True
            grid = np.linspace(0.0, rho_hi, 17)
            vals = [v0] + [vol_at(g) for g in grid[1:]]
            for a, b, va, vb in zip(grid, grid[1:], vals, vals[1:]):
                if (va - target) * (vb - target) <= 0:
                    lo, v_lo, rho_hi, v_hi = a, va, b, vb
                    break
        rho, achieved, _ = _bisect_volume(vol_at, lo, rho_hi, v_lo, v_hi,
                                          target, rel_tol_target)
        return VolumeSolve(target=target, param=rho, achieved=achieved,
                           iterations=evaluations,
                           monotone_observed=monotone,
                           multi_root_flag=multi_root)

    # m=3: two-level strategy through the critical table
    chosen = None
    for k in table_k:
        ce = critical_eps(k, cfg, bracket_tol, cache=cache)
        traj_lo = ce.traj_lo
        if traj_lo is None:
            traj_lo = integrate(spec, _jet_m3(k, ce.eps_lo), cfg)
        v_crit = volume(spec, traj_lo).total
        if v_crit >= target:
            chosen = (k, ce, v_crit)
            break
    if chosen is None:
        raise TableExhausted(
            f"target {target:.6g} above the largest tabulated near-critical "
            f"volume; extend table_k beyond {table_k[-1]}")
    k, ce, v_crit = chosen
    evaluations = 0

    def vol_at(s):
        nonlocal evaluations
        evaluations += 1
        return volume_of_jet(spec, Jet((k, s, 1.0)), cfg).total

    s_lo, v_lo = -ce.eps_lo, v_crit
    s_hi = max(1.0, abs(s_lo) * 2.0)
    v_hi = vol_at(s_hi)
    while v_hi > target:
        s_hi *= 2.0
        v_hi = vol_at(s_hi)
        if s_hi > 1e9:
            raise PolyshootError("volume failed to drop below target")
    s, achieved, _ = _bisect_volume(vol_at, s_lo, s_hi, v_lo, v_hi,
                                    target, rel_tol_target)
    return VolumeSolve(target=target, param=(k, -s), achieved=achieved,
                       iterations=evaluations, k_used=k)


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
    smallest = None
    for k in k_grid:
        t0 = integrate(spec, _jet_m3(k, 0.0), cfg)
        lo_ok = is_entire(t0) and lap_limit_estimate(t0) > 0.0
        t1 = integrate(spec, _jet_m3(k, math.sqrt(6.0 * k / 5.0)), cfg)
        hi_ok = not (is_entire(t1) and lap_limit_estimate(t1) > 0.0)
        valid = lo_ok and hi_ok
        detail.append({"k": k, "eps0_entire": lo_ok,
                       "cap_collapses": hi_ok, "valid": valid})
        if valid and smallest is None:
            smallest = k
    return smallest, detail
