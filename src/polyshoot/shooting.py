"""Root-finding layers over the integrator.

Two shooting problems are solved from a seed, one doubling scan from it
(_scan) to the first bracket about the root, and integrator.refine_bracket
(Brent's zeroin, which also locates the integrator's events) over
trajectory classifications and residuals:

  * critical_eps: the largest second datum eps for which the sixth-order
    problem (m=3, jet (k, -eps, 1)) stays entire, at every k > 0,
  * prescribe_volume: parameters achieving a requested conformal volume.

The fourth-order problem's collapse boundary in rho (jet_m2) needs no
solve: theory puts it at 0, where the linear-growth profile is entire
with the critical volume lambda*, and a run at rho < 0 is certified not
entire once its horizon is long enough.  Acceptance criteria 2-4 check
both sides, and so does the CI line that shoots rho = -1e-3.

"Entire" is operational: the trajectory reaches the horizon with u above
the collapse floor, the top Laplacian slot w = Lap^{m-1} u positive
throughout (the quantity whose positivity characterises entire solutions
for both orders), and no certificate that it is not entire.  The
certificate (integrate) reads E = w + r w', which falls strictly (dE/dr =
-r u^p) toward w's limit w_inf: E < -tau, tau set by rel_tol, proves w_inf
< 0, and the run is TopZero.  So a run just past a critical datum, whose w
stays positive to the horizon, is not entire.
"""

from __future__ import annotations

import fcntl
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from . import oracle
from .core import EntirePositive, EquationSpec, Jet, TopZero, Trajectory
from .errors import BracketFailure, PolyshootError, TargetOutOfRange
from .integrator import (Bracket, IntegratorConfig, Probe, _stop_width, _tail_limit, integrate,
                         refine_bracket)
from .volume import dense_quadrature, volume, volume_of_jet

__all__ = ["default_config", "jet_m2", "jet_m3", "is_entire", "lap_limit_estimate",
           "CriticalEps", "critical_eps",
           "critical_eps_residual",
           "VolumeSolve", "prescribe_volume", "EpsCache"]

# the solvers' default tolerances, which the CLI's flags default to
BRACKET_TOL = 1e-6
VOLUME_REL_TOL = 1e-3


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
    """Horizon reached with an EntirePositive verdict (u above floor, no
    certificate that the run is not entire), and Lap^{m-1} u positive
    throughout.

    The top slot w = Lap^{m-1} u falls strictly (w' = -r^-2 int s^2 u^p <
    0), so its least value is the one at the horizon, the end state
    (Trajectory.end); a run whose w fell through zero on the way, or whose
    E = w + r w' fell below -tau, is TopZero, not EntirePositive, whether
    it stopped there or not.
    """
    return (isinstance(traj.verdict, EntirePositive)
            and traj.end.lap(traj.spec.m - 1) > 0.0)


def lap_limit_estimate(traj: Trajectory) -> float:
    """Extrapolated infinite-radius limit w_inf of the top Laplacian slot.

    E = w + r w' falls strictly, dE/dr = -r u^p, to w_inf, so E(R) =
    w_inf + int_R^inf s u^p ds: it removes the O(1/R) horizon bias that a
    bare sign check of w(R) carries, which is what makes the critical-datum
    refinement horizon-robust, and bounds w_inf from above.  Its own bias
    is that tail integral, about 1.7e-13 at R = 100 near eps*(10).  The
    estimate is E less the tail of the local power law (integrator's
    _tail_limit), or E itself where that tail diverges (u ~ r^gamma with
    -p gamma <= 2: growing too slowly, or falling toward a collapse).  The
    state is the end state (Trajectory.end): at the horizon, at the step
    end where a stopped run's estimate settled, or at the zero r0 of w
    where a stopped run ended (TopZero), there r0 w'(r0) < 0.
    """
    m, end = traj.spec.m, traj.end
    hat = _tail_limit(traj.spec.rhs_exponent, end.r, end.y)
    return end.lap(m - 1) + end.r * end.lap_deriv(m - 1) if hat is None else hat


def atomic_write(path: Path, text):
    """Replace path by text, a str or an iterable of str, through a temp file
    and a rename; makes its parents."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class EpsCache:
    """JSON map from (k, integrator config, bracket_tol) to a critical bracket
    and its entire-side volume and residual.  Writes hold an exclusive
    ``flock`` on ``critical_eps.json.lock`` and go through a temp file and a
    rename, so parallel solves neither corrupt it nor lose entries.
    A file that cannot be read, or holds JSON of another shape, is empty,
    and an entry that is not a map of every FIELDS key to a finite number
    (json reads NaN and Infinity) is a miss; the next put rewrites either.
    The key holds the precision."""

    SCHEMA = 15  # 15: keys without u_floor and max_steps, now integrator constants
    FIELDS = ("eps_lo", "eps_hi", "volume", "volume_err", "delta2_at_horizon",
              "partial_integral")

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
        except (OSError, ValueError):  # JSONDecodeError and UnicodeDecodeError too
            return {}
        current = isinstance(data, dict) and data.get("schema") == self.SCHEMA
        entries = data.get("entries") if current else None
        return entries if isinstance(entries, dict) else {}

    def get(self, key: str):
        entry = self._load().get(key)
        numbers = isinstance(entry, dict) and all(
            type(entry.get(name)) in (int, float) and math.isfinite(entry[name])
            for name in self.FIELDS)
        return entry if numbers else None

    def put(self, key: str, value: dict):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(str(self.path) + ".lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
            entries = self._load()
            entries[key] = value
            atomic_write(self.path, json.dumps({"schema": self.SCHEMA, "entries": entries},
                                               indent=1, sort_keys=True))


@dataclass
class CriticalEps:
    """Refined bracket [eps_lo, eps_hi] for the critical second datum at fixed
    k (below eps_cap, and below 0 under k ~ 1.6198), with the volume (and its
    error estimate) and the critical balance of the entire end eps_lo at the
    horizon: at the critical datum the top Laplacian drains to zero at
    infinity, and the normalised source integral reaches one, so
    delta2_at_horizon is Lap^2 u there, and partial_integral that integral,
    from a quadrature of the dense output (_critical_balance).  A cache hit
    reads these from the entry and carries no trajectories.  precision is that
    of the config the solve ran with.  iterations counts the rounds of
    refine_bracket, not the probes of the scan that opened the bracket: 0 on a
    cache hit, and on a cold solve whose scan's two probes already bracket
    eps* within bracket_tol.  traj_lo runs to the horizon; traj_hi is a
    TopZero run that ended where it was certified not entire (_eps_probe; a
    closing probe at its certificate), unless the hi end is entire."""

    k: float
    eps_lo: float
    eps_hi: float
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
    def eps_star(self) -> float:
        return 0.5 * (self.eps_lo + self.eps_hi)

    @property
    def width(self) -> float:
        return self.eps_hi - self.eps_lo

    @property
    def eps_cap(self) -> float:
        return math.sqrt(6.0 * self.k / 5.0)


# A probe's limit estimate has settled once it moves by at most _SETTLE of
# itself over a step: at k = 10, 20 and 40 (bracket_tol 1e-6) 277 accepted
# steps, not 350, and no more probes than runs to w's zero or the horizon.
_SETTLE = 1e-3


def _eps_probe(spec: EquationSpec, k: float, eps: float, cfg: IntegratorConfig,
               settle: float = _SETTLE) -> Probe:
    """Critical-datum probe, a run that stops (integrate's stop_at_top_zero
    = settle) once it is certified not entire, E = w + r w' < -tau, and its
    limit estimate has settled (at once for settle = inf), or else at w's
    first zero, instead of stepping on to the horizon or into a collapse.
    It carries the residual h = 1/sqrt(1 - w_inf) - 1, w_inf =
    lap_limit_estimate at its end: at the horizon of an EntirePositive run,
    at the stop of a TopZero one, where it is at most E < 0 and so h < 0 (E
    itself where the tail diverges, as at w's zero r0 in a run that
    collapses: r0 w'(r0)), which changes little with where a settled stop
    falls.  h is finite as w' < 0 gives w_inf < w(0) = 1 (kept so where 1 -
    w_inf rounds to 0, from k near 1e8).  The probe is on the lo side iff
    it is EntirePositive with h > 0, which implies is_entire.  A TopZero run
    whose h reads > 0 (k just under the collapse floor) carries none, nor
    does an Inconclusive run or a collapse, which reaches w's zero first."""
    traj = integrate(spec, jet_m3(k, eps), cfg, stop_at_top_zero=settle)
    if not isinstance(traj.verdict, (EntirePositive, TopZero)):
        return Probe(False, None, traj)
    h = 1.0 / math.sqrt(max(1.0 - lap_limit_estimate(traj), math.ulp(0.0))) - 1.0
    entire = isinstance(traj.verdict, EntirePositive)
    return Probe(entire and h > 0.0, h if entire or h <= 0.0 else None, traj)


def _scan(evaluate, x0: float, at_x0: Probe, x1: float, limit: float,
          stop=None) -> Optional[Bracket]:
    """The first bracket of a doubling scan from x0, probed as at_x0.

    Probes x1 (on limit's side of x0), then x0 + 2 (x1 - x0), x0 + 4 (x1 -
    x0), ..., each clamped to limit, until a probe lands on the other side
    from at_x0; it and the probe before are the Bracket, the lo-side one
    its lo end.  A probe on x0's side for which stop (a predicate on a
    Probe) holds already answers: the scan ends there, with the Bracket
    [x, x] of width 0.  The limit is probed once: None if it, or x0 =
    limit, reads x0's side."""
    x, at_x, step = x0, at_x0, x1
    while x != limit:
        prev, at_prev = x, at_x
        x = min(step, limit) if x0 < limit else max(step, limit)
        at_x = evaluate(x)
        if at_x.lo_side != at_x0.lo_side:
            return (Bracket(prev, x, at_prev, at_x) if at_prev.lo_side
                    else Bracket(x, prev, at_x, at_prev))
        if stop is not None and stop(at_x):
            return Bracket(x, x, at_x, at_x)
        step = x0 + 2.0 * (step - x0)
    return None


def critical_eps(k: float, cfg: Optional[IntegratorConfig] = None,
                 bracket_tol: float = BRACKET_TOL, *,
                 cache: Optional[EpsCache] = None) -> CriticalEps:
    """Locate the critical second datum of the m=3 problem at fixed k.

    eps* < sqrt(6k/5) at every k > 0, and eps* < 0 below k0 ~ 1.6198
    (eps* k^2 -> -3/2 as k -> 0).  Every solve opens alike: the first probe is
    x0 = law (1 + b), _eps_law and b its stated error, clamped to sqrt(6k/5);
    from k = 10, where the law was fitted, just above eps*, and a positive
    seed below.  The second is one Newton step on x0's residual h0 with the
    slope model dh/deps = -eps, overshot by 2 % to pass eps*,
    x1 = x0 + 1.02 h0 / x0, or b law when x0 carries no residual or one too
    small to move it.  _scan doubles that step toward sqrt(6k/5) from an
    entire x0, else down to the least float; that end probed on x0's side
    raises BracketFailure (the cap: horizon too short; the least float: k
    <= 5e-9, where no run is entire).  refine_bracket closes the bracket to
    bracket_tol, with h as the residual of every probe (_eps_probe).  A probe
    stops once certified not entire, so traj_hi is a TopZero run unless the hi
    end is entire; one within the stopping width (_stop_width) of eps_lo
    closes the bracket if certified, and stops at its certificate.  k and
    bracket_tol must be positive and finite (ValueError, before any
    integration).  Every integration runs at cfg.precision, but eps is a
    Python float: a bracket_tol below its rounding width stops at about 4
    ulp of eps."""
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"k must be positive and finite, got {k}")
    if not (math.isfinite(bracket_tol) and bracket_tol > 0):
        raise ValueError(f"bracket_tol must be positive and finite, got {bracket_tol}")
    cfg = cfg if cfg is not None else default_config(3)
    spec = EquationSpec.for_order(3)
    eps_cap = math.sqrt(6.0 * k / 5.0)

    key = EpsCache.key(k, cfg, bracket_tol)
    hit = cache.get(key) if cache is not None else None
    if hit is not None:
        return CriticalEps(k=k, horizon_used=cfg.r_max, iterations=0, bracket_tol=bracket_tol,
                           precision=cfg.precision, cache_hit=True,
                           **{name: hit[name] for name in EpsCache.FIELDS})

    evaluate = functools.partial(_eps_probe, spec, k, cfg=cfg)
    pred, err = _eps_law(k), _LARGE_K["law_err"]
    x0 = min(pred * (1.0 + err), eps_cap)
    at_x0 = evaluate(x0)
    # one Newton step on h, dh/deps ~ -eps, overshot to land past eps*
    x1 = x0 + _LARGE_K["overshoot"] * (at_x0.residual or 0.0) / x0
    if x1 == x0:  # no residual, or one too small to move x0: scan the law's error
        x1 = x0 + (err if at_x0.lo_side else -err) * pred
    limit = eps_cap if at_x0.lo_side else -sys.float_info.max
    b = _scan(evaluate, x0, at_x0, x1, limit)
    if b is None:  # the scan's end probed on x0's side
        side = "entire: horizon too short" if at_x0.lo_side else "not entire"
        raise BracketFailure(f"the scan's end eps={limit:.6g} still classifies {side} "
                             f"(k={k}, horizon {cfg.r_max})")

    refine_bracket(lambda x: evaluate(x, settle=math.inf if x - b.lo <= _stop_width(
        bracket_tol, b.lo, x) else _SETTLE), b, bracket_tol)

    v_lo = volume(spec, b.at_lo.payload)
    delta2, partial = _critical_balance(b.at_lo.payload)
    result = CriticalEps(
        k=k, eps_lo=b.lo, eps_hi=b.hi, horizon_used=cfg.r_max, iterations=b.rounds,
        bracket_tol=bracket_tol, precision=cfg.precision, volume=v_lo.total,
        volume_err=v_lo.err_estimate, delta2_at_horizon=delta2, partial_integral=partial,
        traj_lo=b.at_lo.payload, traj_hi=b.at_hi.payload)
    if cache is not None:
        cache.put(key, {name: getattr(result, name) for name in EpsCache.FIELDS})
    return result


def _critical_balance(traj: Trajectory) -> tuple:
    """(Lap^2 u at the horizon, normalised source integral) of an m=3 trajectory.

    The source integral int_0^R t^-2 int_0^t s^2 u^-3 ds dt over the
    dense output's range [0, R] is, with the order of integration swapped
    (int_s^R t^-2 dt = 1/s - 1/R), the single integral
    int_0^R s (1 - s/R) u^-3 ds, taken by dense_quadrature.
    """
    r_hi = traj.dense.r_hi
    partial, _ = dense_quadrature(traj, lambda dr, r, u: dr * r * (1.0 - r / r_hi) * u ** -3.0)
    return traj.end.lap(2), partial


def critical_eps_residual(ce: CriticalEps,
                          cfg: Optional[IntegratorConfig] = None) -> CriticalEps:
    """ce itself, which holds the critical balance of its entire end at the
    solve's horizon (delta2_at_horizon, partial_integral), computed by the
    solve or read from its cache entry.  A cfg whose horizon lies beyond
    the solve's raises ValueError: no balance is taken there.
    """
    cfg = cfg if cfg is not None else default_config(3)
    if cfg.r_max > ce.horizon_used:
        raise ValueError(f"horizon {cfg.r_max:g} beyond the solve's {ce.horizon_used:g}")
    return ce


@dataclass
class VolumeSolve:
    """Result of a prescribed-volume solve.  iterations counts its volume
    probes, not the integrations of an m=3 critical solve (its iterations):
    1 for an m=3 target at the default rel_tol_target, whose first probe
    lands within 8.6e-4 (prescribe_volume)."""

    target: float
    param: object            # rho for m=2, (k, eps) for m=3
    achieved: float
    iterations: int
    k_used: Optional[float] = None

    @property
    def rel_err(self) -> float:
        return abs(self.achieved - self.target) / self.target


# beta, per order: the volume falls like (distance to its pole)^-beta in the
# varied jet slot, so V^(-1/beta) is close to linear there.  m=3, slot s =
# Lap u(0): the source-free u0 = k + s r^2/6 + r^4/120 has a volume V0
# proportional to (s + sqrt(6k/5))^(-3/2) (_source_free_volume), which V >= V0
# nears as s grows; the first probe is aimed by V0 itself, so beta only shapes
# the residual of later probes.  m=2, slot u(0): once u ~ u(0) + B r^2, V ~
# u(0)^(-9/2).
_VOLUME_DECAY = {2: 4.5, 3: 1.5}

# The large-k laws of the m=3 critical solve (default config, r_max = 100):
#   eps*(k)   ~ sqrt(6k/5) - (2/sqrt(3) + D/k + E/k^2 + F/k^3) / sqrt(k)  ("gap"),
#   V_crit(k) ~ A k^(1/4) (1 - B/k),  within 0.1 % (k = 10 ... 640), 6e-5 (640 ... 2e4).
# 2/sqrt(3) is the limit of (sqrt(6k/5) - eps*) sqrt(k), to 3e-5 by Richardson
# extrapolation in 1/k.  D, E and F are a least-squares fit of the relative error to
# eps* (bracket_tol 1e-10) at 22 k from k_min = 10 to 2e4: worst 1.6e-6 at k = 12, and
# 1.7e-6 at k = 11.5 of 23 more k.  law_err, b, bounds that error, so critical_eps's
# first probe law (1 + b) lies just above eps*; its Newton step to the second, on the
# slope model dh/deps = -eps, is overshot 2 %, as the slope reads -0.997 eps* at k = 10
# and -0.988 eps* from k = 40 to 1e4 (at eps* +- 1e-4).  A is the limit of V_crit /
# k^(1/4), B its 1/k correction, and A = 116.9 is pi^2 3^(9/4) = 116.902.  critical_eps's
# result does not depend on the laws beyond its cost; prescribe_volume's does through
# its k >= k_min (its least k), whose law volume is the target times 1 + margin (10x the
# law's error).  Below k_min the eps law is only a seed, positive (least 0.382 at k = 1.5).
# k_max caps that k (V_crit 1168.9): up to k = 2e4 V_crit moves by 5e-10 when r_max
# grows 2-4.7x, and from k = 3e4 critical_eps raises DivergentTail.
_LARGE_K = {"gap": (2.0 / math.sqrt(3.0), 0.6598, 1.2493, -3.2896), "law_err": 2e-6,
            "overshoot": 1.02, "A": 116.9, "B": 0.76, "k_min": 10.0, "margin": 1e-2, "k_max": 1e4}


def _eps_law(k: float) -> float:
    # 2/sqrt(3) + D/k + ...; k ** i kept off 0 below k ~ 3e-103, where the law is +inf
    gap = sum(c / max(k ** i, sys.float_info.min) for i, c in enumerate(_LARGE_K["gap"]))
    return math.sqrt(6.0 * k / 5.0) - gap / math.sqrt(k)


def _volume_law(k: float) -> float:
    return _LARGE_K["A"] * k ** 0.25 * (1.0 - _LARGE_K["B"] / k)


def _source_free_volume(k: float, s: float) -> float:
    """Volume of u0 = k + s r^2/6 + r^4/120, the m=3 profile with Lap^3 u0 = 0,
    for s > -sqrt(6k/5): pi^2 (6 / (s + sqrt(6k/5)))^(3/2) / sqrt(k)."""
    return math.pi ** 2 * (6.0 / (s + math.sqrt(6.0 * k / 5.0))) ** 1.5 / math.sqrt(k)


def prescribe_volume(spec: EquationSpec, target: float,
                     cfg: Optional[IntegratorConfig] = None, *,
                     rel_tol_target: float = VOLUME_REL_TOL,
                     cache: Optional[EpsCache] = None) -> VolumeSolve:
    """Find initial data whose trajectory has the prescribed volume.

    m=2: solves V(rho) = target for rho >= 0 (V decreasing from the
    critical volume lambda* toward 0; rho < 0 is past the collapse
    boundary, module docstring).  The rho = 0 end is the closed form
    lambda* (oracle.lambda_star), not an integration, and targets above it
    raise TargetOutOfRange before any integration.  m=3: solves the
    critical datum at the one k, at least 10, whose law volume
    (_volume_law) is the target plus 1 %, then moves the second jet slot s =
    Lap u(0) up from the critical one, -eps_lo (volume decreasing to 0).
    Targets whose law k exceeds 1e4 (above about 1157) raise
    TargetOutOfRange before any integration, and a V_crit(k) below the
    target beyond rel_tol_target raises PolyshootError.

    Each probe carries the residual 1 - (target / V)^(1/beta), >= 0 while
    V >= target, with beta = 9/2 for m=2 and 3/2 for m=3 (_VOLUME_DECAY):
    V^(-1/beta) is close to linear in the varied slot, so the secant steps
    of refine_bracket land near the root at once.  The scan (_scan)
    starts where the volume is known, rho = 0 (lambda*) or s = -eps_lo
    (V_crit; a run at a smaller s is not entire), and doubles its distance
    from there, so it never probes beyond the start: m=2 probes rho = 1,
    2, 4, ... up to 1e6, m=3 s up to 1e9 from its first probe s1.  That
    probe is aimed by the source-free volume V0(s) = pi^2 (6 / (s +
    eps_cap))^(3/2) / sqrt(k) of u0 = k + s r^2/6 + r^4/120 (Lap^3 u0 = 0;
    _source_free_volume).  The source only lowers u, so V >= V0, and V is
    modelled as V0 + a V0^2, a = (V_crit / V0c - 1) / V0c > 0 with V0c =
    V0(-eps_lo), which meets V_crit there.  Its root in V0 and then in s,

        w = 2 target / (1 + sqrt(1 + 4 a target)),
        s1 = 6 (pi^2 / (w sqrt(k)))^(2/3) - eps_cap,

    is above -eps_lo for a target below V_crit (clamped to the next float
    above it).  Measured at the default tolerances, V(s1) reads 0 to 8.6e-4
    above every target at k = 10 (the worst near target 70), and less as
    the law's k grows (2.2e-5 at k = 10.13, 8.5e-9 at k = 5575), so the scan
    stops there: a probe on V_crit's side within rel_tol_target of the
    target answers (_scan's stop).  A target below V0(1e9) at its k, the
    source-free volume at the scan's limit, can never be reached and raises
    TargetOutOfRange before any integration; a V >= target at the limit
    (the scan's None) raises PolyshootError.  refine_bracket then refines
    the scan's bracket until the volume is within rel_tol_target (positive
    and finite, ValueError otherwise) of the target.  A non-finite target
    raises ValueError, a finite one <= 0 TargetOutOfRange, both before any
    integration.
    """
    if not (math.isfinite(rel_tol_target) and rel_tol_target > 0):
        raise ValueError(f"rel_tol_target must be positive and finite, got {rel_tol_target}")
    if not math.isfinite(target):
        raise ValueError(f"volume target must be finite, got {target}")
    if not target > 0:
        raise TargetOutOfRange(f"volume target must be positive, got {target}")
    cfg = cfg if cfg is not None else default_config(spec.m)
    inv_beta = 1.0 / _VOLUME_DECAY[spec.m]

    def point(v):  # on a decreasing volume map: lo side while V >= target
        return Probe(v >= target, 1.0 - (target / v) ** inv_beta, v)

    def close(p):
        return abs(p.payload - target) / target <= rel_tol_target

    def solve(jet_of, x0, at_x0, x1, limit):  # -> (x, V(x), probes)
        evaluated = []

        def evaluate(x):
            evaluated.append(x)
            return point(volume_of_jet(spec, jet_of(x), cfg).total)

        b = _scan(evaluate, x0, at_x0, x1, limit, stop=close)
        if b is None:
            raise PolyshootError(f"volume failed to drop below target {target:.6g}")
        refine_bracket(evaluate, b, 0.0, stop=lambda b: close(b.at_lo) or close(b.at_hi))
        x, best = (b.lo, b.at_lo) if close(b.at_lo) else (b.hi, b.at_hi)
        if not close(best):
            raise PolyshootError(
                f"volume solve failed to reach {rel_tol_target:.1e} relative "
                f"(best {best.payload:.6g} vs target {target:.6g})")
        return x, best.payload, len(evaluated)

    if spec.m == 2:
        p0 = point(oracle.lambda_star())  # V(0): rho = 0 is the linear-growth profile
        if target > p0.payload * (1.0 + rel_tol_target):
            raise TargetOutOfRange(
                f"target {target:.6g} above the critical volume {p0.payload:.6g}")
        if close(p0):
            return VolumeSolve(target=target, param=0.0, achieved=p0.payload, iterations=0)
        rho, achieved, n = solve(jet_m2, 0.0, p0, 1.0, 1e6)
        return VolumeSolve(target=target, param=rho, achieved=achieved, iterations=n)

    # m=3: one critical solve, at k >= 10 whose law volume is v = target (1 + margin):
    # the fixed point of k = (v / (A (1 - B/k)))^4, a contraction there by 4B/(k - B) <= 1/3
    v, top = target * (1.0 + _LARGE_K["margin"]), _volume_law(_LARGE_K["k_max"])
    if v > top:
        raise TargetOutOfRange(f"target {target:.6g} above {top / (1.0 + _LARGE_K['margin']):.6g}, "
                               f"the largest reachable (law k {_LARGE_K['k_max']:g})")
    k = _LARGE_K["k_min"]
    for _ in range(40 if _volume_law(k) < v else 0):
        k = (v / (_LARGE_K["A"] * (1.0 - _LARGE_K["B"] / k))) ** 4
    s_max = 1e9
    if target < (floor := _source_free_volume(k, s_max)):  # V >= V0 up to the scan's limit
        raise TargetOutOfRange(f"target {target:.6g} below {floor:.6g}, the source-free "
                               f"volume at the scan's limit s = {s_max:g} (k {k:.6g})")
    ce = critical_eps(k, cfg, BRACKET_TOL, cache=cache)
    critical = point(ce.volume)
    if close(critical):
        return VolumeSolve(target=target, param=(k, ce.eps_lo), achieved=ce.volume,
                           iterations=0, k_used=k)
    if not critical.lo_side:
        raise PolyshootError(f"V_crit({k:.6g}) = {ce.volume:.6g} below target {target:.6g}")
    # the root w in V0 of target = V0 + a V0^2, the model through (V0c, V_crit), then
    # its s; V_crit > target here, so s1 > -eps_lo up to rounding
    v0c = _source_free_volume(k, -ce.eps_lo)
    a = (ce.volume / v0c - 1.0) / v0c
    w = 2.0 * target / (1.0 + math.sqrt(1.0 + 4.0 * a * target))
    s1 = 6.0 * (math.pi ** 2 / (w * math.sqrt(k))) ** (2.0 / 3.0) - ce.eps_cap
    s, achieved, n = solve(lambda s: jet_m3(k, -s),  # V decreases in s = Lap u(0) = -eps
                           -ce.eps_lo, critical,
                           max(s1, math.nextafter(-ce.eps_lo, math.inf)), s_max)
    return VolumeSolve(target=target, param=(k, -s), achieved=achieved,
                       iterations=n, k_used=k)
