"""The benchmark workloads: seeded inputs, requests and output checks.

A workload turns a seed into inputs once (``make_inputs``) and, for every
pass, into a list of requests (``requests``).  A request is what a user
would wait for: one integration (or comparison pair), one critical-datum
solve, one prescribed-volume solve or one CLI command.  Each request is a
``Request(label, run, verify)``: ``run()`` is the timed call into
polyshoot; ``verify(result)`` runs untimed and returns the acceptance
checks plus a summary of the outputs, which the traced run compares with
the untraced one.

Every call into polyshoot goes through a module attribute looked up at
call time (``integrator.integrate``, ``shooting.critical_eps``, ...), so
the tracer's wrappers see the benchmark's own calls as well as the
program's internal ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys
from dataclasses import dataclass
from importlib import import_module
from typing import Callable

import numpy as np

core = import_module("polyshoot.core")
integrator = import_module("polyshoot.integrator")
oracle = import_module("polyshoot.oracle")
shooting = import_module("polyshoot.shooting")
cli = import_module("polyshoot.cli")

SPEC2 = core.EquationSpec.for_order(2)
SPEC3 = core.EquationSpec.for_order(3)
LAMBDA_STAR = oracle.lambda_star()
_U0 = oracle.linear_profile()


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    ratio: float = math.nan   # |error| / tolerance for two-sided checks


@dataclass(frozen=True)
class Request:
    label: str
    run: Callable[[], object]
    verify: Callable[[object], tuple]   # -> (list[Check], output summary)


def _within(name, err, tol):
    return Check(name, bool(abs(err) <= tol), abs(err) / tol)


def stratified(rng, lo, hi, n):
    """n uniform draws on [lo, hi], one in each of n equal strata, shuffled.

    Each draw is still uniform on [lo, hi], but every seed covers the whole
    range, so the mix of cheap and costly inputs (and with it the work of a
    pass) varies little from seed to seed.
    """
    u = rng.permutation((np.arange(n) + rng.random(n)) / n)
    return [float(lo + (hi - lo) * x) for x in u]


def _jet2(rho):
    return core.Jet((_U0.eval(0.0, 0) + rho, _U0.eval(0.0, 2)))


def _stats(traj):
    s = traj.stats
    return (s["naccept"], s["nreject"], s["nfev"], len(traj))


# ------------------------------------------------------------- m3_critical

CRITICAL_K = (10.0, 20.0, 40.0)


def _m3_inputs(rng):
    logs = stratified(rng, math.log(0.5), math.log(150.0), 3)
    return {"targets": [math.exp(x) for x in logs]}


def _check_critical(ce, cfg):
    """Criterion 7 of the acceptance suite, on the entire-side trajectory."""
    traj = ce.traj_lo
    lower = ce.k - ce.eps_lo * traj.r ** 2 / 6.0
    resid = shooting.critical_eps_residual(ce, cfg)
    checks = [
        Check("bracket_entire", bool(shooting.is_entire(traj)
                                     and shooting.lap_limit_estimate(traj) > 0)),
        Check("eps_below_cap", bool(ce.eps_star <= ce.eps_cap + 1e-6)),
        Check("envelope_lo", bool(np.min(traj.u - lower) >= -1e-6)),
        Check("envelope_hi", bool(np.min(lower + traj.r ** 4 / 120.0 - traj.u) >= -1e-6)),
        Check("top_laplacian_monotone", bool(np.max(np.diff(traj.y[:, 4])) <= 1e-12)),
        Check("partial_integral", bool(resid.partial_integral >= 0.9)),
    ]
    return checks, (ce.eps_lo, ce.eps_hi, ce.iterations, ce.precision)


def _m3_requests(inputs, workdir):
    cfg = shooting.default_config(3)
    cache = shooting.EpsCache(workdir)   # fresh directory: cold misses, then hits
    reqs = []
    for k in CRITICAL_K:
        reqs.append(Request(
            "critical_eps",
            lambda k=k: shooting.critical_eps(k, cfg, bracket_tol=1e-6, cache=cache),
            lambda ce: _check_critical(ce, cfg)))
    for target in inputs["targets"]:
        reqs.append(Request(
            "prescribe_volume",
            lambda t=target: shooting.prescribe_volume(SPEC3, t, cfg, cache=cache),
            lambda vs: ([_within("prescribed_volume", vs.rel_err, 1e-3)],
                        (vs.param, vs.achieved, vs.iterations, vs.k_used))))
    return reqs


# -------------------------------------------------------------- step_bound

def comparison_pairs(n_pairs, rng):
    """Ordered jet pairs (m, upper, lower) over the ranges of acceptance criterion 5.

    Base jets alternate between the orders; each base component is drawn
    stratified over its range (a Latin hypercube per order), and the gaps as
    in criterion 5: zero with probability 0.4, else log-uniform in
    [1e-3, 10^-0.3], with at least one nonzero gap.
    """
    ranges = {2: ((0.6, 3.0), (-0.5, 3.0)), 3: ((1.0, 5.0), (-1.0, 2.0), (0.3, 1.5))}
    count = {2: (n_pairs + 1) // 2, 3: n_pairs // 2}
    bases = {m: list(zip(*(stratified(rng, lo, hi, count[m]) for lo, hi in ranges[m])))
             for m in (2, 3)}
    pairs = []
    for i in range(n_pairs):
        m = 2 if i % 2 == 0 else 3
        base = bases[m][i // 2]
        gaps = [0.0 if rng.random() < 0.4 else 10 ** rng.uniform(-3.0, -0.3) for _ in base]
        if max(gaps) == 0.0:
            gaps[rng.integers(0, len(base))] = 1e-3
        pairs.append((m, tuple(float(b + g) for b, g in zip(base, gaps)), base))
    return pairs


def _step_inputs(rng):
    return {
        "rho": stratified(rng, -0.45, -0.02, 30),
        "eps": stratified(rng, 4.0, 10.0, 10),
        "pairs": comparison_pairs(25, rng),
    }


def _check_collapse(traj, horizon):
    v = traj.verdict
    ok = isinstance(v, core.Collapsed) and 0.0 < v.r_star < horizon
    return [Check("collapsed_inside_horizon", bool(ok))], (repr(v), _stats(traj))


def _common_grid(t1, t2):
    n = min(len(t1), len(t2))
    while n > 0 and abs(t1.r[n - 1] - t2.r[n - 1]) > 1e-12:
        n -= 1
    return n


def _check_pair(result):
    """Criterion 5's ordering rule: the upper jet stays above, slot by slot."""
    m, t_up, t_lo = result
    n = _common_grid(t_up, t_lo)
    worst = -math.inf
    for j in range(2 * m):
        a, b = t_up.y[:n, j], t_lo.y[:n, j]
        tol = 1e-8 * (1.0 + np.maximum(np.abs(a), np.abs(b)))
        worst = max(worst, float(np.max(b - a - tol)))
    checks = [Check("common_grid", n > 10), Check("ordered", worst <= 0.0)]
    return checks, (worst, _stats(t_up), _stats(t_lo))


def _step_requests(inputs, workdir):
    cfg2, cfg3 = shooting.default_config(2), shooting.default_config(3)
    cmp_cfg = integrator.IntegratorConfig(r_max=30.0, rel_tol=1e-10, abs_tol=1e-12)
    reqs = []
    for rho in inputs["rho"]:
        reqs.append(Request(
            "integrate_m2",
            lambda rho=rho: integrator.integrate(SPEC2, _jet2(rho), cfg2),
            lambda t: _check_collapse(t, cfg2.r_max)))
    for eps in inputs["eps"]:
        reqs.append(Request(
            "integrate_m3",
            lambda eps=eps: integrator.integrate(SPEC3, core.Jet((10.0, -eps, 1.0)), cfg3),
            lambda t: _check_collapse(t, cfg3.r_max)))

    def pair(m, up, lo):
        spec = SPEC2 if m == 2 else SPEC3
        return (m, integrator.integrate(spec, core.Jet(up), cmp_cfg),
                integrator.integrate(spec, core.Jet(lo), cmp_cfg))

    for m, up, lo in inputs["pairs"]:
        reqs.append(Request("comparison_pair",
                            lambda m=m, up=up, lo=lo: pair(m, up, lo), _check_pair))
    return reqs


# --------------------------------------------------------------- cli_sweep

def _cli_inputs(rng):
    return {"rho": stratified(rng, 0.0, 10.0, 11)}


def _cli(argv):
    """One in-process CLI command; returns its exit code.

    Its progress lines are dropped; on a nonzero exit they are passed on.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        sys.stderr.write(err.getvalue())
    return code


def _read(path):
    """Output file text, and a digest of it without the timestamp line."""
    with open(path) as fh:
        text = fh.read()
    body = "\n".join(l for l in text.splitlines() if not l.startswith("# generated:"))
    return text, hashlib.sha256(body.encode()).hexdigest()


def _check_shoot(code, path):
    text, digest = _read(path)
    lines = text.splitlines()
    rows = [l for l in lines if l and not l.startswith("#")][1:]
    footer = lines[-1].split(",") if lines else []
    entire = footer[:3] == ["# verdict", "EntirePositive", "growth_exponent"]
    checks = [Check("exit_ok", code == 0), Check("rows", len(rows) == 100_001),
              Check("entire", entire)]
    if entire:
        checks.append(_within("growth_exponent", float(footer[3]) - 1.0, 0.05))
    return checks, (code, digest)


def _check_sweep(code, path):
    text, digest = _read(path)
    rows = [l.split(",") for l in text.splitlines() if l and not l.startswith("#")][1:]
    vols = [float(r[2]) for r in rows if len(r) == 5]
    checks = [
        Check("exit_ok", code == 0),
        Check("rows", len(rows) == 11 and len(vols) == 11),
        Check("entire", all(r[1] == "EntirePositive" for r in rows)),
        Check("volume_decreasing", all(b < a for a, b in zip(vols, vols[1:]))),
    ]
    if vols:
        checks.append(Check("volume_below_critical",
                            max(vols) <= LAMBDA_STAR * (1 + 1e-4),
                            max(0.0, max(vols) / LAMBDA_STAR - 1.0) / 1e-4))
    return checks, (code, digest)


def _cli_requests(inputs, workdir):
    shoot_out = os.path.join(workdir, "shoot.csv")
    sweep_out = os.path.join(workdir, "sweep.csv")
    rhos = ",".join(repr(r) for r in inputs["rho"])
    shoot = ["shoot", "--m", "2", "--rho", "0", "--out", shoot_out]
    sweep = ["sweep", "--m", "2", "--rho", rhos, "--jobs", "2", "--out", sweep_out]
    return [Request("cli_shoot", lambda: _cli(shoot), lambda c: _check_shoot(c, shoot_out)),
            Request("cli_sweep", lambda: _cli(sweep), lambda c: _check_sweep(c, sweep_out))]


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable
    requests: Callable


WORKLOADS = {
    "m3_critical": Workload(_m3_inputs, _m3_requests),
    "step_bound": Workload(_step_inputs, _step_requests),
    "cli_sweep": Workload(_cli_inputs, _cli_requests),
}
