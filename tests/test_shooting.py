import functools
import json
import math
import multiprocessing
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from polyshoot import (
    BracketFailure,
    EquationSpec,
    IntegratorConfig,
    Jet,
    PolyshootError,
    TargetOutOfRange,
    critical_eps,
    critical_eps_residual,
    default_config,
    integrate,
    is_entire,
    lambda_star,
    prescribe_volume,
    volume,
)
from polyshoot import integrator, shooting
from polyshoot.core import Collapsed, EntirePositive, Inconclusive, TopZero, Trajectory
from polyshoot.integrator import Bracket, Probe, refine_bracket
from polyshoot.shooting import EpsCache, lap_limit_estimate
from polyshoot.volume import VolumeEstimate, volume_of_jet

from conftest import radial_double_integral


@pytest.fixture(scope="module")
def ce10():
    return critical_eps(10.0, bracket_tol=1e-6)


def test_critical_eps_bracket(ce10):
    cap = math.sqrt(6.0 * 10.0 / 5.0)
    assert 0.0 < ce10.eps_star <= cap + ce10.width
    assert ce10.width <= 1e-6
    assert ce10.eps_lo < ce10.eps_star < ce10.eps_hi
    assert is_entire(ce10.traj_lo)
    assert lap_limit_estimate(ce10.traj_lo) > 0.0
    assert not (is_entire(ce10.traj_hi) and lap_limit_estimate(ce10.traj_hi) > 0.0)
    # regression guard for the located value at horizon 100
    assert ce10.eps_star == pytest.approx(3.075176, abs=1e-4)


def _round_bound(width0, tol):
    return 2 * math.ceil(math.log2(width0 / tol)) + 2


def test_refinement_round_bound(ce10):
    assert ce10.iterations <= _round_bound(math.sqrt(12.0), 1e-6)


# root 0.3 of [0, 1]; each case maps x to (lo side, residual or None)
_ROOT = 0.3
_ANALYTIC = {
    "linear": lambda x: (x < _ROOT, _ROOT - x),
    "linear_lo_only": lambda x: (x < _ROOT, _ROOT - x if x < _ROOT else None),
    "cubic_lo_only": lambda x: (x < _ROOT, _ROOT ** 3 - x ** 3 if x < _ROOT else None),
    "classifier_only": lambda x: (x < _ROOT, None),
    # flat at the root: the interpolants crawl, and the halving rule's
    # bisections keep the worst-case bound
    "flat_pow9": lambda x: (x < _ROOT, (_ROOT - x) ** 9),
    "flat_exp_lo_only": lambda x: (x < _ROOT, math.exp(-1.0 / (_ROOT - x)) if x < _ROOT else None),
}


@pytest.mark.parametrize("case", sorted(_ANALYTIC))
@pytest.mark.parametrize("tol", [1e-3, 1e-9])
def test_refine_bracket_analytic(case, tol):
    f = _ANALYTIC[case]
    points = []

    def evaluate(x):
        points.append(x)
        return Probe(*f(x), payload=x)

    b = Bracket(0.0, 1.0, evaluate(0.0), evaluate(1.0))
    before = []

    def invariants(br):
        assert br.lo < _ROOT <= br.hi
        assert br.at_lo.lo_side and not br.at_hi.lo_side
        assert (br.at_lo.payload, br.at_hi.payload) == (br.lo, br.hi)

    def stop(br):  # called before every round
        invariants(br)
        before.append((br.lo, br.hi))
        return False

    refine_bracket(evaluate, b, tol, stop=stop)
    invariants(b)
    assert b.width <= tol
    assert b.rounds == len(points) - 2 == len(before)
    # Brent's halving rule: a step not under half the step before last
    # bisects, so steps that crawl cost a bisection every few rounds
    assert b.rounds <= 3 * math.ceil(math.log2(1.0 / tol))
    if not case.startswith("flat"):
        assert b.rounds <= _round_bound(1.0, tol)
    # every probe fell strictly inside the bracket it refined, tol/2 in
    for (lo, hi), x in zip(before, points[2:]):
        assert lo + 0.5 * tol * (1 - 1e-12) <= x <= hi - 0.5 * tol * (1 - 1e-12)
    if case == "classifier_only":  # plain bisection
        assert b.rounds == math.ceil(math.log2(1.0 / tol))


@pytest.mark.parametrize("k, eps_bisection",
                         [(10.0, 3.0751762), (20.0, 4.6327902), (40.0, 6.7429124)])
def test_critical_eps_matches_bisection(ce10, k, eps_bisection):
    # values located by plain bisection to bracket_tol = 1e-6 at horizon 100
    ce = ce10 if k == 10.0 else critical_eps(k, bracket_tol=1e-6)
    assert ce.eps_star == pytest.approx(eps_bisection, abs=1e-6)


@pytest.mark.parametrize("k, bound", [(10.0, 4), (20.0, 8), (40.0, 8)])
def test_critical_eps_integration_count(monkeypatch, k, bound):
    calls, fits = [], []
    integrate_, fit_tail = shooting.integrate, integrator.fit_tail

    def counting(*args, **kwargs):
        calls.append(args[1])
        return integrate_(*args, **kwargs)

    monkeypatch.setattr(shooting, "integrate", counting)
    monkeypatch.setattr(integrator, "fit_tail", lambda *args: fits.append(1) or fit_tail(*args))
    critical_eps(k, bracket_tol=1e-6)
    assert len(calls) <= bound  # plain bisection makes 24 at k = 10
    # the probes read end states only: the one tail fitted is the volume's
    assert len(fits) == 1


# The critical table of the ROADMAP baseline (r_max 100, bracket_tol 1e-6):
# k, (sqrt(6k/5) - eps*) sqrt(k) and V_crit / k^(1/4), as printed there
_CRITICAL_TABLE = [
    (10.0, 1.229892, 108.090), (20.0, 1.190435, 112.453), (40.0, 1.171882, 114.665),
    (80.0, 1.163024, 115.780), (160.0, 1.158752, 116.341), (320.0, 1.156674, 116.622),
    (640.0, 1.155658, 116.764)]


def _theory_bracket_eps(k, cfg, tol):
    """eps* as the critical solve located it before its large-k seed:
    refine_bracket from the theory bracket [0, sqrt(6k/5)], kept here as a
    reference."""
    evaluate = functools.partial(shooting._eps_probe, EquationSpec.for_order(3), k, cfg=cfg)
    cap = math.sqrt(6.0 * k / 5.0)
    b = refine_bracket(evaluate, Bracket(0.0, cap, evaluate(0.0), evaluate(cap)), tol)
    return 0.5 * (b.lo + b.hi)


def test_large_k_critical_table(spec3, monkeypatch):
    # a reproduction check of the large-k regime, not a tolerance on the
    # solver: both scaled columns settle as the table has them, each to the
    # printed digits plus what a bracket_tol bracket resolves
    tol, cfg = 1e-6, default_config(3)
    calls = []
    integrate_ = shooting.integrate

    def counting(*args, **kwargs):
        calls.append(args[1])
        return integrate_(*args, **kwargs)

    monkeypatch.setattr(shooting, "integrate", counting)
    solves = [critical_eps(k, cfg, tol) for k, _, _ in _CRITICAL_TABLE]
    assert len(calls) <= 42  # 55 from the theory bracket
    monkeypatch.undo()
    for ce, (k, gap, v_scaled) in zip(solves, _CRITICAL_TABLE):
        assert abs(ce.eps_star - _theory_bracket_eps(k, cfg, tol)) <= tol
        # eps* to tol moves the gap column by tol sqrt(k): 2.5e-5 at k = 640
        assert (ce.eps_cap - ce.eps_star) * math.sqrt(k) == pytest.approx(
            gap, abs=5e-7 + tol * math.sqrt(k))
        # V_crit is read at eps_lo, anywhere in the tol below eps*, where V
        # is linear in eps: it moves by its change over tol (3.8e-3 at 640)
        v_below = volume_of_jet(spec3, shooting.jet_m3(k, ce.eps_lo - tol), cfg).total
        assert ce.volume / k ** 0.25 == pytest.approx(
            v_scaled, abs=5e-4 + abs(ce.volume - v_below) / k ** 0.25)


@pytest.mark.parametrize("k", [5.0, 10.0, 640.0])
def test_critical_eps_opens_about_the_law(monkeypatch, k):
    # from k = 10 on, the first probe is pred (1 - 1e-3) and the second the
    # one its side calls for: pred (1 + 1e-3), clamped to the cap, above an
    # entire probe, pred (1 - 2e-3) below one that is not (at k = 10);
    # below, where the law was not measured, 0 and the cap
    eps, probes = [], []
    probe_ = shooting._eps_probe

    def recording(spec, k_, eps_, cfg):
        eps.append(eps_)
        probes.append(probe_(spec, k_, eps_, cfg))
        return probes[-1]

    monkeypatch.setattr(shooting, "_eps_probe", recording)
    ce = critical_eps(k, bracket_tol=1e-3)
    cap, pred = ce.eps_cap, shooting._eps_law(k)
    if k < 10.0:
        want = [0.0, cap]
    elif probes[0].lo_side:
        want = [pred * (1 - 1e-3), min(pred * (1 + 1e-3), cap)]
    else:
        want = [pred * (1 - 1e-3), pred * (1 - 2e-3)]
    assert eps[:2] == pytest.approx(want, rel=1e-15)
    assert probes[0].lo_side == (k != 10.0)
    assert ce.eps_lo < ce.eps_hi <= cap


def test_critical_eps_scans_down_at_k10(monkeypatch):
    # pred (1 - 1e-3) is not entire at k = 10: the scan goes down to pred
    # (1 - 2e-3), which is, and that bracket refines in two more probes
    # (5 integrations when pred (1 + 1e-3) was probed as well)
    eps = []
    integrate_ = shooting.integrate

    def recording(spec, jet, cfg, **kwargs):
        eps.append(-jet.lap_values[1])
        return integrate_(spec, jet, cfg, **kwargs)

    monkeypatch.setattr(shooting, "integrate", recording)
    ce = critical_eps(10.0, bracket_tol=1e-6)
    pred = shooting._eps_law(10.0)
    assert eps[:2] == pytest.approx([pred * (1 - 1e-3), pred * (1 - 2e-3)], rel=1e-15)
    assert len(eps) == 4
    assert eps[1] <= ce.eps_lo < ce.eps_hi <= eps[0]


def test_critical_probe_side_matches_residual(monkeypatch):
    # the one m=3 classifier: h > 0 on the lo side and only there, the lo
    # side is entire, a probe certified not entire carries h < 0 from a
    # limit estimate below -tau, and only an inconclusive one carries no
    # residual
    probes = []
    probe_ = shooting._eps_probe

    def recording(*args, **kwargs):
        probes.append(probe_(*args, **kwargs))
        return probes[-1]

    monkeypatch.setattr(shooting, "_eps_probe", recording)
    # five k: a seeded solve makes 5-6 probes, and the sample stays >= 20
    for k in (10.0, 20.0, 40.0, 80.0, 160.0):
        critical_eps(k, bracket_tol=1e-6)
    assert sum(p.residual is not None for p in probes) >= 20
    assert any(isinstance(p.payload.verdict, TopZero) for p in probes)
    for p in probes:
        assert (p.residual is None) == isinstance(p.payload.verdict, Inconclusive)
        assert p.lo_side == (p.residual is not None and p.residual > 0.0)
        assert is_entire(p.payload) or not p.lo_side
        if isinstance(p.payload.verdict, TopZero):
            tau = default_config(3).rel_tol
            assert p.residual < 0.0 and p.payload.verdict.r_zero <= p.payload.r_end
            assert lap_limit_estimate(p.payload) < -tau


@settings(max_examples=25, deadline=None)
@given(k=st.floats(10.0, 640.0), frac=st.floats(0.0, 1.0))
@example(k=10.0, frac=0.895)  # eps 3.1: the settled stop at r = 7.85, w's zero at 37.9
@example(k=640.0, frac=0.999)  # the settled stop
@example(k=10.0, frac=0.999)  # collapsing: w's zero
def test_stopped_probe_is_a_prefix_of_the_full_run(spec3, k, frac):
    # a probe that stops once certified takes the full run's steps up to
    # there, bit for bit, and lands on the side the full run's end state
    # gives; it ends at w's zero, or at a step end where E < -tau and the
    # limit estimate moved by at most _SETTLE of itself over the last step
    eps = frac * math.sqrt(6.0 * k / 5.0)
    cfg = default_config(3)
    probe = shooting._eps_probe(spec3, k, eps, cfg)
    full = integrate(spec3, shooting.jet_m3(k, eps), cfg)
    full_lo = (isinstance(full.verdict, EntirePositive)
               and lap_limit_estimate(full) > 0.0)
    assert probe.lo_side == full_lo
    stopped = probe.payload.dense
    n = stopped.cs.shape[0]
    assert n <= full.dense.cs.shape[0]
    assert stopped.cs.tobytes() == full.dense.cs[:n].tobytes()
    assert stopped.r_rights.tobytes() == full.dense.r_rights[:n].tobytes()
    if isinstance(probe.payload.verdict, TopZero):
        assert not is_entire(full)
        end = probe.payload.end
        if probe.payload.r_end == stopped.r_hi:  # the settled stop
            tau, settle = cfg.rel_tol, integrator._SETTLE
            before = stopped(float(stopped.r_lefts[-1]))
            hat = integrator._tail_limit(spec3.rhs_exponent, end.r, end.y)
            hat_before = integrator._tail_limit(spec3.rhs_exponent, stopped.r_lefts[-1], before)
            assert end.lap(2) + end.r * end.lap_deriv(2) < -tau and end.lap(2) > 0.0
            assert abs(hat - hat_before) <= settle * abs(hat) * (1.0 + 1e-6)
            assert n < full.dense.cs.shape[0]
        else:  # w's zero
            assert abs(end.lap(2)) <= cfg.abs_tol * abs(end.lap_deriv(2))


# Integrations per critical_eps solve with probes run to w's zero or the
# horizon (r_max 100), k: (bracket_tol 1e-3, 1e-6, 1e-9); the same in
# extended precision at k = 10, 40 and 160
_PROBES_BEFORE = {2.0: (6, 7, 7), 5.0: (6, 7, 8), 10.0: (4, 4, 5), 20.0: (4, 5, 5),
                  40.0: (4, 5, 6), 80.0: (4, 5, 6), 160.0: (4, 5, 6), 320.0: (4, 6, 7),
                  640.0: (5, 6, 7)}


def test_critical_probe_budget(monkeypatch):
    # a probe stopped once certified carries the tail-corrected limit, so
    # no solve takes more probes than one run to w's zero or the horizon,
    # while the three solves of a perfbench m3_critical pass (k = 10, 20
    # and 40 at 1e-6) take 277 accepted steps (350 before)
    runs = []
    integrate_ = shooting.integrate

    def counting(*args, **kwargs):
        runs.append(integrate_(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(shooting, "integrate", counting)
    for precision, ks in (("double", _PROBES_BEFORE), ("extended", (10.0, 40.0, 160.0))):
        cfg = default_config(3, precision=precision)
        for k in ks:
            for tol, most in zip((1e-3, 1e-6, 1e-9), _PROBES_BEFORE[k]):
                runs.clear()
                critical_eps(k, cfg, tol)
                assert len(runs) <= most, (precision, k, tol)
    runs.clear()
    for k in (10.0, 20.0, 40.0):
        critical_eps(k, bracket_tol=1e-6)
    assert sum(t.stats["naccept"] for t in runs) <= 280


def test_critical_probe_residual_stays_finite(spec3):
    # 1 - w_inf rounds to 0 at eps = 0 for k near 1e8
    p = shooting._eps_probe(spec3, 1e8, 0.0, default_config(3))
    assert p.lo_side and math.isfinite(p.residual) and p.residual > 0.0


def test_critical_eps_reads_each_end_state_once(monkeypatch):
    # the residual h (from w_inf) and the critical balance share one read
    # of a probe's end state, which only the probes that carry h read, and
    # the rows are never read
    carrying, reads = [], []
    integrate_, states = shooting.integrate, Trajectory._states

    def counting_integrate(*args, **kwargs):
        traj = integrate_(*args, **kwargs)
        carrying.append(isinstance(traj.verdict, (EntirePositive, TopZero)))
        return traj

    def counting_states(self, r):
        reads.append(r)
        return states(self, r)

    monkeypatch.setattr(shooting, "integrate", counting_integrate)
    monkeypatch.setattr(Trajectory, "_states", counting_states)
    critical_eps(10.0, bracket_tol=1e-3)
    assert 0 < len(reads) <= sum(carrying) and all(np.ndim(r) == 0 for r in reads)


def test_envelope_at_entire_end(ce10):
    traj = ce10.traj_lo
    k, eps = 10.0, ce10.eps_lo
    lower = k - eps * traj.r ** 2 / 6.0
    assert np.min(traj.u - lower) >= -1e-6
    assert np.min(lower + traj.r ** 4 / 120.0 - traj.u) >= -1e-6


def test_critical_eps_residual_behaviour(ce10, spec3):
    # the solve's own balance at its horizon; none is taken beyond it
    res = critical_eps_residual(ce10, default_config(3))
    assert res is ce10 and critical_eps_residual(ce10) is ce10
    with pytest.raises(ValueError, match="beyond the solve's 100"):
        critical_eps_residual(ce10, default_config(3, r_max=200.0))
    t0 = integrate(spec3, Jet((10.0, 0.0, 1.0)), default_config(3))
    d2_far = float(t0.y[-1, 4])
    assert d2_far >= 2.0 / 3.0
    assert res.delta2_at_horizon < d2_far / 10.0
    assert res.partial_integral >= 0.9
    # partial integral approaches 1 from below as the horizon grows
    ce_long = critical_eps(10.0, default_config(3, r_max=200.0), bracket_tol=1e-6)
    res_long = critical_eps_residual(ce_long, default_config(3, r_max=200.0))
    assert res.partial_integral < res_long.partial_integral < 1.0


@pytest.mark.parametrize("r_max", [10.0, 100.0])
def test_source_integral_on_the_cubic_profile(spec3, u1, r_max):
    # int_0^R s (1 - s/R) u^-3 ds = Lap^2 u(0) - Lap^2 u(R) for an exact solution
    traj = integrate(spec3, u1.jet(), IntegratorConfig(r_max=r_max))
    _, partial = shooting._critical_balance(traj)
    want = u1.eval(0.0, 4) - u1.eval(r_max, 4)
    assert partial == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("k", [10.0, 20.0, 40.0])
def test_source_integral_matches_simpson_on_the_samples(ce10, k):
    # the double integral by two cumulative Simpson passes over the sample rows
    ce = ce10 if k == 10.0 else critical_eps(k, bracket_tol=1e-6)
    traj = ce.traj_lo
    simpson = radial_double_integral(traj.r, traj.u ** -3.0)[-1]
    assert ce.partial_integral == pytest.approx(simpson, abs=1e-10)


def test_horizon_robustness(ce10):
    ce_long = critical_eps(10.0, default_config(3, r_max=200.0), bracket_tol=1e-6)
    assert abs(ce_long.eps_star - ce10.eps_star) < 2e-6


def test_bracket_failures():
    # tiny k: eps=0 already collapses (below the large-k regime)
    with pytest.raises(BracketFailure):
        critical_eps(1.0, bracket_tol=1e-3)
    # horizon too short: the cap trajectory cannot be told apart
    with pytest.raises(BracketFailure):
        critical_eps(10.0, default_config(3, r_max=3.0), bracket_tol=1e-3)


@pytest.mark.parametrize("precision", ["double", "extended"])
def test_critical_eps_runs_at_config_precision(monkeypatch, precision):
    seen = []
    integrate = shooting.integrate

    def recording(spec, jet, cfg, **kwargs):
        seen.append(cfg.precision)
        return integrate(spec, jet, cfg, **kwargs)

    monkeypatch.setattr(shooting, "integrate", recording)
    ce = critical_eps(10.0, default_config(3, precision=precision), bracket_tol=1e-3)
    assert ce.precision == precision and set(seen) == {precision}
    assert ce.eps_star == pytest.approx(3.0752, abs=2e-3)


def _boundary_probes(spec2, tol_b, r_max):
    """The runs at rho = 0 and rho = -tol_b at horizon r_max, each ended
    once certified not entire (stop_at_top_zero)."""
    cfg = default_config(2, r_max=r_max)
    return [integrate(spec2, shooting.jet_m2(rho), cfg, stop_at_top_zero=True)
            for rho in (0.0, -tol_b)]


def test_collapse_boundary(spec2):
    # theory puts the m=2 collapse boundary at rho = 0: there the run is
    # entire to the default horizon, and at rho = -1e-3 it is certified not
    # entire, its run ended where its limit estimate settled
    at_0, below = _boundary_probes(spec2, 1e-3, 1e3)
    assert is_entire(at_0) and at_0.r_end == 1e3
    assert isinstance(below.verdict, TopZero) and not is_entire(below)
    assert below.r_end == pytest.approx(2.8382, abs=1e-4)


def test_collapse_boundary_stops_at_the_top_zero(spec2):
    # stop_at_top_zero ends the rho = -1e-3 run once its limit estimate has
    # settled past the top zero; run on, it collapses where the CI shoot
    # line's footer puts r_star
    jet, cfg = shooting.jet_m2(-1e-3), default_config(2)
    stopped = integrate(spec2, jet, cfg, stop_at_top_zero=True)
    full = integrate(spec2, jet, cfg)
    assert isinstance(stopped.verdict, TopZero)
    assert stopped.verdict.r_zero < stopped.r_end < full.r_end
    assert isinstance(full.verdict, Collapsed)
    assert full.verdict.r_star == pytest.approx(66.14340638984538, rel=1e-12)


@pytest.mark.parametrize("tol_b", [1e-3, 1e-6])
def test_collapse_boundary_entire_lo_end_is_horizon_too_short(spec2, tol_b):
    # at horizon 1 the run at rho = -tol_b reaches the horizon
    # EntirePositive, as rho = 0 does: the horizon is too short to tell
    # the collapse, which the default horizon certifies
    at_0, below = _boundary_probes(spec2, tol_b, 1.0)
    assert isinstance(at_0.verdict, EntirePositive)
    assert isinstance(below.verdict, EntirePositive) and below.r_end == 1.0
    _, resolved = _boundary_probes(spec2, tol_b, 1e3)
    assert isinstance(resolved.verdict, TopZero)


def test_collapse_boundary_horizon_guard(spec2):
    # the certificate tells rho = -1e-6 apart by r = 4.6336, so horizon 5
    # resolves tol_b = 1e-6 and horizon 3 does not
    _, short = _boundary_probes(spec2, 1e-6, 3.0)
    _, long_ = _boundary_probes(spec2, 1e-6, 5.0)
    assert isinstance(short.verdict, EntirePositive) and short.r_end == 3.0
    assert isinstance(long_.verdict, TopZero) and 3.0 < long_.verdict.r_zero < 5.0


@pytest.mark.parametrize("tol_b, r_max",[(tol_b, r_max) for tol_b in (1e-3, 1e-6)
                                          for r_max in (1.0, 2.0, 3.0, 5.0, 20.0, 1000.0)])
def test_collapse_boundary_lands_in_its_band(spec2, tol_b, r_max):
    # rho = 0 is entire at every horizon; rho = -tol_b is certified not
    # entire where E = w + r w' falls below -tau (r_zero 1.0687 at tol_b
    # 1e-3, 4.6336 at 1e-6), and a shorter horizon cannot tell it from
    # entire: that run reaches the horizon EntirePositive
    at_0, below = _boundary_probes(spec2, tol_b, r_max)
    assert is_entire(at_0) and at_0.r_end == r_max
    r_cert = {1e-3: 1.0687, 1e-6: 4.6336}[tol_b]
    if r_max > r_cert:
        assert isinstance(below.verdict, TopZero)
        assert below.verdict.r_zero == pytest.approx(r_cert, abs=1e-4)
    else:
        assert isinstance(below.verdict, EntirePositive) and below.r_end == r_max


def _scan_map(root, probes):
    """A monotone map on the line: lo side below root, residual root - x."""
    def evaluate(x):
        probes.append(x)
        return Probe(x < root, root - x, x)
    return evaluate


@pytest.mark.parametrize("x0, x1, limit, root, want, bracket", [
    (0.0, 1.0, 100.0, 5.0, [1.0, 2.0, 4.0, 8.0], (4.0, 8.0)),         # up from the lo side
    (10.0, 9.0, -100.0, 5.0, [9.0, 8.0, 6.0, 2.0], (2.0, 6.0)),      # down from the hi side
    (1.0, 1.5, 100.0, 9.0, [1.5, 2.0, 3.0, 5.0, 9.0], (5.0, 9.0)),   # distances from x0 double
    (0.0, 1.0, 5.5, 5.0, [1.0, 2.0, 4.0, 5.5], (4.0, 5.5)),          # the limit closes it
    (0.0, 1.0, 5.5, 6.0, [1.0, 2.0, 4.0, 5.5], None),                # the limit reads x0's side
    (0.0, 8.0, 5.5, 6.0, [5.5], None),                               # x1 beyond the limit
    (5.5, 8.0, 5.5, 6.0, [], None),                                  # x0 is the limit
])
def test_scan(x0, x1, limit, root, want, bracket):
    probes = []
    evaluate = _scan_map(root, probes)
    b = shooting._scan(evaluate, x0, evaluate(x0) if x0 != limit else Probe(True, None, x0),
                       x1, limit)
    assert probes[1 if x0 != limit else 0:] == want
    if bracket is None:
        assert b is None
        return
    assert (b.lo, b.hi) == bracket
    assert b.at_lo.lo_side and not b.at_hi.lo_side
    assert (b.at_lo.payload, b.at_hi.payload) == bracket and b.rounds == 0


def test_scan_stops_at_a_probe_that_answers():
    # a probe on x0's side for which stop holds ends the scan: the bracket
    # [x, x]; a probe across the root still closes a bracket, stop or not
    probes = []
    evaluate = _scan_map(5.0, probes)
    b = shooting._scan(evaluate, 0.0, evaluate(0.0), 1.0, 100.0, stop=lambda p: p.payload >= 2.0)
    assert probes == [0.0, 1.0, 2.0]
    assert (b.lo, b.hi, b.at_lo.payload) == (2.0, 2.0, 2.0) and b.at_hi is b.at_lo
    del probes[:]
    b = shooting._scan(evaluate, 0.0, evaluate(0.0), 1.0, 100.0, stop=lambda p: p.payload >= 8.0)
    assert probes == [0.0, 1.0, 2.0, 4.0, 8.0] and (b.lo, b.hi) == (4.0, 8.0)


@pytest.mark.parametrize("k, s", [(2.0, 0.5), (10.0, -3.0), (10.0, 0.0), (10.0, 5.0),
                                  (40.0, -6.0), (640.0, 100.0)])
def test_source_free_volume(k, s):
    # u0 = k + s r^2/6 + r^4/120 solves Lap^3 u0 = 0; its volume in closed form
    def integrand(r):
        return 4.0 * math.pi * r * r * (k + s * r * r / 6.0 + r ** 4 / 120.0) ** -2.0
    reference, _ = quad(integrand, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=500)
    assert shooting._source_free_volume(k, s) == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize("k", [10.0, 40.0])
def test_volume_above_the_source_free_volume(k):
    # the source only lowers u (Lap^3 u = -u^-3 < 0 from the same jet), so
    # V(s) >= V0(s) from the critical datum on (V/V0 - 1 falls from 1.6e-2
    # there to 4e-6 at s = 100, k = 10)
    ce = critical_eps(k, bracket_tol=1e-6)
    spec, cfg = EquationSpec.for_order(3), default_config(3)
    for s in (-ce.eps_lo, -0.5 * ce.eps_lo, 0.0, 1.0, 10.0, 100.0):
        v = volume_of_jet(spec, shooting.jet_m3(k, -s), cfg).total
        assert v >= shooting._source_free_volume(k, s)


def test_prescribe_volume_m2(spec2):
    target = 0.5 * lambda_star()
    vs = prescribe_volume(spec2, target)
    assert vs.rel_err <= 1e-3
    assert vs.param > 0.0
    # target at the critical volume returns rho = 0, read off the closed form
    vs0 = prescribe_volume(spec2, lambda_star())
    assert vs0.param == 0.0
    assert vs0.rel_err <= 1e-3 and vs0.iterations == 0


def test_prescribe_volume_m2_out_of_range(spec2, monkeypatch):
    # the rho = 0 end is lambda* in closed form, so a target above
    # lambda* (1 + rel_tol_target) is refused before any integration
    def refuse(*args, **kwargs):
        raise AssertionError("integrate called")
    for module, name in ((shooting, "integrate"), (integrator, "integrate"),
                         (shooting, "volume_of_jet")):
        monkeypatch.setattr(module, name, refuse)
    for target in (25.0, lambda_star() * (1.0 + 1e-3) * (1.0 + 1e-12)):
        with pytest.raises(TargetOutOfRange, match="above the critical volume"):
            prescribe_volume(spec2, target, rel_tol_target=1e-3)
    with pytest.raises(TargetOutOfRange):
        prescribe_volume(spec2, -1.0)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_prescribe_volume_non_finite_target(m, target, monkeypatch):
    # ValueError naming the target, before any integration
    def refuse(*args, **kwargs):
        raise AssertionError("integrate called")
    monkeypatch.setattr(shooting, "integrate", refuse)
    monkeypatch.setattr(integrator, "integrate", refuse)
    with pytest.raises(ValueError, match=f"volume target must be finite, got {target}"):
        prescribe_volume(EquationSpec.for_order(m), target)


def test_prescribe_volume_m3(spec3, tmp_path):
    cache = EpsCache(tmp_path)
    vs = prescribe_volume(spec3, 1.0, cache=cache)
    assert vs.rel_err <= 1e-3
    k, eps = vs.param
    assert k == 10.0
    assert eps <= math.sqrt(6.0 * k / 5.0)
    # the solve stored its critical-eps table entry
    key = EpsCache.key(10.0, default_config(3), 1e-6)
    assert cache.get(key) is not None


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """An EpsCache holding the k = 10 critical entry at bracket_tol 1e-6, the
    one that every target whose law k is 10 (up to about 190) reads."""
    cache = EpsCache(tmp_path_factory.mktemp("k10"))
    critical_eps(10.0, default_config(3), 1e-6, cache=cache)
    return cache


def _count_volumes(monkeypatch):
    """The jets of every volume probe of prescribe_volume, as they happen."""
    jets = []
    volume_of_jet = shooting.volume_of_jet

    def counting(spec, jet, cfg):
        jets.append(jet)
        return volume_of_jet(spec, jet, cfg)

    monkeypatch.setattr(shooting, "volume_of_jet", counting)
    return jets


def _count_critical_solves(monkeypatch):
    """The k of every critical_eps call of prescribe_volume."""
    solved = []
    critical_eps_ = shooting.critical_eps

    def recording(k, *args, **kwargs):
        solved.append(k)
        return critical_eps_(k, *args, **kwargs)

    monkeypatch.setattr(shooting, "critical_eps", recording)
    return solved


# k_used, at least 10, is the k whose law volume is the target plus 1 %
@pytest.mark.parametrize("target, k_used", [
    (0.05, 10.0), (0.5, 10.0), (3.0, 10.0), (20.0, 10.0), (100.0, 10.0), (191.0, 10.13),
    (195.0, 10.79), (230.0, 18.45), (300.0, 48.1), (400.0, 145.7), (450.0, 231.5),
    (480.0, 298.8), (490.0, 324.3), (600.0, 725.2), (1000.0, 5575.0)])
def test_prescribe_volume_m3_takes_two_integrations(spec3, warm_cache, monkeypatch,
                                                    target, k_used):
    # the first probe, aimed by the source-free volume and its model through
    # the critical entry, reads within 8.6e-4 above the target: one volume
    # probe, and one critical solve, at the law's k (a cache hit at k = 10)
    jets = _count_volumes(monkeypatch)
    solved = _count_critical_solves(monkeypatch)
    vs = prescribe_volume(spec3, target, cache=warm_cache)
    assert vs.rel_err <= 1e-3
    assert solved == [vs.k_used] and vs.k_used == pytest.approx(k_used, rel=5e-4)
    assert (vs.k_used == 10.0 if k_used == 10.0
            else shooting._volume_law(vs.k_used) == pytest.approx(1.01 * target, rel=1e-12))
    assert len(jets) == vs.iterations == 1


def test_prescribe_volume_m3_critical_volume_short_of_the_target(spec3, monkeypatch):
    # a V_crit the law overrates by more than its margin: PolyshootError
    # after the one critical solve, with no second k; within rel_tol_target
    # of the target it is the answer itself
    solved = []

    def critical(k, *args, **kwargs):
        solved.append(k)
        return shooting.CriticalEps(
            k=k, eps_lo=1.0, eps_hi=1.0, horizon_used=100.0, iterations=0, bracket_tol=1e-6,
            precision="double", volume=scale * shooting._volume_law(k), volume_err=0.0,
            delta2_at_horizon=0.0, partial_integral=1.0)

    monkeypatch.setattr(shooting, "critical_eps", critical)
    jets = _count_volumes(monkeypatch)
    scale = 0.9
    with pytest.raises(PolyshootError, match=r"^V_crit\(351\.293\) = 454\.5 below target 500$"):
        prescribe_volume(spec3, 500.0)
    assert solved == [pytest.approx(351.293, rel=1e-6)] and jets == []
    scale = 0.99  # V_crit = 0.9999 target
    vs = prescribe_volume(spec3, 500.0)
    assert vs.param == (solved[-1], 1.0) and vs.iterations == 0 and jets == []


def test_prescribe_volume_m3_above_the_ceiling(spec3, monkeypatch):
    # a target whose law k exceeds 1e4 is refused before any integration,
    # and the message names the largest reachable target
    def refuse(*args, **kwargs):
        raise AssertionError("integrate called")
    for module, name in ((shooting, "integrate"), (integrator, "integrate"),
                         (shooting, "volume_of_jet"), (shooting, "critical_eps")):
        monkeypatch.setattr(module, name, refuse)
    top = shooting._volume_law(1e4) / 1.01
    for target in (top * (1.0 + 1e-12), 2000.0, sys.float_info.max):
        with pytest.raises(TargetOutOfRange, match=r"above 1157\.34, the largest reachable"):
            prescribe_volume(spec3, target)
    with pytest.raises(AssertionError, match="integrate called"):  # just below: a solve
        prescribe_volume(spec3, top * (1.0 - 1e-12))


def test_prescribe_volume_m3_below_the_floor(spec3, monkeypatch):
    # V >= V0, so a target below V0(1e9), the source-free volume at the
    # scan's limit, cannot be reached: refused before any integration
    def refuse(*args, **kwargs):
        raise AssertionError("integrate called")
    for module, name in ((shooting, "integrate"), (integrator, "integrate"),
                         (shooting, "volume_of_jet"), (shooting, "critical_eps")):
        monkeypatch.setattr(module, name, refuse)
    floor = shooting._source_free_volume(10.0, 1e9)
    for target in (floor * (1.0 - 1e-12), 1e-12, sys.float_info.min):
        with pytest.raises(TargetOutOfRange, match=r"below 1\.45053e-12, the source-free volume"):
            prescribe_volume(spec3, target)
    with pytest.raises(AssertionError, match="integrate called"):  # at the floor: a solve
        prescribe_volume(spec3, floor)


def test_prescribe_volume_m3_cold_solve(spec3, tmp_path, monkeypatch):
    # a cold target runs one critical solve, at the law's k; the same
    # targets again read it from the cache and integrate volumes only
    runs = []
    integrate_ = shooting.integrate

    def counting(*args, **kwargs):
        runs.append(args[1])
        return integrate_(*args, **kwargs)

    monkeypatch.setattr(shooting, "integrate", counting)
    solved = _count_critical_solves(monkeypatch)
    jets = _count_volumes(monkeypatch)
    cache = EpsCache(tmp_path)
    cold = [prescribe_volume(spec3, target, cache=cache) for target in (550.0, 1000.0)]
    assert solved == [vs.k_used for vs in cold] and 200.0 < cold[0].k_used < 640.0
    assert all(vs.rel_err <= 1e-3 for vs in cold)
    assert len(runs) + len(jets) <= 16  # 6 + 7 critical probes, 1 + 1 volume probes
    del runs[:], jets[:]
    warm = [prescribe_volume(spec3, target, cache=cache) for target in (550.0, 1000.0)]
    assert runs == [] and warm == cold and len(jets) == sum(vs.iterations for vs in cold)


@pytest.mark.parametrize("target", [1.0, 3.0, 5.0, 10.0, 15.0])
def test_prescribe_volume_m2_integration_count(spec2, monkeypatch, target):
    # the doubling scan from rho = 1 and the refinement of 1 - (target/V)^(2/9);
    # the rho = 0 end is lambda*, not a probe (5 probes when it was one)
    jets = _count_volumes(monkeypatch)
    vs = prescribe_volume(spec2, target)
    assert vs.rel_err <= 1e-3
    assert len(jets) == vs.iterations <= 4
    assert all(jet.lap_values[0] > shooting.jet_m2(0.0).lap_values[0] for jet in jets)


def _fake_critical_entry(monkeypatch):
    """A k = 10 critical entry (eps_lo 3, V_crit 200) that critical_eps returns."""
    ce = shooting.CriticalEps(
        k=10.0, eps_lo=3.0, eps_hi=3.0 + 1e-6, horizon_used=100.0, iterations=0,
        bracket_tol=1e-6, precision="double", volume=200.0, volume_err=0.0,
        delta2_at_horizon=0.0, partial_integral=1.0)
    monkeypatch.setattr(shooting, "critical_eps", lambda *args, **kwargs: ce)
    return ce


def _first_probe(ce, target):
    """s1, where the model V = V0 + a V0^2 through the critical entry meets the target."""
    def v0(s):  # the source-free volume
        return math.pi ** 2 * (6.0 / (s + ce.eps_cap)) ** 1.5 / math.sqrt(ce.k)
    a = (ce.volume / v0(-ce.eps_lo) - 1.0) / v0(-ce.eps_lo)
    w = 2.0 * target / (1.0 + math.sqrt(1.0 + 4.0 * a * target))
    s1 = 6.0 * (math.pi ** 2 / (w * math.sqrt(ce.k))) ** (2.0 / 3.0) - ce.eps_cap
    assert v0(s1) + a * v0(s1) ** 2 == pytest.approx(target, rel=1e-12)
    return s1


def _fake_volumes(monkeypatch, ce, total):
    """volume_of_jet as total(s) at k = ce.k, s > -eps_lo; the probed s in order."""
    probes = []

    def volume_of_jet(spec, jet, cfg):
        s = jet.lap_values[1]
        assert jet.lap_values[0] == ce.k and s > -ce.eps_lo
        probes.append(s)
        return VolumeEstimate(core=0.0, tail=0.0, err_estimate=0.0, tail_model=None,
                              total=total(s))

    monkeypatch.setattr(shooting, "volume_of_jet", volume_of_jet)
    return probes


@pytest.mark.parametrize("target", [150.0, 1.0])
def test_prescribe_volume_m3_scan_steps_away_from_the_critical_entry(spec3, monkeypatch,
                                                                    target):
    # a volume map whose V^(-2/3) rises ten times slower than that of the
    # source-free volume through the critical entry: the first probe reads V
    # far above the target, and the scan doubles its distance from -eps_lo,
    # never reaching s <= -eps_lo, where runs are not entire (the first probe
    # is below s = 0 at target 150, above at 1)
    ce = _fake_critical_entry(monkeypatch)
    slope = 0.1 / (ce.eps_cap - ce.eps_lo)
    probes = _fake_volumes(monkeypatch, ce,
                           lambda s: ce.volume * (1.0 + slope * (s + ce.eps_lo)) ** -1.5)
    vs = prescribe_volume(spec3, target)
    s1 = _first_probe(ce, target)
    assert probes[0] == s1 and (s1 < 0.0) == (target == 150.0)
    # 1, 2, 4, 8, 16 times the first distance: the fifth probe crosses
    distances = [s + ce.eps_lo for s in probes[:5]]
    assert distances == pytest.approx([(s1 + ce.eps_lo) * 2 ** i for i in range(5)])
    assert vs.rel_err <= 1e-3
    assert vs.param[1] < ce.eps_lo


@pytest.mark.parametrize("target", [150.0, 1.0])
def test_prescribe_volume_m3_first_probe_within_tolerance_answers(spec3, monkeypatch, target):
    # a first probe that reads V = target (1 + 5e-4), on the lo side and
    # within rel_tol_target: the scan stops there, with no second probe
    ce = _fake_critical_entry(monkeypatch)
    probes = _fake_volumes(monkeypatch, ce, lambda s: target * (1.0 + 5e-4))
    vs = prescribe_volume(spec3, target)
    s1 = _first_probe(ce, target)
    assert probes == [s1] and vs.iterations == 1
    assert vs.param == (ce.k, -s1) and vs.achieved == target * (1.0 + 5e-4)


def test_prescribe_volume_m3_small_target(spec3, warm_cache):
    # s = Lap u(0) near 5.7e3 at k = 10, where V ~ s^(-3/2)
    vs = prescribe_volume(spec3, 1e-4, cache=warm_cache)
    assert vs.k_used == 10.0
    assert vs.rel_err <= 1e-3


def test_prescribe_volume_m3_at_the_critical_volume(spec3, warm_cache, monkeypatch):
    # a target within rel_tol_target of V_crit at its k: the critical entry
    # itself, (k, eps_lo), with no volume probe (V_crit(10) = 192.216)
    ce = critical_eps(10.0, default_config(3), 1e-6, cache=warm_cache)
    jets = _count_volumes(monkeypatch)
    vs = prescribe_volume(spec3, 190.0, rel_tol_target=0.02, cache=warm_cache)
    assert vs.k_used == 10.0 and vs.rel_err == pytest.approx(ce.volume / 190.0 - 1.0)
    assert vs.param == (10.0, ce.eps_lo)
    assert jets == [] and vs.iterations == 0


def test_cache_roundtrip(tmp_path):
    cache = EpsCache(tmp_path)
    cfg = default_config(3)
    ce = critical_eps(10.0, cfg, bracket_tol=1e-3, cache=cache)
    assert not ce.cache_hit
    raw = json.loads((tmp_path / "critical_eps.json").read_text())
    assert raw["schema"] == EpsCache.SCHEMA
    key = EpsCache.key(10.0, cfg, 1e-3)
    assert key in raw["entries"]
    entry = raw["entries"][key]
    assert set(entry) == set(EpsCache.FIELDS)  # eps_star and precision are not stored
    assert entry["volume"] > 0
    ce2 = critical_eps(10.0, cfg, bracket_tol=1e-3, cache=cache)
    assert ce2.cache_hit
    # eps_star and width come from the same ends on a hit: the same bits
    assert (ce2.eps_star, ce2.width, ce2.precision) == (ce.eps_star, ce.width, ce.precision)
    # different tolerance is a different key
    key_other = EpsCache.key(10.0, cfg, 1e-4)
    assert cache.get(key_other) is None


def test_cache_file_is_the_indented_dump_of_its_entries(tmp_path):
    # the file is written whole through a temp file beside it and a rename
    cache = EpsCache(tmp_path / "sub")
    cache.put("k", {"b": 1.5, "a": [1, 2]})
    cache.put("j", {"c": None})
    want = {"schema": EpsCache.SCHEMA, "entries": {"k": {"b": 1.5, "a": [1, 2]},
                                                  "j": {"c": None}}}
    assert cache.path.read_text() == json.dumps(want, indent=1, sort_keys=True)
    assert sorted(p.name for p in cache.path.parent.iterdir()) == [
        "critical_eps.json", "critical_eps.json.lock"]


def test_cache_hit_carries_volume(tmp_path, spec3, monkeypatch):
    cache = EpsCache(tmp_path)
    ce = critical_eps(10.0, bracket_tol=1e-3, cache=cache)
    v = volume(spec3, ce.traj_lo)
    assert (ce.volume, ce.volume_err) == (v.total, v.err_estimate)
    calls = []
    monkeypatch.setattr(shooting, "integrate", lambda *a, **kw: calls.append(a))
    hit = critical_eps(10.0, bracket_tol=1e-3, cache=cache)
    assert hit.cache_hit and not calls
    assert (hit.volume, hit.volume_err) == (ce.volume, ce.volume_err)


# an entry holding every EpsCache.FIELDS key, each a number
_ENTRY = {"eps_lo": 3.0, "eps_hi": 3.0, "volume": 1.0, "volume_err": 0.0,
          "delta2_at_horizon": 0.0, "partial_integral": 1}


@pytest.mark.parametrize("field, value", [
    ("abs_tol", 1e-11), ("u_floor", 1e-7), ("rel_tol", 1e-9), ("precision", "extended"),
    ("dense_output_stride", 5e-3), ("max_steps", 100_000)])
def test_cache_key_covers_whole_config(tmp_path, field, value):
    cache = EpsCache(tmp_path)
    cfg = default_config(3)
    cache.put(EpsCache.key(10.0, cfg, 1e-6), _ENTRY)
    assert cache.get(EpsCache.key(10, cfg, 1e-6)) is not None
    if field in ("u_floor", "max_steps"):  # integrator constants, not config: not in the key
        assert field not in json.loads(EpsCache.key(10.0, cfg, 1e-6))
        return
    assert cache.get(EpsCache.key(10.0, replace(cfg, **{field: value}), 1e-6)) is None


def test_cache_ignores_bad_schema(tmp_path):
    path = tmp_path / "critical_eps.json"
    path.write_text(json.dumps({"schema": 99, "entries": {"x": {}}}))
    cache = EpsCache(tmp_path)
    assert cache.get("x") is None


@pytest.mark.parametrize("shape", ["list", "entries_list", "entries_string",
                                   "entry_lacks_a_field", "entry_not_a_map", "not_utf8",
                                   "entry_value_not_a_number", "entry_value_not_finite"])
def test_cache_of_another_shape_is_a_miss(tmp_path, shape):
    # JSON of another shape, like a file that cannot be read or decoded,
    # reads as an empty cache or a missing entry, and the next put
    # rewrites it
    key = EpsCache.key(10.0, default_config(3), 1e-6)
    cache = EpsCache(tmp_path)
    partial = {name: v for name, v in _ENTRY.items() if name != "eps_hi"}
    raw = {"list": "[]",
           "entries_list": json.dumps({"schema": EpsCache.SCHEMA, "entries": []}),
           "entries_string": json.dumps({"schema": EpsCache.SCHEMA, "entries": "x"}),
           "entry_lacks_a_field": json.dumps({"schema": EpsCache.SCHEMA,
                                              "entries": {key: partial}}),
           "entry_not_a_map": json.dumps({"schema": EpsCache.SCHEMA, "entries": {key: 3.0}}),
           # every field there, but a string, null or bool is no number
           "entry_value_not_a_number": json.dumps({"schema": EpsCache.SCHEMA, "entries": {
               key: {**_ENTRY, "eps_lo": "x", "eps_hi": None, "volume": True}}}),
           # json reads NaN and Infinity as floats (a hit gave eps_star nan)
           "entry_value_not_finite": json.dumps({"schema": EpsCache.SCHEMA, "entries": {
               key: {**_ENTRY, "eps_lo": math.nan, "eps_hi": math.inf}}})}
    if shape == "not_utf8":
        cache.path.write_bytes(b"\xff\xfe{")
    else:
        cache.path.write_text(raw[shape])
    assert cache.get(key) is None
    cache.put(key, _ENTRY)
    assert cache.get(key) == _ENTRY


def _put_many(directory, worker, n_puts, barrier):
    cache = EpsCache(directory)
    barrier.wait(timeout=60)
    for i in range(n_puts):
        cache.put(f"worker={worker}|i={i}", {"eps_star": float(i), "volume": 1.0})


def test_cache_concurrent_puts_keep_every_entry(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    barrier = ctx.Barrier(3)
    procs = [ctx.Process(target=_put_many, args=(str(tmp_path), w, 40, barrier))
             for w in range(3)]
    for proc in procs:
        proc.start()
    try:
        for proc in procs:
            proc.join(timeout=120)
        assert not any(proc.is_alive() for proc in procs)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.kill()
    assert [proc.exitcode for proc in procs] == [0, 0, 0]
    entries = json.loads((tmp_path / "critical_eps.json").read_text())["entries"]
    assert len(entries) == 120


@pytest.mark.parametrize("tol", [1e-18, 5e-324])
def test_refine_bracket_stops_at_float_resolution(tol):
    # a tol below the spacing of floats at the root ends as zeroin does, at
    # tol + 4 eps max(|lo|, |hi|); the cap on the rounds turns a refinement
    # that would not end into a failure
    f = _ANALYTIC["linear"]

    def evaluate(x):
        return Probe(*f(x), payload=x)

    b = Bracket(0.0, 1.0, evaluate(0.0), evaluate(1.0))
    refine_bracket(evaluate, b, tol, stop=lambda br: br.rounds >= 200)
    assert b.rounds < 200 and b.lo < _ROOT <= b.hi
    assert b.width <= tol + 4.0 * sys.float_info.epsilon * max(abs(b.lo), abs(b.hi))


def test_critical_eps_below_the_rounding_width_of_eps(monkeypatch):
    # eps is a float in both precisions, so a bracket_tol under its spacing
    # at eps* stops at about 4 ulp; the cap on the probes turns a solve that
    # would not end into a failure
    probes, probe_ = [], shooting._eps_probe

    def capped(*args, **kwargs):
        probes.append(args)
        if len(probes) > 60:
            raise RuntimeError("the refinement does not end")
        return probe_(*args, **kwargs)

    monkeypatch.setattr(shooting, "_eps_probe", capped)
    ce = critical_eps(10.0, bracket_tol=1e-17)
    assert 0.0 < ce.width <= 1e-17 + 4.0 * sys.float_info.epsilon * ce.eps_hi
    assert ce.eps_star == pytest.approx(3.075176, abs=1e-6)


@pytest.mark.parametrize("root", [0.6232655185893089, 0.29280804238748326, 0.0868761715425752])
def test_midpoint_round_is_not_a_stall(root):
    # with a residual at both ends, a bisection is followed by an
    # interpolation step: the flat residual's steps are far under half the
    # bisection's
    before, points = [], []

    def evaluate(x):
        points.append(x)
        return Probe(x < root, (root - x) ** 9, x)

    def stop(br):
        before.append((br.lo, br.hi, br.at_lo.residual != br.at_hi.residual))
        return False

    b = Bracket(0.0, 1.0, evaluate(0.0), evaluate(1.0))
    points.clear()
    refine_bracket(evaluate, b, 1e-9, stop=stop)
    mids = [x == 0.5 * (lo + hi) for (lo, hi, _), x in zip(before, points)]
    assert any(mids)
    for i in range(1, len(points)):
        assert not (mids[i - 1] and mids[i] and before[i][2]), i


def test_cache_schema_3_is_a_miss(tmp_path):
    # schema 3 entries hold volumes from Simpson on the sample rows, schema 4
    # entries partial integrals from it, schema 5 entries both from
    # Dormand-Prince steps and the 5-point rule, schema 6 entries from
    # series steps after a launch at a configured radius, part of the key,
    # schema 7 entries from an origin series through s = r^2, which moves
    # the k=160 entry at the rounding level, schema 8 entries from Illinois
    # false position on w_inf, whose brackets Brent's zeroin on h moves,
    # schema 9 entries from probes that ran into the collapse with no
    # residual, whose brackets the stop at the top zero moves, schema 10
    # entries from probes whose top zero was bisected, not located by Brent,
    # schema 11 entries from brackets refined from [0, sqrt(6k/5)], which
    # the large-k seed moves within bracket_tol, schema 12 entries from
    # residuals of E = w + r w' at the end of probes run to the top zero,
    # which the tail-corrected limit and the stop once certified move
    # within bracket_tol, schema 13 entries holding eps_star and precision,
    # whose values were not checked to be numbers, schema 14 entries whose
    # keys held u_floor and max_steps
    cfg = default_config(3)
    key = EpsCache.key(10.0, cfg, 1e-6)
    cache = EpsCache(tmp_path)
    assert EpsCache.SCHEMA == 15
    for schema in (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14):
        cache.path.write_text(json.dumps({"schema": schema, "entries": {key: _ENTRY}}))
        assert cache.get(key) is None
    cache.put(key, _ENTRY)
    assert cache.get(key) == _ENTRY
