import json
import math
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from polyshoot import (
    BracketFailure,
    EquationSpec,
    HorizonTooShort,
    IntegratorConfig,
    Jet,
    TableExhausted,
    TargetOutOfRange,
    collapse_boundary_m2,
    critical_eps,
    critical_eps_residual,
    default_config,
    integrate,
    is_entire,
    lambda_star,
    prescribe_volume,
    smallest_valid_k,
    volume,
)
from polyshoot import shooting
from polyshoot.core import EntirePositive, Trajectory
from polyshoot.integrator import radial_double_integral
from polyshoot.shooting import (Bracket, EpsCache, Probe, lap_limit_estimate,
                                refine_bracket)


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
    # flat at the root: false position and the secant crawl, the forced
    # bisection keeps the worst-case bound
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
    # worst case: two rounds that fail to halve, then a bisection
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


def test_critical_eps_integration_count(monkeypatch):
    calls = []
    integrate_ = shooting.integrate

    def counting(*args, **kwargs):
        calls.append(args[1])
        return integrate_(*args, **kwargs)

    monkeypatch.setattr(shooting, "integrate", counting)
    critical_eps(10.0, bracket_tol=1e-6)
    assert len(calls) <= 16  # plain bisection makes 24


def test_critical_eps_reads_each_end_state_once(monkeypatch):
    # a probe reads the end state of an entire integration once for
    # is_entire and once for w_inf, and the solve once more for the
    # critical balance; a collapse's end state is never read
    entire, reads = [], []
    integrate_, state = shooting.integrate, Trajectory.state

    def counting_integrate(*args, **kwargs):
        traj = integrate_(*args, **kwargs)
        entire.append(isinstance(traj.verdict, EntirePositive))
        return traj

    def counting_state(self, i):
        reads.append(i)
        return state(self, i)

    monkeypatch.setattr(shooting, "integrate", counting_integrate)
    monkeypatch.setattr(Trajectory, "state", counting_state)
    critical_eps(10.0, bracket_tol=1e-3)
    assert 0 < len(reads) <= 2 * sum(entire) + 1


def test_envelope_at_entire_end(ce10):
    traj = ce10.traj_lo
    k, eps = 10.0, ce10.eps_lo
    lower = k - eps * traj.r ** 2 / 6.0
    assert np.min(traj.u - lower) >= -1e-6
    assert np.min(lower + traj.r ** 4 / 120.0 - traj.u) >= -1e-6


def test_critical_eps_residual_behaviour(ce10, spec3):
    res = critical_eps_residual(ce10)
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
    with pytest.raises((BracketFailure, ValueError)):
        critical_eps(1.0, k_min=0.5, bracket_tol=1e-3)
    # k below configured k_min is rejected outright
    with pytest.raises(ValueError):
        critical_eps(3.0)
    # horizon too short: the cap trajectory cannot be told apart
    with pytest.raises(BracketFailure):
        critical_eps(10.0, default_config(3, r_max=3.0), bracket_tol=1e-3)


def test_smallest_valid_k():
    k_min, detail = smallest_valid_k(k_grid=(1, 2, 5, 10))
    assert k_min is not None and k_min <= 10
    assert any(not d["valid"] for d in detail) or k_min == 1


@pytest.mark.parametrize("precision", ["double", "extended"])
def test_critical_eps_runs_at_config_precision(monkeypatch, precision):
    seen = []
    integrate = shooting.integrate

    def recording(spec, jet, cfg):
        seen.append(cfg.precision)
        return integrate(spec, jet, cfg)

    monkeypatch.setattr(shooting, "integrate", recording)
    ce = critical_eps(10.0, default_config(3, precision=precision), bracket_tol=1e-3)
    assert ce.precision == precision and set(seen) == {precision}
    assert ce.eps_star == pytest.approx(3.0752, abs=2e-3)


def test_collapse_boundary(spec2):
    b = collapse_boundary_m2()
    assert -1e-3 <= b <= 0.0


def test_collapse_boundary_horizon_guard():
    with pytest.raises((HorizonTooShort, BracketFailure)):
        collapse_boundary_m2(default_config(2, r_max=20.0), tol_b=1e-6)


def test_prescribe_volume_m2(spec2):
    target = 0.5 * lambda_star()
    vs = prescribe_volume(spec2, target)
    assert vs.rel_err <= 1e-3
    assert vs.param > 0.0
    assert vs.monotone_observed
    # target at the critical volume returns rho = 0
    vs0 = prescribe_volume(spec2, lambda_star())
    assert vs0.param == 0.0
    assert vs0.rel_err <= 1e-3


def test_prescribe_volume_m2_out_of_range(spec2):
    with pytest.raises(TargetOutOfRange):
        prescribe_volume(spec2, 25.0)
    with pytest.raises(TargetOutOfRange):
        prescribe_volume(spec2, -1.0)


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


def test_prescribe_volume_m3_table_exhausted(spec3, tmp_path):
    with pytest.raises(TableExhausted):
        prescribe_volume(spec3, 1e6, cache=EpsCache(tmp_path), table_k=(10.0,))


def test_cache_roundtrip(tmp_path):
    cache = EpsCache(tmp_path)
    cfg = default_config(3)
    ce = critical_eps(10.0, cfg, bracket_tol=1e-3, cache=cache)
    assert not ce.cache_hit
    raw = json.loads((tmp_path / "critical_eps.json").read_text())
    assert raw["schema"] == EpsCache.SCHEMA
    key = EpsCache.key(10.0, cfg, 1e-3)
    assert key in raw["entries"]
    assert raw["entries"][key]["eps_star"] == pytest.approx(ce.eps_star)
    assert raw["entries"][key]["volume"] > 0
    ce2 = critical_eps(10.0, cfg, bracket_tol=1e-3, cache=cache)
    assert ce2.cache_hit
    assert ce2.eps_star == pytest.approx(ce.eps_star, abs=1e-12)
    # different tolerance is a different key
    key_other = EpsCache.key(10.0, cfg, 1e-4)
    assert cache.get(key_other) is None


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


@pytest.mark.parametrize("field, value", [
    ("abs_tol", 1e-11), ("u_floor", 1e-7), ("rel_tol", 1e-9), ("precision", "extended"),
    ("dense_output_stride", 5e-3), ("max_steps", 100_000)])
def test_cache_key_covers_whole_config(tmp_path, field, value):
    cache = EpsCache(tmp_path)
    cfg = default_config(3)
    cache.put(EpsCache.key(10.0, cfg, 1e-6), {"eps_star": 3.0})
    assert cache.get(EpsCache.key(10, cfg, 1e-6)) is not None
    assert cache.get(EpsCache.key(10.0, replace(cfg, **{field: value}), 1e-6)) is None


def test_cache_ignores_bad_schema(tmp_path):
    path = tmp_path / "critical_eps.json"
    path.write_text(json.dumps({"schema": 99, "entries": {"x": {}}}))
    cache = EpsCache(tmp_path)
    assert cache.get("x") is None


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


@pytest.mark.parametrize("root", [0.6232655185893089, 0.29280804238748326, 0.0868761715425752])
def test_midpoint_round_is_not_a_stall(root):
    # a midpoint leaves half the width up to rounding; counting a hair over
    # half as a stall forced a second bisection before false position
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
    # the k=160 entry at the rounding level
    cfg = default_config(3)
    key = EpsCache.key(10.0, cfg, 1e-6)
    cache = EpsCache(tmp_path)
    assert EpsCache.SCHEMA == 8
    for schema in (3, 4, 5, 6, 7):
        cache.path.write_text(json.dumps(
            {"schema": schema, "entries": {key: {"eps_star": 3.0, "volume": 1.0}}}))
        assert cache.get(key) is None
    cache.put(key, {"eps_star": 3.0})
    assert cache.get(key) == {"eps_star": 3.0}
