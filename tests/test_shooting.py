import json
import math
import multiprocessing

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
)
from polyshoot.shooting import EpsCache, lap_limit_estimate


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


def test_bisection_width_arithmetic(ce10):
    cap = math.sqrt(12.0)
    assert ce10.width <= cap / 2 ** (ce10.iterations - 1)
    assert ce10.width > cap / 2 ** (ce10.iterations + 1)


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


def test_extended_precision_retry_path():
    # force the retry trigger with an absurd width threshold: the run must
    # complete in extended precision with a consistent bracket
    ce = critical_eps(10.0, bracket_tol=1e-3, extended_retry_width=10.0)
    assert ce.precision == "extended"
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
    assert raw["schema"] == 1
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
