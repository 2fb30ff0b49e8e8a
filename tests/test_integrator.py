import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyshoot import (
    Collapsed,
    EquationSpec,
    EntirePositive,
    Inconclusive,
    IntegratorConfig,
    Jet,
    WindowTooNarrow,
    classify_growth,
    fit_growth,
    formula1_check,
    integrate,
    ode_residual_max,
)
from polyshoot.core import Trajectory
from polyshoot.integrator import _tableau

from conftest import common_grid


def test_tableau_consistency():
    # dense output at theta=1 must reproduce the 5th-order weights
    A, B, C, E, P = _tableau(np.float64)
    assert np.allclose(P.sum(axis=1), B, atol=1e-15)
    assert np.allclose(A[6], B, atol=1e-15)
    # order-1 consistency of the stage nodes
    assert np.allclose(A.sum(axis=1), C, atol=1e-15)


def test_extended_tableau_available():
    A, B, C, E, P = _tableau(np.longdouble)
    assert A.dtype == np.longdouble
    assert float(np.abs(P.sum(axis=1) - B).max()) < 1e-18


def test_u0_tracking_within_ten_rel_tol(spec2, u0, traj_u0_50):
    cfg_tol = 1e-8
    mask = traj_u0_50.r >= 1e-3
    ref = u0.eval(traj_u0_50.r[mask], 0)
    rel = np.max(np.abs(traj_u0_50.u[mask] - ref) / ref)
    assert rel <= 10 * cfg_tol
    assert isinstance(traj_u0_50.verdict, EntirePositive)


def test_u1_tracking_within_ten_rel_tol(spec3, u1, traj_u1_10):
    mask = traj_u1_10.r >= 1e-3
    ref = u1.eval(traj_u1_10.r[mask], 0)
    rel = np.max(np.abs(traj_u1_10.u[mask] - ref) / ref)
    assert rel <= 10 * 1e-8


def test_all_slots_track_closed_form(u0, traj_u0_50):
    for slot in range(4):
        ref = u0.eval(traj_u0_50.r, slot)
        err = np.abs(traj_u0_50.y[:, slot] - ref)
        assert np.max(err / np.maximum(0.02, np.abs(ref))) < 2e-6


def test_dense_output_matches_samples(traj_u0_50):
    d = traj_u0_50.dense
    r_probe = np.array([0.5, 1.7, 23.4])
    y_probe = d(r_probe)
    for rq, yq in zip(r_probe, y_probe):
        i = np.argmin(np.abs(traj_u0_50.r - rq))
        if abs(traj_u0_50.r[i] - rq) < 1e-12:
            assert np.allclose(traj_u0_50.y[i], yq, rtol=1e-12)
    # derivative of the u-slot equals the u'-slot
    yd = d(r_probe, derivative=1)
    assert np.allclose(yd[:, 0], y_probe[:, 1], rtol=1e-6, atol=1e-9)


def test_collapse_verdict_and_cross_tolerance(spec2, u0):
    jet = Jet((u0.eval(0.0, 0) - 0.1, u0.eval(0.0, 2)))
    coarse = integrate(spec2, jet, IntegratorConfig(r_max=1000.0))
    fine = integrate(spec2, jet,
                     IntegratorConfig(r_max=1000.0, rel_tol=1e-9, abs_tol=1e-11))
    assert isinstance(coarse.verdict, Collapsed)
    assert isinstance(fine.verdict, Collapsed)
    assert coarse.verdict.r_star == pytest.approx(fine.verdict.r_star, abs=1e-8)
    assert coarse.verdict.r_star == pytest.approx(0.7715818, abs=1e-4)
    coarse.validate()
    # floor event recorded at r_star
    kinds = [e.kind for e in coarse.events]
    assert "u_floor" in kinds


def test_m3_entire_with_positive_second_datum(spec3):
    traj = integrate(spec3, Jet((10.0, 1.0, 1.0)), IntegratorConfig(r_max=100.0))
    assert isinstance(traj.verdict, EntirePositive)
    assert traj.verdict.growth_exponent == pytest.approx(4.0, abs=0.1)


def test_m3_collapse_inside_horizon(spec3):
    eps_cap = np.sqrt(12.0)
    traj = integrate(spec3, Jet((10.0, -eps_cap, 1.0)), IntegratorConfig(r_max=100.0))
    assert isinstance(traj.verdict, Collapsed)
    assert traj.verdict.r_star < 10.0
    # the top Laplacian loses positivity before the floor is reached
    levels = [e.level for e in traj.events if e.kind == "lap_sign_change"]
    assert 2 in levels


def test_growth_exponents(spec2, spec3, u0, u1, traj_u0_1000):
    assert classify_growth(traj_u0_1000, (100.0, 1000.0)) == pytest.approx(1.0, abs=0.05)
    jet_q = Jet((u0.eval(0.0, 0) + 1.0, u0.eval(0.0, 2)))
    traj_q = integrate(spec2, jet_q, IntegratorConfig(r_max=1000.0))
    assert classify_growth(traj_q) == pytest.approx(2.0, abs=0.1)
    traj_c = integrate(spec3, u1.jet(), IntegratorConfig(r_max=1000.0))
    assert classify_growth(traj_c, (100.0, 1000.0)) == pytest.approx(3.0, abs=0.05)


def test_growth_fit_reports_limit(traj_u0_1000):
    fit = fit_growth(traj_u0_1000, (100.0, 1000.0))
    assert fit.gamma_rounded == 1
    # u ~ r for the linear profile, so the limit estimate is ~1
    assert fit.limit_estimate == pytest.approx(1.0, rel=1e-3)
    assert fit.n_samples > 10


def test_growth_window_validation(traj_u0_50):
    with pytest.raises(ValueError):
        classify_growth(traj_u0_50, (10.0, 60.0))   # beyond r_end
    with pytest.raises(ValueError):
        classify_growth(traj_u0_50, (1.0, 50.0))    # reaches too far in
    with pytest.raises(WindowTooNarrow):
        classify_growth(traj_u0_50, (49.98, 50.0))  # too few samples
    collapsed = integrate(
        EquationSpec_for_order2(), Jet((0.3, 5.9)), IntegratorConfig(r_max=100.0))
    with pytest.raises(ValueError):
        classify_growth(collapsed)


def EquationSpec_for_order2():
    from polyshoot import EquationSpec

    return EquationSpec.for_order(2)


def test_formula1_u0(traj_u0_50):
    assert formula1_check(traj_u0_50, 0) <= 1e-6


def test_formula1_constant_laplacian(spec2):
    # synthetic trajectory with lap u = c exactly: u = 1 + c r^2/6
    c = 0.8
    r = np.linspace(0.0, 10.0, 2001)
    y = np.zeros((r.size, 4))
    y[:, 0] = 1.0 + c * r ** 2 / 6.0
    y[:, 1] = c * r / 3.0
    y[:, 2] = c
    traj = Trajectory(spec=spec2, jet=Jet((1.0, c)), r=r, y=y,
                      verdict=EntirePositive(growth_exponent=2.0), r_end=10.0)
    assert formula1_check(traj, 0) < 1e-13


def test_formula1_collapsed_top_level(spec2, u0):
    # the top-level integrand u^-7 steepens toward the wall, so the sample
    # stride must resolve it; 1e-3 suffices for the defect bound
    jet = Jet((u0.eval(0.0, 0) - 0.2, u0.eval(0.0, 2)))
    traj = integrate(spec2, jet,
                     IntegratorConfig(r_max=1000.0, dense_output_stride=1e-3))
    assert isinstance(traj.verdict, Collapsed)
    defect = formula1_check(traj, 1, r_hi=0.9 * traj.verdict.r_star)
    assert defect <= 1e-5
    # two-tolerance cross-check of the same defect
    fine = integrate(spec2, jet,
                     IntegratorConfig(r_max=1000.0, dense_output_stride=1e-3,
                                      rel_tol=1e-9, abs_tol=1e-11))
    defect_fine = formula1_check(fine, 1, r_hi=0.9 * fine.verdict.r_star)
    assert defect_fine <= 1e-5


def test_ode_residual_dense(traj_u0_50):
    assert ode_residual_max(traj_u0_50) < 1e-5


def test_envelope_bounds_m3(spec3):
    k, eps = 10.0, 1.5
    traj = integrate(spec3, Jet((k, -eps, 1.0)), IntegratorConfig(r_max=100.0))
    assert isinstance(traj.verdict, EntirePositive)
    lower = k - eps * traj.r ** 2 / 6.0
    upper = lower + traj.r ** 4 / 120.0
    assert np.min(traj.u - lower) >= -1e-6
    assert np.min(upper - traj.u) >= -1e-6


def test_lap2_monotone_decreasing_m3(spec3):
    traj = integrate(spec3, Jet((10.0, 0.5, 1.0)), IntegratorConfig(r_max=100.0))
    lap2 = traj.y[:, 4]
    assert np.all(np.diff(lap2) <= 1e-12)
    assert np.all(lap2 > 0)


def test_entire_m2_has_positive_laplacian(spec2, u0, traj_u0_50):
    # entire fourth-order trajectories keep lap u > 0 at every sample
    assert np.min(traj_u0_50.y[:, 2]) > 0.0
    jet = Jet((u0.eval(0.0, 0) + 1.0, u0.eval(0.0, 2)))
    traj = integrate(spec2, jet, IntegratorConfig(r_max=1000.0))
    assert np.min(traj.y[:, 2]) > 0.0
    assert not any(e.kind == "lap_sign_change" for e in traj.events)


def test_tolerance_convergence(spec2, u0):
    # halving rel_tol changes u(r_max) by less than the coarse error budget
    jet = Jet((u0.eval(0.0, 0) + 0.3, u0.eval(0.0, 2)))
    coarse = integrate(spec2, jet, IntegratorConfig(r_max=100.0))
    fine = integrate(spec2, jet,
                     IntegratorConfig(r_max=100.0, rel_tol=5e-9, abs_tol=5e-11))
    drift = abs(coarse.u[-1] - fine.u[-1])
    assert drift <= max(coarse.stats["err_accum"][0], 1e-12)


def test_max_steps_inconclusive(spec2, u0):
    traj = integrate(spec2, u0.jet(),
                     IntegratorConfig(r_max=1000.0, max_steps=20))
    assert isinstance(traj.verdict, Inconclusive)
    assert "step count" in traj.verdict.reason


def test_comparison_ordering_hypothesis(spec2, u0):
    # ordered jets stay ordered in every slot (small deterministic sample
    # here; the full randomized suite runs in the acceptance module)
    base = Jet((u0.eval(0.0, 0), u0.eval(0.0, 2)))
    cfg = IntegratorConfig(r_max=20.0, rel_tol=1e-10, abs_tol=1e-12)
    t_base = integrate(spec2, base, cfg)

    @settings(max_examples=8, deadline=None)
    @given(gap0=st.floats(min_value=1e-3, max_value=0.5),
           gap1=st.floats(min_value=0.0, max_value=0.5))
    def run(gap0, gap1):
        upper = Jet((base.lap_values[0] + gap0, base.lap_values[1] + gap1))
        t_up = integrate(spec2, upper, cfg)
        n = common_grid(t_up, t_base)
        for j in range(4):
            a, b = t_up.y[:n, j], t_base.y[:n, j]
            tol = 1e-8 * (1.0 + np.maximum(np.abs(a), np.abs(b)))
            assert np.max(b - a - tol) <= 0.0
        # strict ordering beyond tolerance for r >= 1
        late = t_base.r[:n] >= 1.0
        for j in range(4):
            a, b = t_up.y[:n, j][late], t_base.y[:n, j][late]
            tol = 1e-8 * (1.0 + np.maximum(np.abs(a), np.abs(b)))
            assert np.min(a - b - tol) > 0.0

    run()


def test_extended_precision_runs(spec2, u0):
    cfg = IntegratorConfig(r_max=5.0, precision="extended")
    traj = integrate(spec2, u0.jet(), cfg)
    assert traj.stats["precision"] == "extended"
    mask = traj.r >= 1e-3
    ref = u0.eval(traj.r[mask], 0)
    assert np.max(np.abs(traj.u[mask] - ref) / ref) < 1e-7


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(r_max=1e-4)  # below launch radius
    with pytest.raises(ValueError):
        IntegratorConfig(precision="quad")


# One case per way integrate() can end: horizon, m=2 wall closure (the
# step-size stall inside the collapse wall), m=3 floor crossing located by
# bisection, and the step budget.
_ENDINGS = {
    "horizon": (2, 0.0, dict(r_max=30.0), EntirePositive),
    "wall_closure": (2, -0.2, dict(r_max=30.0), Collapsed),
    "floor_crossing": (3, (10.0, -6.0, 1.0), dict(r_max=30.0), Collapsed),
    "max_steps": (2, 0.0, dict(r_max=30.0, max_steps=5,
                               dense_output_stride=1e-3), Inconclusive),
}


def _m2_jet(u0, rho):
    return Jet((u0.eval(0.0, 0) + rho, u0.eval(0.0, 2)))


def _reference_sample(dense, r):
    """One sample the way a per-sample loop evaluates it, as a reference."""
    i = min(max(int(np.searchsorted(dense.r_lefts, r, side="right")) - 1, 0),
            len(dense.hs) - 1)
    h = dense.hs[i]
    t = (r - dense.r_lefts[i]) / h
    return dense.y_lefts[i] + h * (dense.qs[i] @ np.array([t, t ** 2, t ** 3, t ** 4]))


@pytest.mark.parametrize("ending", sorted(_ENDINGS))
def test_samples_agree_with_dense_output(u0, ending):
    m, param, cfg_kw, kind = _ENDINGS[ending]
    jet = _m2_jet(u0, param) if m == 2 else Jet(param)
    traj = integrate(EquationSpec.for_order(m), jet, IntegratorConfig(**cfg_kw))
    assert isinstance(traj.verdict, kind)
    assert np.all(np.isfinite(traj.r)) and np.all(np.isfinite(traj.y))
    assert np.all(np.diff(traj.r) > 0)
    beyond = traj.r > traj.stats["launch_radius"]
    assert beyond.sum() >= 2
    y = traj.y[beyond]
    tol = 1e-14 * np.maximum(1.0, np.abs(y))
    assert np.all(np.abs(y - traj.dense(traj.r[beyond])) <= tol)
    loop = np.array([_reference_sample(traj.dense, r) for r in traj.r[beyond]])
    assert np.all(np.abs(y - loop) <= tol)


@settings(max_examples=12, deadline=None)
@given(m3=st.booleans(), a=st.floats(min_value=0.0, max_value=1.0),
       k=st.floats(min_value=5.0, max_value=40.0))
def test_stride_does_not_change_stepping(u0, m3, a, k):
    if m3:
        # second datum from mildly entire to past the collapse cap sqrt(6k/5)
        spec, jet = EquationSpec.for_order(3), Jet((k, -1.2 * a * np.sqrt(1.2 * k), 1.0))
    else:
        spec, jet = EquationSpec.for_order(2), _m2_jet(u0, -0.45 + 1.45 * a)
    runs = [integrate(spec, jet, IntegratorConfig(r_max=30.0, dense_output_stride=s))
            for s in (0.005, 0.01, 0.02, 0.05)]
    first = runs[0]
    for traj in runs[1:]:
        assert type(traj.verdict) is type(first.verdict)
        assert getattr(traj.verdict, "r_star", None) == getattr(first.verdict, "r_star", None)
        for key in ("naccept", "nreject", "nfev"):
            assert traj.stats[key] == first.stats[key]


def test_too_short_horizon_is_inconclusive(spec2, u0):
    # [r_end/4, r_end] = [0.00125, 0.005] holds only the horizon sample
    traj = integrate(spec2, u0.jet(), IntegratorConfig(r_max=0.005))
    assert isinstance(traj.verdict, Inconclusive)
    assert "growth-fit window" in traj.verdict.reason
