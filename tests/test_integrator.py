import dataclasses
import math
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy import polynomial
from hypothesis import example, given, settings
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
    formula1_check,
    integrate,
    UndefinedVolume,
)
from polyshoot import integrator
from polyshoot.core import TopZero, Trajectory, _series
from polyshoot.cli import _sweep_point
from polyshoot.integrator import (_ORDER, _STEP_TOL, DenseSolution, PowerTail, _close_on_wall,
                                  _read_wall, _try_step, sample_radii)
from polyshoot.shooting import (_SETTLE, critical_eps, critical_eps_residual, default_config,
                                is_entire, jet_m2, jet_m3, lap_limit_estimate, prescribe_volume)
from polyshoot.volume import volume, volume_of_jet

from conftest import (common_grid, cut_at, level_second_derivatives, ode_residual_max,
                      radial_double_integral)


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


def test_dense_output_keeps_the_axis_of_an_array(traj_u0_50):
    d = traj_u0_50.dense
    assert d(1.0).shape == d(np.float64(1.0)).shape == (4,)
    assert d(np.array([1.0])).shape == (1, 4)
    assert d(np.array([1.0, 2.0])).shape == (2, 4)
    assert np.array_equal(d(np.array([1.0]))[0], d(1.0))
    assert d(np.array([1.0]), slots=slice(0, 1)).shape == (1, 1)  # fit_tail's u-only call


@pytest.mark.parametrize("r", [math.nan, [1.0, math.nan], math.inf, [0.0, -math.inf],
                               -1e-3, [1.0, 51.0]])
@pytest.mark.parametrize("level", [0, 1])
def test_dense_output_rejects_radii_it_does_not_cover(traj_u0_50, r, level):
    # a NaN, infinite or out-of-range radius is no point of the solution
    # on [0, 50]: a ValueError, not a NaN row, whichever level's slots
    with pytest.raises(ValueError, match="dense output defined on"):
        traj_u0_50.dense(r, slots=slice(2 * level, 2 * level + 2))


def test_dense_output_matches_samples(traj_u0_50):
    d = traj_u0_50.dense
    r_probe = np.array([0.5, 1.7, 23.4])
    y_probe = d(r_probe)
    for rq, yq in zip(r_probe, y_probe):
        i = np.argmin(np.abs(traj_u0_50.r - rq))
        if abs(traj_u0_50.r[i] - rq) < 1e-12:
            assert np.allclose(traj_u0_50.y[i], yq, rtol=1e-12)


def test_collapse_verdict_and_cross_tolerance(spec2, u0):
    jet = Jet((u0.eval(0.0, 0) - 0.1, u0.eval(0.0, 2)))
    coarse = integrate(spec2, jet, IntegratorConfig(r_max=1000.0))
    fine = integrate(spec2, jet,
                     IntegratorConfig(r_max=1000.0, rel_tol=1e-9, abs_tol=1e-11))
    assert isinstance(coarse.verdict, Collapsed)
    assert isinstance(fine.verdict, Collapsed)
    assert coarse.verdict.r_star == pytest.approx(fine.verdict.r_star, abs=1e-8)
    assert coarse.verdict.r_star == pytest.approx(0.7715818, abs=1e-4)
    assert coarse.r[0] == 0.0 and np.all(np.diff(coarse.r) > 0)
    assert np.all(coarse.y[0, 1::2] == 0.0)
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
    # the top Laplacian loses positivity before the floor is reached; a
    # collapse locates only r*
    assert traj.end.lap(2) < 0.0 < traj.jet.lap_values[2]
    assert [(e.kind, e.r_event) for e in traj.events] == [("u_floor", traj.verdict.r_star)]


def test_growth_exponents(spec2, spec3, u0, u1, traj_u0_1000):
    assert classify_growth(traj_u0_1000, (100.0, 1000.0)) == pytest.approx(1.0, abs=0.05)
    jet_q = Jet((u0.eval(0.0, 0) + 1.0, u0.eval(0.0, 2)))
    traj_q = integrate(spec2, jet_q, IntegratorConfig(r_max=1000.0))
    assert classify_growth(traj_q) == pytest.approx(2.0, abs=0.1)
    traj_c = integrate(spec3, u1.jet(), IntegratorConfig(r_max=1000.0))
    assert classify_growth(traj_c, (100.0, 1000.0)) == pytest.approx(3.0, abs=0.05)


def test_growth_fit_reports_limit(traj_u0_1000):
    fit = integrator.fit_tail(traj_u0_1000.dense, (100.0, 1000.0))
    assert classify_growth(traj_u0_1000, (100.0, 1000.0)) == fit.gamma
    assert round(fit.gamma) == 1
    # u ~ r for the linear profile, so the model's u / r at the window's
    # outer end is ~1
    hi = fit.window[1]
    limit = fit.coeff * hi ** (fit.gamma - 1.0) * (1.0 + fit.correction / hi ** 2)
    assert limit == pytest.approx(1.0, rel=1e-3)


def test_verdict_gamma_is_the_integer_class(spec2, spec3, u0, u1, monkeypatch):
    # the verdict's fit models the 1/r^2 correction of the tail, so its
    # gamma is the growth class to 1e-8, and classify_growth's default
    # window reads that fit, fitting none of its own
    cases = [(spec2, u0.jet(), 1), (spec2, _m2_jet(u0, 5.0), 2), (spec3, u1.jet(), 3)]
    for spec, jet, gamma in cases:
        traj = integrate(spec, jet, IntegratorConfig(r_max=1000.0))
        assert abs(traj.verdict.growth_exponent - gamma) <= 1e-8
        assert traj.verdict.tail.window == (500.0, 1000.0)
        with monkeypatch.context() as patch:
            patch.setattr(integrator, "fit_tail", None)
            assert classify_growth(traj) == traj.verdict.growth_exponent


def test_tail_fitted_on_first_read(spec2, u0, monkeypatch):
    # integrate leaves an entire verdict's fit to its first reader, which
    # runs it once; the verdict keeps it
    fits = []
    fit_tail = integrator.fit_tail
    monkeypatch.setattr(integrator, "fit_tail", lambda *args: fits.append(1) or fit_tail(*args))
    cfg = IntegratorConfig(r_max=50.0)
    traj, unread = integrate(spec2, u0.jet(), cfg), integrate(spec2, u0.jet(), cfg)
    assert fits == []
    gamma = traj.verdict.growth_exponent
    assert fits == [1]
    assert traj.verdict.growth_exponent == gamma and fits == [1]
    want = fit_tail(traj.dense, (traj.r_end / 2.0, traj.r_end))
    assert repr(traj.verdict) == f"EntirePositive(tail={want!r})"  # repr: bit for bit
    assert traj.verdict == EntirePositive(want) and hash(traj.verdict) == hash(EntirePositive(want))
    assert unread.verdict == traj.verdict and fits == [1, 1]  # equality reads the tail


@pytest.mark.parametrize("precision", ["double", "extended"])
def test_top_zero_located_on_first_read(spec3, monkeypatch, precision):
    # integrate leaves where E = w + r w' reads -tau to the first read of
    # r_zero, which locates it once; the verdict keeps it, and equality,
    # hash, repr and pickle work on the value (a pickle taken before the
    # read carries the location, which the copy runs on its own read)
    crossings, crossing = [], integrator._crossing_radius
    monkeypatch.setattr(integrator, "_crossing_radius",
                        lambda *a: crossings.append(1) or crossing(*a))
    jet, cfg = jet_m3(10.0, 3.1), default_config(3, precision=precision)
    traj, unread = (integrate(spec3, jet, cfg, stop_at_top_zero=_SETTLE) for _ in range(2))
    copy = pickle.loads(pickle.dumps(unread.verdict))
    assert crossings == []
    r0 = traj.verdict.r_zero
    assert traj.verdict.r_zero == r0 and crossings == [1]
    assert r0 == pytest.approx(6.2693872765051575, rel=1e-12)
    assert repr(traj.verdict) == f"TopZero(r_zero={r0!r})"  # repr: bit for bit
    assert traj.verdict == TopZero(r0) and hash(traj.verdict) == hash(TopZero(r0))
    assert unread.verdict == traj.verdict and crossings == [1, 1]  # equality reads the value
    assert copy.r_zero.hex() == r0.hex() and crossings == [1, 1, 1]
    assert pickle.loads(pickle.dumps(traj.verdict)) == copy
    assert traj.verdict != EntirePositive(r0) and TopZero(r0) != r0


def test_growth_window_validation(traj_u0_50):
    with pytest.raises(ValueError):
        classify_growth(traj_u0_50, (10.0, 60.0))   # beyond r_end
    with pytest.raises(ValueError):
        classify_growth(traj_u0_50, (1.0, 50.0))    # reaches too far in
    with pytest.raises(WindowTooNarrow):
        classify_growth(traj_u0_50, (49.98, 50.0))  # spans less than a factor of 2
    assert classify_growth(traj_u0_50, (25.0, 50.0)) == traj_u0_50.verdict.growth_exponent
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
    # synthetic trajectory with lap u = c exactly: u = 1 + c r^2/6, one
    # step over [0, 10] in theta = r / 10
    c = 0.8

    def synthetic(lap):
        cs = np.zeros((1, 2, _ORDER + 1))
        cs[0, 0, [0, 2]] = 1.0, c * 100.0 / 6.0
        cs[0, 1, 0] = lap
        return Trajectory(spec=spec2, jet=Jet((1.0, lap)),
                          dense=DenseSolution([0.0], [10.0], cs),
                          radii=lambda: np.linspace(0.0, 10.0, 2001),
                          verdict=EntirePositive(PowerTail(2.0, c / 6.0, 6.0 / c, (5.0, 10.0),
                                                           0.0)),
                          r_end=10.0)

    traj = synthetic(c)
    assert np.array_equal(traj.y[:, 3], np.zeros(2001))
    assert np.max(np.abs(traj.y[:, 1] - c * traj.r / 3.0)) <= 1e-15
    assert formula1_check(traj, 0) < 1e-13
    # a level 1 that disagrees with u: the reconstruction 1 + c' r^2/6 misses
    # u by |c - c'| r^2 / 6 at the step end r = 10, relative to sup |u|
    mismatch = 0.1 * 100.0 / 6.0 / (1.0 + c * 100.0 / 6.0)
    assert formula1_check(synthetic(c - 0.1), 0) >= mismatch * (1.0 - 1e-12)


def test_formula1_collapsed_top_level(spec2, u0):
    # the top-level integrand u^-7 steepens toward the wall; the identity is
    # checked at the step ends, on the dense output, so the sample stride
    # changes no bit of the defect
    jet = Jet((u0.eval(0.0, 0) - 0.2, u0.eval(0.0, 2)))
    traj = integrate(spec2, jet, IntegratorConfig(r_max=1000.0))
    assert isinstance(traj.verdict, Collapsed)
    defect = formula1_check(cut_at(traj, 0.9 * traj.verdict.r_star), 1)
    assert defect <= 1e-10
    fine_rows = integrate(spec2, jet, IntegratorConfig(r_max=1000.0, dense_output_stride=1e-3))
    assert formula1_check(cut_at(fine_rows, 0.9 * traj.verdict.r_star), 1) == defect
    # two-tolerance cross-check of the same defect
    fine = integrate(spec2, jet, IntegratorConfig(r_max=1000.0, rel_tol=1e-9, abs_tol=1e-11))
    defect_fine = formula1_check(cut_at(fine, 0.9 * fine.verdict.r_star), 1)
    assert defect_fine <= 1e-10


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
    # halving rel_tol changes u(r_max) by far less than rel_tol (measured
    # 4.3e-13 relative)
    jet = Jet((u0.eval(0.0, 0) + 0.3, u0.eval(0.0, 2)))
    coarse = integrate(spec2, jet, IntegratorConfig(r_max=100.0))
    fine = integrate(spec2, jet,
                     IntegratorConfig(r_max=100.0, rel_tol=5e-9, abs_tol=5e-11))
    drift = abs(coarse.u[-1] - fine.u[-1])
    assert drift <= 5e-11 * abs(coarse.u[-1])


def test_max_steps_inconclusive(spec2, u0, monkeypatch):
    monkeypatch.setattr(integrator, "_MAX_STEPS", 20)  # integrate reads it when called
    traj = integrate(spec2, u0.jet(), IntegratorConfig(r_max=1000.0))
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
    assert traj.dense.cs.dtype == np.longdouble
    mask = traj.r >= 1e-3
    ref = u0.eval(traj.r[mask], 0)
    assert np.max(np.abs(traj.u[mask] - ref) / ref) < 1e-7


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(r_max=0.0)
    assert IntegratorConfig(r_max=1e-4).r_max == 1e-4  # no launch radius to stay above
    with pytest.raises(ValueError):
        IntegratorConfig(precision="quad")
    assert [f.name for f in dataclasses.fields(IntegratorConfig)] == [
        "rel_tol", "abs_tol", "r_max", "dense_output_stride", "precision"]
    # at most 1e7 sample rows, r_max / dense_output_stride
    assert IntegratorConfig(r_max=1e3, dense_output_stride=1e-4).dense_output_stride == 1e-4
    for kw in ({"dense_output_stride": 1e-7}, {"r_max": 1e4, "dense_output_stride": 9e-4},
               {"r_max": 1e300, "dense_output_stride": 1e-300}):
        with pytest.raises(ValueError, match="dense_output_stride"):
            IntegratorConfig(**kw)


@pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "r_max", "u_floor",
                                   "dense_output_stride", "max_steps"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_config_rejects_non_finite_values(field, value):
    # u_floor and max_steps are integrator constants (_U_FLOOR, _MAX_STEPS),
    # fields no longer: no value of them is taken
    former = field in ("u_floor", "max_steps")
    with pytest.raises(TypeError if former else ValueError, match=field):
        IntegratorConfig(**{field: value})

# One case per way integrate() can end: horizon, m=2 and m=3 wall closure
# (the wall readings settle), floor crossing located by bisection (a floor
# high enough to be crossed before they settle), and the step budget; plus
# a horizon in extended precision, near the m=3 critical datum.  The floor
# and the step budget are integrator constants, which _ENDING_CONSTANTS sets.
_ENDINGS = {
    "horizon": (2, 0.0, dict(r_max=30.0), EntirePositive),
    "extended_horizon": (3, (10.0, -3.0751, 1.0), dict(r_max=30.0, precision="extended"),
                         EntirePositive),
    "wall_closure": (2, -0.2, dict(r_max=30.0), Collapsed),
    "m3_wall_closure": (3, (10.0, -6.0, 1.0), dict(r_max=30.0), Collapsed),
    "floor_crossing": (3, (10.0, -6.0, 1.0), dict(r_max=30.0), Collapsed),
    "max_steps": (2, 0.0, dict(r_max=30.0, dense_output_stride=1e-3), Inconclusive),
}
_ENDING_CONSTANTS = {"floor_crossing": {"_U_FLOOR": 1e-2}, "max_steps": {"_MAX_STEPS": 5}}


def _integrate_ending(u0, ending, monkeypatch):
    """The trajectory of one of _ENDINGS, with its integrator constants set,
    and the verdict type it ends with."""
    m, param, cfg_kw, kind = _ENDINGS[ending]
    for name, value in _ENDING_CONSTANTS.get(ending, {}).items():
        monkeypatch.setattr(integrator, name, value)
    jet = _m2_jet(u0, param) if m == 2 else Jet(param)
    return integrate(EquationSpec.for_order(m), jet, IntegratorConfig(**cfg_kw)), kind


def _m2_jet(u0, rho):
    return Jet((u0.eval(0.0, 0) + rho, u0.eval(0.0, 2)))


def _reference_sample(dense, r):
    """One sample the way a per-sample loop evaluates it, as a reference:
    each level's polynomial in theta and its derivative over the width."""
    i = min(max(int(np.searchsorted(dense.r_lefts, r, side="right")) - 1, 0),
            len(dense.cs) - 1)
    width = dense.r_rights[i] - dense.r_lefts[i]
    t = (r - dense.r_lefts[i]) / width
    out = []
    for c in dense.cs[i]:
        out += [sum(ck * t ** k for k, ck in enumerate(c)),
                sum(k * ck * t ** (k - 1) for k, ck in enumerate(c) if k) / width]
    return np.array(out, dtype=float)


@pytest.mark.parametrize("ending", sorted(_ENDINGS))
def test_samples_agree_with_dense_output(u0, ending, monkeypatch):
    traj, kind = _integrate_ending(u0, ending, monkeypatch)
    assert isinstance(traj.verdict, kind)
    assert np.all(np.isfinite(traj.r)) and np.all(np.isfinite(traj.y))
    assert np.all(np.diff(traj.r) > 0)
    y = traj.y
    assert np.array_equal(y, traj.dense(traj.r))
    loop = np.array([_reference_sample(traj.dense, r) for r in traj.r])
    assert np.all(np.abs(y - loop) <= 1e-14 * np.maximum(1.0, np.abs(y)))


@pytest.mark.parametrize("r_max, stride", [(0.3, 0.1), (0.7, 0.1), (1.0, 0.3), (30.0, 0.01),
                                           (100.00000005, 0.1)])
def test_samples_end_on_the_horizon(u0, r_max, stride):
    # k * stride can round past r_max (3 * 0.1 > 0.3); the last row is still
    # the horizon, a stride that misses it gets the horizon appended, and a
    # multiple within 1e-9 max(1, r_max) below it (1000 * 0.1) becomes it
    traj = integrate(EquationSpec.for_order(2), _m2_jet(u0, 0.0),
                     IntegratorConfig(r_max=r_max, dense_output_stride=stride))
    assert traj.end.r == r_max  # what is_entire and lap_limit_estimate read
    assert traj.r[-1] == r_max
    assert np.all(np.diff(traj.r) > 1e-9 * max(1.0, r_max))
    assert len(traj) == math.ceil((r_max - 1e-9 * max(1.0, r_max)) / stride) + 1


def test_sample_rows_bounded_memory(u0):
    # the rows are read off the dense output in blocks: one call over all
    # 100001 rows would hold over 20 MB of gathered coefficients at once
    spec, jet, cfg = EquationSpec.for_order(2), _m2_jet(u0, 0.0), IntegratorConfig(r_max=1e3)
    integrate(spec, jet, cfg)  # first-call caches
    tracemalloc.start()
    try:
        traj = integrate(spec, jet, cfg)
        peak_lazy = tracemalloc.get_traced_memory()[1]
        traj.y
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj) == 100_001
    assert peak_lazy <= 1e6   # the rows are not built until read
    assert peak <= 9.8e6  # 9.26 MB when the step loop filled the samples


def test_radial_double_integral_exact_for_constant_source():
    # Simpson is exact for the quadratic inner integrand and the linear outer
    # one, so a constant source c gives c r^2 / 6 on any grid
    rng = np.random.default_rng(7)
    r = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 10.0, 200))])
    got = radial_double_integral(r, np.full_like(r, 0.7))
    want = 0.7 * r ** 2 / 6.0
    assert got[0] == 0.0
    assert np.max(np.abs(got[1:] - want[1:]) / want[1:]) <= 1e-14


def _reference_radii(stride, r_max, r_last, collapsed):
    """The sample radii built as a whole grid: the multiples of stride, the
    last clamped to r_max, and r_max appended unless that last multiple lies
    within 1e-9 max(1, r_max) of it, in which case it becomes r_max."""
    n_grid = int(math.floor(r_max / stride + 1e-9)) + 1
    r = np.minimum(np.arange(n_grid, dtype=np.float64) * stride, r_max)
    if r[-1] < r_max - 1e-9 * max(1.0, r_max):
        r = np.append(r, r_max)
    else:
        r[-1] = r_max
    r = r[:np.searchsorted(r, r_last, side="right")]
    if collapsed and r_last > r[-1]:
        r = np.append(r, r_last)
    return r


@settings(max_examples=300, deadline=None)
@given(stride=st.sampled_from([1e-3, 3e-3, 1e-2, 0.1, 0.3, 1.0 / 3.0, 0.7]),
       r_max=st.floats(0.01, 200.0), frac=st.floats(0.0, 1.2), collapsed=st.booleans())
@example(stride=0.1, r_max=0.3, frac=1.0, collapsed=False)
@example(stride=0.01, r_max=30.0, frac=0.5, collapsed=True)
@example(stride=0.1, r_max=100.00000005, frac=1.0, collapsed=False)
def test_sample_rows_count_without_building(stride, r_max, frac, collapsed):
    # the row radii without building a whole grid equal those cut from one
    r_last = max(1e-3, frac * r_max) if frac < 1.0 else r_max * frac
    want = _reference_radii(stride, r_max, r_last, collapsed and frac < 1.0)
    assert np.array_equal(sample_radii(stride, r_max, r_last, collapsed and frac < 1.0), want)


_GUARD_STRIDES = (0.01, 0.1, 1.0 / 3.0, 0.7)


@pytest.mark.parametrize("stride, r_max", [
    (s, r) for s in _GUARD_STRIDES
    for r in (s * (1 - 1e-12), s * (1 + 1e-12), s + 2e-9 * max(1.0, s), 1.2 * s,
              4.0 / 3.0 * s, 2.0 * s)])
def test_short_horizon_guard_is_the_row_rule(u0, stride, r_max):
    # A horizon within a stride or two was once Inconclusive when the row
    # rule left fewer than 2 rows in the fit window.  The row rule now
    # places the rows only: 0, the multiples of the stride below the
    # horizon, and the horizon; the verdict, its fit and the end state
    # are those of a fine stride.
    spec, jet = EquationSpec.for_order(2), _m2_jet(u0, 0.0)
    traj = integrate(spec, jet, IntegratorConfig(r_max=r_max, dense_output_stride=stride))
    fine = integrate(spec, jet, IntegratorConfig(r_max=r_max, dense_output_stride=r_max / 100))
    assert isinstance(traj.verdict, EntirePositive) and traj.verdict == fine.verdict
    assert traj.end.r == fine.end.r == r_max and np.array_equal(traj.end.y, fine.end.y)
    assert np.array_equal(traj.r, _reference_radii(stride, r_max, r_max, False))
    assert len(fine) == 101


def test_trajectory_without_an_accepted_step(u0, monkeypatch):
    # an origin series that is not finite sizes no step: the trajectory
    # stalls at r = 0, with one row there, the jet's state, and a dense
    # output with nothing to evaluate
    monkeypatch.setattr(integrator, "taylor_launch",
                        lambda spec, jet, dtype: [[math.nan] * (_ORDER + 1)] * spec.m)
    monkeypatch.setattr(integrator, "_MAX_STEPS", 1)
    jet = _m2_jet(u0, 0.0)
    traj = integrate(EquationSpec.for_order(2), jet, IntegratorConfig(r_max=10.0))
    assert traj.stats["naccept"] == 0 and isinstance(traj.verdict, Inconclusive)
    want = np.array([jet.lap_values[0], 0.0, jet.lap_values[1], 0.0])
    assert len(traj) == 1 and np.array_equal(traj.r, [0.0])
    assert np.array_equal(traj.y, [want]) and np.array_equal(traj.u, [jet.lap_values[0]])
    assert traj.end.r == 0.0 and np.array_equal(traj.end.y, want)
    assert traj.dense.r_hi == 0.0
    with pytest.raises(ValueError):
        traj.dense(0.0)


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("m, jet", [(2, jet_m2(-0.2)), (3, jet_m3(10.0, 5.0))])
def test_stop_at_top_zero(m, jet, precision):
    # a collapse's limit estimate never settles (u falls, so its tail
    # diverges), and its top slot falls through zero first: the stopped run
    # ends there, the one point it records, with the full run's steps so
    # far, and its end state, last row and r_end at that radius; r_zero,
    # where E = w + r w' read -tau (located to abs_tol in r), lies before.
    # The full run, a collapse, records r* alone
    spec, cfg = EquationSpec.for_order(m), default_config(m, precision=precision)
    full = integrate(spec, jet, cfg)
    stopped = integrate(spec, jet, cfg, stop_at_top_zero=_SETTLE)
    assert isinstance(full.verdict, Collapsed) and isinstance(stopped.verdict, TopZero)
    r0 = stopped.r_end
    assert [(e.kind, e.r_event) for e in full.events] == [("u_floor", full.verdict.r_star)]
    assert [(e.kind, e.r_event) for e in stopped.events] == [("lap_sign_change", r0)]
    assert r0 == stopped.end.r == stopped.r[-1]
    assert r0 < full.verdict.r_star and not is_entire(stopped)
    r_cert = stopped.verdict.r_zero
    y = stopped.dense(r_cert)
    slope = r_cert * y[0] ** spec.rhs_exponent  # -dE/dr
    assert r_cert < r0
    tau = cfg.rel_tol
    assert abs(y[-2] + r_cert * y[-1] + tau) <= 2.0 * slope * cfg.abs_tol
    end = stopped.end
    assert end.lap_deriv(m - 1) < 0.0
    assert abs(end.lap(m - 1)) <= cfg.abs_tol * abs(end.lap_deriv(m - 1))
    steps = stopped.stats["naccept"]
    assert 0 < steps < full.stats["naccept"] and stopped.stats["closure"] is None
    assert stopped.dense.cs.tobytes() == full.dense.cs[:steps].tobytes()
    with pytest.raises(TypeError):
        integrate(spec, jet, cfg, True)  # the flag is keyword-only


def test_top_zero_without_the_stop(spec3):
    # just past the critical datum at k = 10, E = w + r w' falls below -tau
    # at r = 6.27 and the top slot through zero at 37.92, while u stays
    # above the floor to the horizon: the full run is TopZero too, certified
    # where the stopped run is, which ends a few steps on, short of w's
    # zero, and so records none; the full run records that zero, located
    # after its loop, and has no volume
    jet, cfg = jet_m3(10.0, 3.1), default_config(3)
    full = integrate(spec3, jet, cfg)
    stopped = integrate(spec3, jet, cfg, stop_at_top_zero=_SETTLE)
    assert isinstance(full.verdict, TopZero) and isinstance(stopped.verdict, TopZero)
    assert full.verdict.r_zero.hex() == stopped.verdict.r_zero.hex()
    (kind, w_zero), = [(e.kind, e.r_event) for e in full.events]
    assert kind == "lap_sign_change" and stopped.events == ()
    assert w_zero == pytest.approx(37.92, abs=5e-3)
    assert abs(full.dense(w_zero)[4]) <= cfg.abs_tol * abs(full.dense(w_zero)[5])
    assert stopped.verdict.r_zero < stopped.r_end == stopped.dense.r_hi < w_zero
    assert full.r_end == full.r[-1] == cfg.r_max and full.end.lap(2) < 0.0
    assert not is_entire(full)
    with pytest.raises(UndefinedVolume):
        volume(spec3, full)


@pytest.mark.parametrize("r_max", [1e2, 1e3])
@pytest.mark.parametrize("rel_tol", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
def test_closed_forms_are_not_certified(spec2, spec3, u0, u1, rel_tol, r_max):
    # both closed forms are exactly critical (w_inf = 0), so their
    # integrated E = w + r w' is sign noise: down to -0.023 rel_tol (u1 at
    # 1e-9), well inside tau, and both stay EntirePositive; at rel_tol 1e-8,
    # r_max 1e3, u0 is shoot --m 2 --rho 0 (E(R) = -4e-12)
    tau = rel_tol
    for spec, cf in ((spec2, u0), (spec3, u1)):
        cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol / 100, r_max=r_max)
        traj = integrate(spec, cf.jet(), cfg)
        end = traj.end
        assert isinstance(traj.verdict, EntirePositive) and is_entire(traj)
        assert end.lap(spec.m - 1) + end.r * end.lap_deriv(spec.m - 1) > -0.1 * tau


# Root solves (_event_theta) per run at the m=3 defaults, with what the
# runs must still give: a located point only where a verdict or a stop
# reads it, so no intermediate Laplacian zero and no w zero in a collapse,
# and where E reads -tau only once r_zero is read.  (jet, stop): (root
# solves by the run, by its first read of r_zero, verdict, r* or r_zero,
# accepted steps, sum |dense.cs|); locating fewer points moves none of the
# last four
_LOCATED = {
    ((10.0, -3.0, 1.0), False): (0, 0, EntirePositive, None, 23, 1045333.7526642733),
    ((10.0, -3.0, 1.0), True): (0, 0, EntirePositive, None, 23, 1045333.7526642733),
    ((10.0, -6.0, 1.0), False): (0, 0, Collapsed, 3.3180895148368763, 31, 317.50644002625427),
    ((10.0, -6.0, 1.0), True): (1, 1, TopZero, 3.216517374715301, 20, 159.8201552926845),
    ((10.0, -3.1, 1.0), False): (1, 1, TopZero, 6.2693872765051575, 24, 251533.57311513656),
    ((10.0, -3.1, 1.0), True): (0, 1, TopZero, 6.2693872765051575, 10, 107.06826590781733),
}


@pytest.mark.parametrize("jet, stop", sorted(_LOCATED))
def test_locates_only_what_a_verdict_reads(monkeypatch, jet, stop):
    # (10, -6, 1) stopped: w's zero by the run, the certificate on read;
    # (10, -3.1, 1), run past the critical datum: the certificate on read,
    # and w's zero at 37.92 in the full run only (the stopped one ends
    # short of it)
    solves, event_theta = [], integrator._event_theta
    monkeypatch.setattr(integrator, "_event_theta",
                        lambda *a: solves.append(1) or event_theta(*a))
    traj = integrate(EquationSpec.for_order(3), Jet(jet), default_config(3),
                     stop_at_top_zero=_SETTLE if stop else None)
    n, n_read, kind, r_point, steps, size = _LOCATED[jet, stop]
    assert len(solves) == n and isinstance(traj.verdict, kind)
    if r_point is not None:
        got = traj.verdict.r_star if kind is Collapsed else traj.verdict.r_zero
        assert got == pytest.approx(r_point, rel=1e-13)
        assert (traj.verdict.r_star if kind is Collapsed else traj.verdict.r_zero) == got
    assert len(solves) == n + n_read  # located once, on the first read
    assert traj.stats["naccept"] == steps
    assert float(np.abs(traj.dense.cs).sum()) == pytest.approx(size, rel=1e-13)


# Runs whose recorded point is located on a step's polynomial: the m=3 top
# zero short of the horizon just past the critical datum at k = 10, the m=2
# top zero that ends a stopped run before the collapse, and an m=3 floor
# crossing (a high floor, _U_FLOOR set): (m, jet, r_max, stop, floor)
_EVENT_RUNS = {
    "m3_top_zero": (3, jet_m3(10.0, 3.1), 1e2, False, None),
    "m2_collapse": (2, jet_m2(-0.2), 1e3, True, None),
    "m3_floor": (3, Jet((10.0, -6.0, 1.0)), 30.0, False, 1e-2),
}


@pytest.mark.parametrize("abs_tol", [1e-10, 1e-16])
@pytest.mark.parametrize("run", sorted(_EVENT_RUNS))
def test_events_at_the_step_polynomials_roots(monkeypatch, run, abs_tol):
    # the recorded point, w's zero or the floor crossing, is within abs_tol
    # (and the rounding of r) of the root of its step's polynomial that
    # numpy's companion matrix gives, for at most 12 evaluations of a
    # polynomial per root solve
    m, jet, r_max, stop, u_floor = _EVENT_RUNS[run]
    if u_floor is not None:
        monkeypatch.setattr(integrator, "_U_FLOOR", u_floor)
    cfg = default_config(m, abs_tol=abs_tol, r_max=r_max)
    calls, poly_at, solves, event_theta = [], integrator._poly_at, [], integrator._event_theta

    def counting(c, theta):
        calls.append(theta)
        return poly_at(c, theta)

    monkeypatch.setattr(integrator, "_poly_at", counting)
    monkeypatch.setattr(integrator, "_event_theta",
                        lambda *a: solves.append(1) or event_theta(*a))
    traj = integrate(EquationSpec.for_order(m), jet, cfg,
                     stop_at_top_zero=_SETTLE if stop else None)
    floor = u_floor is not None
    assert traj.stats["closure"] == ({"kind": "floor"} if floor else None)
    (ev,) = traj.events
    assert ev.kind == ("u_floor" if floor else "lap_sign_change")
    assert solves and len(calls) <= 12 * len(solves)
    d = traj.dense
    i = int(np.searchsorted(d.r_lefts, ev.r_event)) - 1
    left, width = float(d.r_lefts[i]), float(d.r_rights[i] - d.r_lefts[i])
    coef = d.cs[i, 0 if floor else m - 1].astype(float)
    coef[0] -= u_floor if floor else 0.0
    roots = [z.real for z in polynomial.Polynomial(coef).roots()
             if abs(z.imag) < 1e-9 and -1e-9 <= z.real <= 1.0 + 1e-9]
    gap = min(abs(left + width * t - ev.r_event) for t in roots)
    assert gap <= abs_tol + 4.0 * np.finfo(float).eps * ev.r_event, (ev, gap)


@pytest.mark.parametrize("ending", ["horizon", "extended_horizon"])
def test_one_evaluator_below_the_launch_radius(u0, u1, ending):
    # the launch radius is the end of step 0, the origin series; on [0, it]
    # the rows are the dense output bit for bit, in any order, u is within
    # the configured tolerance of the closed form, the odd slots are 0 at
    # r = 0, and d/dr is defined there: the even slots 0, the odd ones
    # Lap^(j+1) u(0) / 3 (the top one -u(0)^p / 3)
    m, _, cfg_kw, _ = _ENDINGS[ending]
    cf = u0 if m == 2 else u1
    cfg = IntegratorConfig(**{**cfg_kw, "dense_output_stride": 2.5e-4})
    spec = EquationSpec.for_order(m)
    traj = integrate(spec, cf.jet(), cfg)
    d = traj.dense
    head = traj.r <= d.r_rights[0]
    assert d.r_lefts[0] == 0.0 and head.sum() >= 100
    r = traj.r[head]
    assert np.array_equal(traj.y[head], d(r))
    assert np.array_equal(d(r[::-1]), d(r)[::-1])
    ref = cf.eval(r, 0)
    assert np.max(np.abs(traj.u[head] - ref) / ref) <= cfg.rel_tol
    assert traj.r[0] == 0.0 and np.all(traj.y[0, 1::2] == 0.0)
    # (Lap^j u)''(0) = Lap^{j+1} u(0) / 3, (Lap^{m-1} u)''(0) = -u(0)^p / 3
    lap = [*traj.jet.lap_values[1:], -traj.jet.lap_values[0] ** spec.rhs_exponent]
    assert level_second_derivatives(d, [0.0])[0] == pytest.approx(np.array(lap) / 3.0,
                                                                  rel=1e-13)


@pytest.mark.parametrize("ending", sorted(_ENDINGS))
def test_rows_built_on_first_read(u0, ending, monkeypatch):
    builds = []
    build = Trajectory._dense_rows
    monkeypatch.setattr(Trajectory, "_dense_rows", lambda self: builds.append(1) or build(self))
    traj, kind = _integrate_ending(u0, ending, monkeypatch)
    n, end = len(traj), traj.end
    copy = pickle.loads(pickle.dumps(traj))
    assert builds == []
    r, y = traj.r, traj.y
    assert builds == [1] and traj.y is y  # built once, then kept
    assert len(traj) == n == r.shape[0] == y.shape[0]
    assert r[0] == 0.0 and np.array_equal(y[0], traj.jet.origin_state)
    # the end state is the last row, except where the step budget ran out
    # between two rows: then it is at the last radius reached, past r[-1]
    assert np.array_equal(end.y, traj.dense(end.r))
    if kind is Inconclusive:
        assert r[-1] < end.r == traj.dense.r_hi
    else:
        assert end.r == r[-1] and np.array_equal(end.y, y[-1])
    assert np.array_equal(copy.r, r) and np.array_equal(copy.y, y)


def test_names_the_benchmark_traces(u0, monkeypatch):
    # perfbench/tracing.py wraps functions at the names their callers look
    # up (integrator.integrate, integrator.taylor_launch, ...) and counts
    # from traj.stats and len(traj); its CI smoke job traces through them
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traj = integrator.integrate(EquationSpec.for_order(2), _m2_jet(u0, -0.2),
                                    IntegratorConfig(r_max=30.0))
    finally:
        tracer.remove()
    counts = tracer.deterministic_counts()
    assert counts["core.launch_calls"] == counts["integrator.calls"] == 1
    assert (counts["integrator.steps_accepted"], counts["integrator.steps_rejected"],
            counts["integrator.rhs_evals"]) == tuple(
                traj.stats[k] for k in ("naccept", "nreject", "nfev"))
    assert counts["integrator.samples"] == len(traj) > 0
    assert counts["integrator.verdict.collapsed"] == 1


def test_hot_paths_leave_rows_unbuilt(u0, monkeypatch):
    def refuse(self):
        raise AssertionError("sample rows built")

    monkeypatch.setattr(Trajectory, "_dense_rows", refuse)
    spec2, spec3 = EquationSpec.for_order(2), EquationSpec.for_order(3)
    # a critical_eps probe on each side, and the volumes of a sweep
    for eps in (3.0, 3.2):
        traj = integrate(spec3, jet_m3(10.0, eps), default_config(3))
        if is_entire(traj):
            lap_limit_estimate(traj)
            classify_growth(traj)
            volume(spec3, traj)
            formula1_check(traj, 2)
    assert volume_of_jet(spec2, jet_m2(0.5), default_config(2)).total > 0
    assert volume_of_jet(spec3, jet_m3(10.0, -1.0), default_config(3)).total > 0
    # cold critical-datum solves, their volumes and critical balances, down
    # to a bracket near the rounding width of eps
    assert critical_eps(40.0, bracket_tol=1e-13).width <= 1e-13
    ce = critical_eps(10.0, bracket_tol=1e-3)
    assert critical_eps_residual(ce) is ce and ce.partial_integral > 0.9


def test_solves_build_no_row_radii(monkeypatch):
    # no solve places an output row: with the sample grid refused, the
    # critical datum, prescribed volumes and a sweep point still come out;
    # each reads a probe's end state once
    def refuse(*args):
        raise AssertionError("sample grid built")

    monkeypatch.setattr(integrator, "sample_radii", refuse)
    spec2, spec3 = EquationSpec.for_order(2), EquationSpec.for_order(3)
    assert critical_eps(10.0).width <= 1e-6
    assert prescribe_volume(spec2, 10.0).rel_err <= 1e-3
    assert prescribe_volume(spec3, 50.0).rel_err <= 1e-3
    assert volume_of_jet(spec3, jet_m3(10.0, -1.0), default_config(3)).total > 0
    assert _sweep_point(spec2, default_config(2), jet_m2(0.5))[0] == "EntirePositive"

    traj = integrate(spec3, jet_m3(10.0, 3.0), default_config(3))
    assert max(formula1_check(traj, level) for level in range(3)) <= 1e-10
    calls = []
    evaluate = DenseSolution.__call__
    monkeypatch.setattr(DenseSolution, "__call__",
                        lambda self, *a, **kw: calls.append(1) or evaluate(self, *a, **kw))
    assert traj.end is traj.end and calls == [1]
    assert lap_limit_estimate(traj) > 0.0 and is_entire(traj) and calls == [1]
    with pytest.raises(AssertionError, match="sample grid"):
        len(traj)


@pytest.mark.parametrize("ending", ["wall_closure", "m3_wall_closure", "floor_crossing"])
def test_dense_output_continuous_at_step_boundaries(u0, ending, monkeypatch):
    # near the m=2 wall r + h rounds; theta over the stored interval keeps
    # each step's polynomials at its right end equal to the next step's
    # left state, every slot; and each odd slot is the derivative of its
    # level's polynomial
    traj, _ = _integrate_ending(u0, ending, monkeypatch)
    m, dense = traj.spec.m, traj.dense
    width = (dense.r_rights - dense.r_lefts).astype(float)
    cs = dense.cs.astype(float)
    right_ends = dense(dense.r_lefts[1:])  # step i at theta = 1
    y_next = np.empty_like(right_ends)
    y_next[:, 0::2] = cs[1:, :, 0]
    y_next[:, 1::2] = cs[1:, :, 1] / width[1:, None]
    assert np.all(np.abs(right_ends - y_next) <= 1e-13 * np.maximum(1.0, np.abs(y_next)))
    P = polynomial.Polynomial
    for i in sorted({0, len(cs) // 2, len(cs) - 1}):
        r = dense.r_lefts[i] + np.array([0.1, 0.5, 0.9]) * width[i]
        theta = (r - dense.r_lefts[i]) / width[i]  # as the dense output reads it
        got = dense(r)
        for j in range(m):
            want = P(cs[i, j]).deriv()(theta) / width[i]
            err = np.abs(got[:, 2 * j + 1] - want)
            assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(want)))


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


def test_horizon_below_one_stride_is_entire(spec2, u0):
    # the stride (0.01) places the rows only: a horizon below it has the
    # rows 0 and r_max, and its fit on [0.0025, 0.005] sees u still flat
    traj = integrate(spec2, u0.jet(), IntegratorConfig(r_max=0.005))
    assert isinstance(traj.verdict, EntirePositive)
    assert abs(traj.verdict.growth_exponent) < 1e-3
    assert np.array_equal(traj.r, [0.0, 0.005])


# --- the scalar series step against the NumPy matrix form of its relations --

def _conv(x, y, n):
    """Cauchy product of two coefficient arrays, through t^n."""
    return np.convolve(x, y)[:n + 1]


def _check_step_against_reference(dtype, p, r, y, width):
    """Run _series and _try_step on scalars and check every relation in
    NumPy array form.  In x = (r' - r) / unit, unit = r for r > 0 and 1 at
    the origin, and rho = 1 for r > 0 and 0 at the origin, each level L_j
    below the top satisfies (rho + x) L_j'' + 2 L_j' = unit^2 (rho + x)
    L_{j+1}, and the top one ((rho + x) L'' + 2 L') u^|p| = -unit^2 (rho +
    x) (Lap^m u = -u^p), each through the orders the series fixes, within
    64 eps of the magnitudes summed there; the step's polynomials are the
    series in theta = (r' - r) / width, and its end state their sums.
    Returns the step (None when rejected)."""
    eps, n = np.finfo(dtype).eps, _ORDER
    r, width = dtype(r), dtype(width)
    rho, unit = (dtype(1), r) if r else (dtype(0), dtype(1))
    a = _series(p, r, [dtype(v) for v in y], n)
    A = np.array(a, dtype=dtype)
    k = np.arange(n + 1)
    d1 = np.zeros_like(A)
    d1[:, :-1] = A[:, 1:] * k[1:]
    d2 = np.zeros_like(A)
    d2[:, :-1] = d1[:, 1:] * k[1:]
    rho_x = np.zeros(n + 1, dtype=dtype)
    rho_x[:2] = rho, 1
    m = len(a)
    for j in range(m):
        lhs = _conv(rho_x, d2[j], n) + 2 * d1[j]
        mag = _conv(rho_x, np.abs(d2[j]), n) + 2 * np.abs(d1[j])
        if j < m - 1:
            rhs = unit * unit * _conv(rho_x, A[j + 1], n)
            mag += unit * unit * _conv(rho_x, np.abs(A[j + 1]), n)
        else:
            mag_u = np.abs(A[0])
            for _ in range(-p):
                lhs, mag = _conv(lhs, A[0], n), _conv(mag, mag_u, n)
            rhs = -unit * unit * rho_x
        fixed = slice(0, n - 1)  # the series fixes L'' through tau^(n-2)
        assert np.all(np.abs(lhs - rhs)[fixed] <= 64 * eps * mag[fixed]), j
    step = _try_step(a, unit, width)
    theta_series = A * (width / unit) ** k
    if step is not None:
        c, y_new = step
        assert np.all(np.abs(np.array(c, dtype=dtype) - theta_series)
                      <= 8 * eps * np.abs(theta_series))
        ends = np.array(y_new, dtype=dtype)
        mag = np.abs(theta_series).sum(axis=1)
        assert np.all(np.abs(ends[0::2] - theta_series.sum(axis=1)) <= 64 * eps * mag)
        slope = (theta_series * k).sum(axis=1) / width
        assert np.all(np.abs(ends[1::2] - slope) <= 64 * eps * n * mag / width)
    return step


_STEP_CASES = {
    "m2_wall": (2, -0.2, 30.0),        # m=2 collapse: huge slots near the wall
    "m3_floor": (3, (10.0, -6.0, 1.0), 30.0),
    "m3_entire": (3, (10.0, -1.0, 1.0), 100.0),
}


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("case", sorted(_STEP_CASES))
def test_scalar_step_matches_matrix_form(u0, case, precision):
    # at steps of a trajectory, the scalar step satisfies the relations it
    # solves, and the step taken there keeps the last two terms of every
    # level's series within its tolerance (the step rule)
    m, param, r_max = _STEP_CASES[case]
    jet = _m2_jet(u0, param) if m == 2 else Jet(param)
    spec = EquationSpec.for_order(m)
    cfg = IntegratorConfig(r_max=r_max, precision=precision)
    dense = integrate(spec, jet, cfg).dense
    assert dense.cs.dtype == cfg.dtype
    n_steps = len(dense.cs)
    for i in sorted({0, 1, n_steps // 2, n_steps - 2, n_steps - 1}):  # 0 is the origin series
        width = dense.r_rights[i] - dense.r_lefts[i]
        y = np.empty(2 * m, dtype=cfg.dtype)
        y[0::2] = dense.cs[i, :, 0]
        y[1::2] = dense.cs[i, :, 1] / width
        step = _check_step_against_reference(cfg.dtype, spec.rhs_exponent,
                                             dense.r_lefts[i], y, width)
        assert step is not None  # an accepted step of the trajectory
        c = np.array(step[0], dtype=float)
        tol = _STEP_TOL * (cfg.abs_tol + cfg.rel_tol * np.abs(c[:, 0]))
        assert np.all(np.abs(c[:, -2:]) <= tol[:, None] * (1 + 1e-9))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_scalar_step_rejects_a_stage_without_positive_u(dtype):
    # u = 1e-3 - t + ..., with u^-7 = 1e21 pulling it down: the step is
    # rejected over t = 0.1 and 1e-5, taken over the 2.4e-7 of the step rule
    y = [1e-3, -1.0, 0.5, 0.0]
    for width in (0.1, 1e-5):
        assert _check_step_against_reference(dtype, -7, 1.0, y, width) is None
    assert _check_step_against_reference(dtype, -7, 1.0, y, 2e-7) is not None


def test_rejected_steps_halve_on_the_same_series(monkeypatch):
    # steps 8 times the rule's overshoot into the collapse and are rejected
    # (13 accepted, 13 rejected): each halving reuses its series, so the
    # series are the accepted steps plus the one the wall closure reads
    step_size = integrator._step_size
    monkeypatch.setattr(integrator, "_step_size", lambda *args: 8.0 * step_size(*args))
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, r_max=30.0)
    traj = integrate(EquationSpec.for_order(2), jet_m2(-0.2), cfg)
    stats = traj.stats
    assert stats["nreject"] > 0 and stats["nfev"] == stats["naccept"] + 1
    assert isinstance(traj.verdict, Collapsed) and stats["closure"]["kind"] == "wall"


def test_step_counts_pinned(u0, traj_u0_1000):
    # counts of the series step with the wall closure, which reads one
    # series more than it steps; an entire trajectory never closes, and each
    # collapse keeps r* within abs_tol of stepping on to the floor (the r*
    # pins, each within 1e-11 of an extended run at rel_tol 1e-12)
    spec2, spec3 = EquationSpec.for_order(2), EquationSpec.for_order(3)
    ext = IntegratorConfig(r_max=100.0, precision="extended")
    runs = {
        "m2 rho=0": (traj_u0_1000, (35, 0, 35), None),
        "m2 rho=-0.2": (integrate(spec2, _m2_jet(u0, -0.2), IntegratorConfig(r_max=1e3)),
                        (33, 0, 34), 0.32281330049146356),
        "m3 (10,-6,1)": (integrate(spec3, Jet((10.0, -6.0, 1.0)),
                                   IntegratorConfig(r_max=100.0)), (31, 0, 32),
                         3.318089514836733),
        "m2 (0.45493..., 5.90396...)": (
            integrate(spec2, Jet((0.4549336961319741, 5.90396901379629)),
                      IntegratorConfig(r_max=1e3)), (40, 0, 41), 1.4060686972977783),
        "extended m3 (10,-6,1)": (integrate(spec3, Jet((10.0, -6.0, 1.0)), ext),
                                  (31, 0, 32), 3.3180895148367324),
        "extended m2 rho=-0.2": (
            integrate(spec2, _m2_jet(u0, -0.2),
                      IntegratorConfig(r_max=1e3, precision="extended")), (33, 0, 34),
            0.3228133004914646),
    }
    for name, (traj, counts, r_star) in runs.items():
        assert tuple(traj.stats[k] for k in ("naccept", "nreject", "nfev")) == counts, name
        if r_star is not None:
            assert abs(traj.verdict.r_star - r_star) <= 1e-10, name
            assert traj.stats["closure"]["kind"] == "wall", name
        if name.startswith("extended"):
            d = traj.dense
            for arr in (d.r_lefts, d.r_rights, d.cs):
                assert arr.dtype == np.longdouble, name


_C2 = (16.0 / 15.0) ** 0.125  # u ~ c (R - r)^(1/2) solves Lap^2 u = -u^-7 near the wall


def _power_series(coef, alpha, s0, r0):
    """Coefficients in tau = (r - r0) / r0 of coef (R - r)^alpha, R = r0 + s0."""
    out, b = [], 1.0  # b = binom(alpha, k) (-r0 / s0)^k
    for k in range(_ORDER + 1):
        out.append(coef * s0 ** alpha * b)
        b *= (alpha - k) / (k + 1) * (-r0 / s0)
    return out


def _cubic_log_series(s0, r0):
    """Coefficients in tau of (R - r)^3 log(R - r), R = r0 + s0: with g(x) =
    x^3 log x, a_k = (-r0)^k g^(k)(s0) / k!, g^(k)(x) = 6 (-1)^k (k-4)!
    x^(3-k) from k = 4 on."""
    x, log_x = s0, math.log(s0)
    g = [x ** 3 * log_x, 3 * x * x * log_x + x * x, 6 * x * log_x + 5 * x, 6 * log_x + 11]
    return [gk * (-r0) ** k / math.factorial(k) for k, gk in enumerate(g)] + [
        6.0 * math.factorial(k - 4) / math.factorial(k) * s0 ** 3 * (r0 / s0) ** k
        for k in range(4, _ORDER + 1)]


def _m2_series(s0, r0, delta=0.0):
    """c (R - r)^(1/2) (1 + delta (R - r)) about r0 = R - s0."""
    return [a + b for a, b in zip(_power_series(_C2, 0.5, s0, r0),
                                  _power_series(_C2 * delta, 1.5, s0, r0))]


def _m3_series(s0, r0, alpha=2.0, beta=0.0):
    """alpha t + beta t^2 + t^3 log t, t = R - r, plus e^r / 100 about r0 = R - s0."""
    a = _cubic_log_series(s0, r0)
    a[0] += alpha * s0 + beta * s0 * s0
    a[1] -= (alpha + 2 * beta * s0) * r0
    a[2] += beta * r0 * r0
    return [ak + 0.01 * math.exp(r0) * r0 ** k / math.factorial(k) for k, ak in enumerate(a)]


def _readings(series, R, s_first, n):
    """The readings of series(s0, r0) at s0 = s_first 0.75^i, i < n, chained."""
    wall = None
    for i in range(n):
        s0 = s_first * 0.75 ** i
        wall = _read_wall(series(s0, R - s0), R - s0, wall)
    return wall, s0


def _m2_wall_state(s, r):
    """State of u = c (R - r)^(1/2) at distance s = R - r, all slots exact."""
    u, u1 = _C2 * s ** 0.5, -0.5 * _C2 * s ** -0.5
    u2, u3 = -0.25 * _C2 * s ** -1.5, -0.375 * _C2 * s ** -2.5
    return [u, u1, u2 + 2 * u1 / r, u3 + 2 * u2 / r - 2 * u1 / r ** 2]


def _m3_quadratic_state(s, r, alpha, beta):
    """State of u = alpha t + beta t^2, t = R - r, at t = s."""
    u, u1, u2 = alpha * s + beta * s * s, -alpha - 2 * beta * s, 2 * beta
    # Lap u = u'' + 2u'/r and (Lap u)' = 2u''/r - 2u'/r^2; Lap^2 u falls away from 0
    return [u, u1, u2 + 2 * u1 / r, 2 * u2 / r - 2 * u1 / r ** 2, -1e3, -1e5]


@pytest.mark.parametrize("s, u_floor", [(1e-2, 1e-8), (1e-6, 1e-8), (1e-12, 1e-8),
                                        (1e-2, 1e-4)])
def test_wall_distance_exact_m2(s, u_floor):
    # the ratio test on the series of c (R - r)^(1/2) reads s = R - r exactly,
    # and the floor lies (u_floor/c)^2 before R: gamma = -s u'/u is 1/2
    wall = _read_wall(_m2_series(s, 0.7), 0.7, None)
    assert abs(wall.d - s) <= 1e-13 * s and wall.gap == math.inf
    got = _close_on_wall(2, _m2_wall_state(s, 0.7), wall.d, u_floor)
    assert abs(got - (s - (u_floor / _C2) ** 2)) <= 1e-13 * s


@pytest.mark.parametrize("beta", [0.0, 0.3, -0.3])
@pytest.mark.parametrize("s", [1e-2, 1e-5])
def test_wall_distance_exact_m3(s, beta):
    # alpha t + beta t^2 + t^3 log t plus an analytic part: only the log term
    # reaches the top coefficients, and its exponent needs no table, so the
    # reading is exact; the floor offset of the local exponent is exact for
    # beta = 0 and off by about (u_floor / alpha) (beta s / alpha) log(u / u_floor)
    alpha, u_floor = 0.8, 1e-8
    wall = _read_wall(_m3_series(s, 2.5, alpha, beta), 2.5, None)
    assert abs(wall.d - s) <= 1e-13 * s
    got = _close_on_wall(3, _m3_quadratic_state(s, 2.5, alpha, beta), wall.d, u_floor)
    t_floor = 2 * u_floor / (alpha + math.sqrt(alpha * alpha + 4 * beta * u_floor))
    off = u_floor / alpha * abs(beta) * s / alpha * math.log(alpha * s / u_floor)
    assert abs(got - (s - t_floor)) <= 1e-13 * s + off


@pytest.mark.parametrize("series, R", [(_m2_series, 0.7), (_m3_series, 3.3)])
def test_wall_reading_chained_exact_for_one_power(series, R):
    # both extrapolations over readings of an exact wall keep it exact, and
    # the third reading on carries a gap
    wall, s0 = _readings(series, R, 1e-3, 8)
    assert abs(wall.d - s0) <= 1e-13 * s0
    assert abs(wall.to_r - s0) <= 1e-11 * s0 and abs(wall.sigma - s0) <= 1e-11 * s0
    assert wall.gap <= 1e-10 * s0
    assert _readings(series, R, 1e-3, 2)[0].gap == math.inf


@pytest.mark.parametrize("delta", [1.0, -3.0])
def test_wall_reading_extrapolates_the_bias(delta):
    # c (R - r)^(1/2) (1 + delta (R - r)): the next power biases d by O(s^2);
    # the linear extrapolation sigma overshoots it, so its correction bounds
    # the bias, and the quadratic one (to_r) leaves O(s^3)
    for n in (8, 12):
        wall, s0 = _readings(lambda s, r: _m2_series(s, r, delta), 0.7, 1e-2, n)
        bias = wall.d - s0
        assert 1e-6 * s0 < abs(bias) <= 2e-4 * abs(delta) * s0
        assert abs(wall.sigma - wall.d) >= abs(bias) and wall.gap >= abs(bias)
        assert abs(wall.to_r - s0) <= 1e-3 * abs(bias)


def test_wall_distance_needs_falling_u():
    # a rising u gives no reading, even with a singularity ahead, and so does
    # a flat one
    blow_up = _power_series(1.0, -0.5, 1e-4, 0.7)  # (R - r)^(-1/2)
    assert blow_up[1] > 0.0 and _read_wall(blow_up, 0.7, None) is None
    for series, r0 in ((_m2_series(1e-6, 0.7), 0.7), (_m3_series(1e-5, 2.5), 2.5)):
        assert _read_wall(series, r0, None) is not None
        for slope in (0.0, 1e-3):
            assert _read_wall([series[0], slope, *series[2:]], r0, None) is None


@pytest.mark.parametrize("m, slot", [(2, 2), (3, 4)])
def test_wall_distance_refuses_a_slot_crossing(m, slot):
    # the top Laplacian slot w heading for zero closes only if it stays
    # clear of it over the remaining distance s, with a factor 2 margin
    s = 1e-5
    y = _m2_wall_state(s, 0.7) if m == 2 else _m3_quadratic_state(s, 0.7, 0.8, 0.0)
    y[slot + 1] = 1e3
    for lap, closes in ((-1.5 * 2 * s * 1e3, True), (-2 * s * 1e3 * 0.75, False),
                        (0.0, False), (1e-3, True)):
        y[slot] = lap
        assert (_close_on_wall(m, y, s, 1e-8) is not None) is closes, lap
    assert _close_on_wall(m, y, 0.0, 1e-8) is None  # no distance ahead


def test_wall_distance_reads_only_the_top_slot():
    # an m=3 Lap u heading for zero within s does not hold the closure back:
    # nothing records its sign changes, and over 1461 collapses (1257 of
    # them m=3, double and extended, rel_tol 1e-6 ... 1e-11, full and
    # stopped) reading it changed no verdict, r*, step or series
    s = 1e-5
    y = _m3_quadratic_state(s, 0.7, 0.8, 0.0)
    want = _close_on_wall(3, y, s, 1e-8)
    assert want is not None
    y[3] = 1e3
    for lap in (-2 * s * 1e3 * 0.75, 0.0):
        y[2] = lap
        assert _close_on_wall(3, y, s, 1e-8) == want, lap


def _lap_sign_changes(traj):
    """The levels of the Laplacian slots' sign changes from one step end to
    the next up to the end state, in order (by step, then level)."""
    ends = np.vstack([traj.dense.cs[:, 1:, 0].astype(float), traj.end.y[2::2]])
    _, level = np.nonzero(np.diff(np.sign(ends), axis=0))
    return (level + 1).tolist()


# m=2 offsets rho in [-0.45, -0.02] and m=3 (10, -eps, 1), eps in [3.5, 10]
_COLLAPSES = st.one_of(st.tuples(st.just(2), st.floats(-0.45, -0.02)),
                       st.tuples(st.just(3), st.floats(3.5, 10.0)))


@settings(max_examples=16, deadline=None)
@given(case=_COLLAPSES)
@example(case=(2, -0.0531990520226406))  # closing on one agreeing step: r* 2e-8 off
def test_wall_closure_matches_tight_stepping(case):
    # closing on the wall at default tolerances gives the verdict, the
    # Laplacian slots' sign changes and r* (to 1e-8) of stepping much closer
    # in at tight ones
    m, param = case
    spec, jet = EquationSpec.for_order(m), jet_m2(param) if m == 2 else jet_m3(10.0, param)
    coarse = integrate(spec, jet, default_config(m))
    tight = integrate(spec, jet, default_config(m, rel_tol=1e-10, abs_tol=1e-12))
    assert isinstance(coarse.verdict, Collapsed)
    assert type(tight.verdict) is type(coarse.verdict)
    assert _lap_sign_changes(coarse) == _lap_sign_changes(tight)
    assert abs(coarse.verdict.r_star - tight.verdict.r_star) <= 1e-8


@settings(max_examples=12, deadline=None)
@given(case=_COLLAPSES)
def test_wall_closure_within_abs_tol_at_tight_tolerances(case):
    # at the tolerances of criterion 5's comparison pairs the wall closes
    # within abs_tol of an extended run at 100x tighter ones (measured: 0.66
    # abs_tol for m=2 and 0.06 for m=3 over 200 draws)
    m, param = case
    spec, jet = EquationSpec.for_order(m), jet_m2(param) if m == 2 else jet_m3(10.0, param)
    traj = integrate(spec, jet, default_config(m, rel_tol=1e-10, abs_tol=1e-12))
    ref = integrate(spec, jet, default_config(m, rel_tol=1e-12, abs_tol=1e-14,
                                              precision="extended"))
    assert traj.stats["closure"]["kind"] == "wall"
    assert abs(traj.verdict.r_star - ref.verdict.r_star) <= 1e-12


def test_closure_is_recorded(u0, traj_u0_1000, monkeypatch):
    assert traj_u0_1000.stats["closure"] is None
    spec3, jet3 = EquationSpec.for_order(3), Jet((10.0, -6.0, 1.0))
    wall = integrate(spec3, jet3, IntegratorConfig(r_max=30.0)).stats["closure"]
    assert wall["kind"] == "wall"
    assert 0.0 < wall["s"] < 1e-3 and wall["disagreement"] <= 1e-10
    # a high floor is crossed long before the wall readings settle
    monkeypatch.setattr(integrator, "_U_FLOOR", 1e-2)
    floor = integrate(spec3, jet3, IntegratorConfig(r_max=30.0))
    assert floor.stats["closure"] == {"kind": "floor"}
    assert floor.events[-1].kind == "u_floor"
    assert floor.events[-1].r_event == floor.verdict.r_star == floor.r_end
