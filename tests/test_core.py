import ast
import importlib
import math
import pkgutil
from dataclasses import replace
from itertools import islice
from operator import mul
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from polyshoot import (
    EquationSpec,
    IntegratorConfig,
    Jet,
    Inconclusive,
    NonPositiveU,
    integrate,
    taylor_launch,
)
import polyshoot
from polyshoot import cubic_profile, linear_profile
from polyshoot.core import _ORDER, TopZero, _power0, _series
from polyshoot.integrator import _FIT_NODES, _STEP_TOL, fit_tail
from polyshoot.shooting import _SETTLE, default_config, jet_m2, jet_m3

from conftest import ode_residual_max, scaled_jet, scaling_weights


def test_spec_exponents():
    s2 = EquationSpec.for_order(2)
    assert (s2.rhs_exponent, s2.vol_exponent) == (-7, -6)
    s3 = EquationSpec.for_order(3)
    assert (s3.rhs_exponent, s3.vol_exponent) == (-3, -2)
    with pytest.raises(ValueError):
        EquationSpec.for_order(1)
    with pytest.raises(ValueError):
        EquationSpec(4)
    assert EquationSpec(3) == s3 and s3.n_state == 6


def test_jet_length_must_match_the_order(spec2):
    # the origin series needs exactly m values: a third value for m=2 is a
    # usage error, not a NumPy shape error further on
    with pytest.raises(ValueError, match="jet has 3 values"):
        integrate(spec2, Jet((1.0, 2.0, 3.0)), IntegratorConfig(r_max=10.0))


def test_jet_requires_positive_u0():
    with pytest.raises(NonPositiveU):
        Jet((0.0, 1.0))
    with pytest.raises(NonPositiveU):
        Jet((-1.0, 1.0))


@pytest.mark.parametrize("values", [(1.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0),
                                    (10.0, -math.nan, 1.0), (math.inf, 0.0, 1.0)])
def test_jet_rejects_non_finite_values(values):
    # a usage error (ValueError), not NonPositiveU, even where u(0) is NaN
    with pytest.raises(ValueError, match="finite"):
        Jet(values)


def test_every_exported_name_resolves():
    # each name in __all__, the package's and every module's, is defined
    for info in pkgutil.iter_modules(polyshoot.__path__):
        module = importlib.import_module(f"polyshoot.{info.name}")
        assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    assert [n for n in polyshoot.__all__ if not hasattr(polyshoot, n)] == []


def test_no_assert_in_the_library():
    # python -O strips asserts: every check in the package raises a typed error
    paths = sorted(Path(polyshoot.__file__).parent.glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert paths and found == []


def test_rhs_closed_form_last_slot(spec2, u0):
    # about r0 = 1 each level's tau coefficients are its slope and half its
    # second derivative, which the right-hand side fixes: at the top level
    # -u^-7 - 2 (lap u)', below it lap u - 2 u'
    y = [u0.eval(1.0, k) for k in range(4)]
    a = _series(spec2.rhs_exponent, 1.0, y, _ORDER)
    expect = -y[0] ** -7 - 2.0 * y[3]
    assert 2.0 * a[1][2] == pytest.approx(expect, rel=1e-14)
    assert 2.0 * a[0][2] == pytest.approx(y[2] - 2.0 * y[1], rel=1e-14)
    assert (a[0][1], a[1][1]) == (y[1], y[3])


@pytest.mark.parametrize("m", [2, 3])
def test_rhs_unit_state(m):
    # u=1 with every other slot zero at r=1: only the top level bends, with
    # second derivative -1 (tau^2 coefficient -1/2)
    spec = EquationSpec.for_order(m)
    a = _series(spec.rhs_exponent, 1.0, [1.0] + [0.0] * (2 * m - 1), _ORDER)
    assert [level[:3] for level in a] == [[1.0, 0.0, 0.0]] + [[0.0, 0.0, 0.0]] * (m - 2) \
        + [[0.0, 0.0, -0.5]]


def test_rhs_overflow_is_non_finite(spec2):
    # 1e-50 ** -7 overflows binary64, where a Python float raises
    # OverflowError: the series of the right-hand side -u^p is then not
    # finite, without raising, and an origin jet there sizes no step, so
    # the trajectory stalls at r = 0 with one row
    a = _series(spec2.rhs_exponent, 1.0, [1e-50, 0.0, 1.0, 0.0], _ORDER)
    assert not all(math.isfinite(v) for level in a for v in level)
    traj = integrate(spec2, Jet((1e-50, 1.0)), IntegratorConfig())
    assert isinstance(traj.verdict, Inconclusive) and "r=0" in traj.verdict.reason
    assert len(traj) == 1 and traj.r[0] == 0.0 and traj.stats["naccept"] == 0


def test_taylor_series_m3_matches_stated_polynomial(spec3):
    # origin series of u: k - eps r^2/6 + r^4/120 - k^-3 r^6/5040 + O(r^8),
    # and of Lap^2 u: 1 - k^-3 r^2/6 + O(r^4); odd powers exactly 0
    k, eps = 10.0, 0.5
    a = taylor_launch(spec3, Jet((k, -eps, 1.0)))
    assert [len(level) for level in a] == [_ORDER + 1] * 3
    assert a[0][:8] == pytest.approx([k, 0, -eps / 6, 0, 1 / 120, 0, -k ** -3 / 5040, 0],
                                     rel=1e-14, abs=0)
    assert a[2][:4] == pytest.approx([1.0, 0, -k ** -3 / 6, 0], rel=1e-14, abs=0)
    assert all(v == 0.0 for level in a for v in level[1::2])


def _series_state(a, r):
    """Every slot of the origin series a at radius r: each level and its d/dr."""
    return np.ravel([(P.polyval(r, level), P.polyval(r, P.polyder(level))) for level in a])


def test_taylor_launch_matches_closed_form(spec2, u0):
    # the origin series through r^24 of (shift + r^2)^(1/2) and its
    # Laplacian, every slot within 4 eps near the origin; further out its
    # truncation error grows like (r / sqrt(shift))^26, at least like r^20
    a = np.array(taylor_launch(spec2, u0.jet()))

    def err(r):
        ref = np.array([u0.eval(r, k) for k in range(4)])
        return np.max(np.abs(_series_state(a, r) - ref) / np.maximum(1.0, np.abs(ref)))

    for r in (0.02, 0.05, 0.1):
        assert err(r) <= 4 * np.finfo(float).eps, r
    assert 1e-10 < err(0.2) < err(0.3) / 1.5 ** 20


def test_taylor_coefficient_rule_symbolic():
    # the rule the origin series solves: Lap r^n = n (n+1) r^(n-2) in 3-D,
    # so r L'' + 2 L' = r b gives a_{k+2} = b_k / ((k+2)(k+3))
    sympy = pytest.importorskip("sympy")
    r = sympy.symbols("r", positive=True)
    for n in range(2, _ORDER + 1):
        term = r ** n
        lap = sympy.diff(term, r, 2) + 2 / r * sympy.diff(term, r)
        assert sympy.simplify(lap - n * (n + 1) * r ** (n - 2)) == 0


@pytest.mark.parametrize("m", [2, 3])
def test_series_match_sympy_to_order_n(m):
    # the general-order recurrence against the series of (shift + r^2)^q,
    # q = 1/2 (m=2) or 3/2 (m=3), and of its Laplacians, through order N:
    # in r at the origin (odd orders exactly 0), and in tau = (r - 0.7) /
    # 0.7 about 0.7
    sympy = pytest.importorskip("sympy")

    cf = (linear_profile() if m == 2 else cubic_profile())
    spec = EquationSpec.for_order(m)
    r, t = sympy.symbols("r t")
    shift = sympy.Float(cf.shift, 40)
    levels = [(shift + r ** 2) ** sympy.Rational(2 * m - 3, 2)]
    for _ in range(m - 1):
        g = levels[-1]
        levels.append(sympy.factor(sympy.diff(g, r, 2) + 2 / r * sympy.diff(g, r)))
    a = taylor_launch(spec, cf.jet())
    for j, g in enumerate(levels):
        ser = sympy.series(g, r, 0, _ORDER + 1).removeO()
        want = [float(ser.coeff(r, k)) for k in range(0, _ORDER + 1, 2)]
        assert np.allclose(a[j][0::2], want, rtol=1e-13, atol=0), j
        assert all(v == 0.0 for v in a[j][1::2]), j
    r0 = 0.7
    y = [float(sympy.diff(g, r, d).subs(r, r0)) for g in levels for d in (0, 1)]
    a = _series(spec.rhs_exponent, r0, y, _ORDER)
    for j, g in enumerate(levels):
        ser = sympy.series(g.subs(r, r0 * (1 + t)), t, 0, _ORDER + 1).removeO()
        want = np.array([float(ser.coeff(t, k)) for k in range(_ORDER + 1)])
        scale = np.abs(want).max()
        assert np.all(np.abs(np.array(a[j]) - want) <= 1e-12 * scale), j


def _frozen_power_coefficient(p, u, iu, v_rev, k):
    # _series before its loop was tightened, kept verbatim as the reference
    # the new loop must match bit for bit
    s_iu = sum(map(mul, iu, v_rev))
    s_u = sum(map(mul, islice(u, 1, None), v_rev))
    return ((p + 1) * s_iu - k * s_u) / (k * u[0])


def _frozen_series(p, r0, y, order):
    m = len(y) // 2
    a = [[y[2 * j], y[2 * j + 1] * r0] for j in range(m)]
    u, top = a[0], a[m - 1]
    rr, iu, v_rev = r0 * r0, [u[1]], [_power0(u[0], p)]
    for k in range(order - 1):
        if k:
            v_rev.insert(0, _frozen_power_coefficient(p, u, iu, v_rev, k))
        if r0:
            f = rr / ((k + 1) * (k + 2))
            top.append(-(v_rev[0] + v_rev[1]) * f - top[k + 1] if k
                       else -v_rev[0] * f - top[1])
            for j in range(m - 2, -1, -1):
                b = a[j + 1]
                a[j].append((b[k] + b[k - 1]) * f - a[j][k + 1] if k
                            else b[0] * f - a[j][1])
        else:
            d = (k + 2) * (k + 3)
            top.append(-v_rev[0] / d)
            for j in range(m - 2, -1, -1):
                a[j].append(a[j + 1][k] / d)
        iu.append((k + 2) * u[k + 2])
    return a


def _same_scalar(x, y):
    """Bit for bit: the same type, value and sign of zero, or both NaN."""
    if type(x) is not type(y):
        return False
    if math.isnan(x):
        return math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def test_series_bits_match_the_frozen_reference():
    # 1200 seeded states, m = 2 and 3, at the origin (odd slots 0) and at
    # r0 > 0, in double and extended; slots may be +-0, and u small enough
    # that u^p overflows double, so non-finite coefficients are covered too
    rng = np.random.default_rng(20190123)

    def value(lo, hi):
        if rng.random() < 0.1:
            return rng.choice([0.0, -0.0])
        return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(lo, hi))

    n = 0
    for num in (float, np.longdouble):
        for m in (2, 3):
            p = EquationSpec.for_order(m).rhs_exponent
            for origin in (True, False):
                for _ in range(150):
                    r0 = num(0.0) if origin else num(10.0 ** rng.uniform(-3, 3))
                    y = [abs(value(-60 if rng.random() < 0.05 else -2, 2)) or 1.0]
                    y += [value(-3, 3) for _ in range(2 * m - 1)]
                    if origin:
                        y[1::2] = [0.0] * m
                    y = [num(v) for v in y]
                    with np.errstate(over="ignore", invalid="ignore"):
                        want = _frozen_series(p, r0, y, _ORDER)
                        got = _series(p, r0, y, _ORDER)
                    assert [len(level) for level in got] == [_ORDER + 1] * m
                    bad = [(j, k) for j in range(m) for k in range(_ORDER + 1)
                           if not _same_scalar(got[j][k], want[j][k])]
                    assert bad == [], (num, p, r0, y, bad[:3])
                    n += 1
    assert n == 1200


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("m", [2, 3])
def test_fit_reads_the_same_u_as_the_full_dense_read(u0, u1, m, precision):
    # the tail fit evaluates only the u slot at its nodes; Horner runs
    # elementwise per slot, so those are the bits of dense(r)[:, 0]
    spec = EquationSpec.for_order(m)
    cfg = replace(default_config(m), precision=precision)
    traj = integrate(spec, (u0 if m == 2 else u1).jet(), cfg)
    tail, d = traj.verdict.tail, traj.dense
    r = np.linspace(tail.window[0], min(tail.window[1], d.r_hi), _FIT_NODES)
    got = d(r, slots=slice(0, 1))
    assert got.shape == (_FIT_NODES, 1) and got.dtype == np.float64
    assert got[:, 0].tobytes() == d(r)[:, 0].tobytes()
    assert fit_tail(d, tail.window) == tail


def test_taylor_self_consistency(spec2, spec3, u0, u1):
    # the first step of an integration is the origin series on [0, width],
    # rescaled to theta = r / width; where it ends, it agrees with a tight
    # integration, which is there on a later step, a series about r0 > 0,
    # to well within the default rel_tol (measured 8e-11)
    eps = np.finfo(float).eps
    for spec, cf in ((spec2, u0), (spec3, u1)):
        jet = cf.jet()
        a = np.array(taylor_launch(spec, jet))
        d = integrate(spec, jet, IntegratorConfig(r_max=1.0)).dense
        width = d.r_rights[0]
        assert d.r_lefts[0] == 0.0
        want = a * width ** np.arange(_ORDER + 1)
        assert np.all(np.abs(d.cs[0] - want) <= 4 * eps * np.abs(want))
        tight = integrate(spec, jet, IntegratorConfig(r_max=1.0, rel_tol=1e-12,
                                                      abs_tol=1e-14)).dense
        assert tight.r_rights[0] < width
        y = d(width)
        assert np.all(np.abs(tight(width) - y) <= 1e-9 * np.maximum(1.0, np.abs(y)))


def test_launch_radius_guard(spec2, spec3, u0):
    # the launch radius is the step rule's size for the origin series: its
    # last two terms within _STEP_TOL (abs_tol + rel_tol |L_j(0)|) in every
    # level, and at 0.9^N of it in one; jets with steep coefficient chains
    # (rho = -0.45, u(0) = 0.05) launch without a rejection
    cfg = IntegratorConfig(r_max=30.0)
    for spec, jet in ((spec2, u0.jet()), (spec2, jet_m2(-0.45)), (spec2, Jet((0.05, 1.0))),
                      (spec3, Jet((10.0, -3.0751, 1.0)))):
        traj = integrate(spec, jet, cfg)
        assert traj.stats["nreject"] == 0, jet
        c = traj.dense.cs[0]
        tol = _STEP_TOL * (cfg.abs_tol + cfg.rel_tol * np.abs(c[:, 0]))
        assert np.all(np.abs(c[:, -2:]) <= tol[:, None] * (1 + 1e-9)), jet
        assert np.max(np.abs(c[:, -1]) / tol) == pytest.approx(0.9 ** _ORDER, rel=1e-9), jet


# The scaling u_lam(r) = lam^((3-2m)/2) u(lam r) maps solutions to solutions:
# the run from the scaled jet (conftest.scaled_jet) to the horizon r_max / lam
# is the scaled run.


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_scaled_trajectory_still_solves_equation(spec2, u0, lam):
    scaled = integrate(spec2, scaled_jet(u0.jet(), lam), IntegratorConfig(r_max=50.0 / lam))
    r, y = scaled.r, scaled.y
    assert r[0] == 0.0 and np.all(np.diff(r) > 0) and np.all(y[0, 1::2] == 0.0)
    assert np.all(y[:, 0] > 0)
    assert scaled.r_end == pytest.approx(50.0 / lam)
    # measured 4.2e-11 at lam=0.5 and 3.9e-10 at lam=2
    assert ode_residual_max(scaled, r_lo=0.05, r_hi=10.0 / lam) < 2e-6
    # the quadrature-based reconstruction is much sharper
    from polyshoot import formula1_check

    assert formula1_check(scaled, 0) < 1e-6
    assert formula1_check(scaled, 1) < 1e-5


@pytest.mark.parametrize("lam", [0.5, 1.7, 3.0])
@pytest.mark.parametrize("m", [2, 3])
def test_scale_rescales_dense_output(u0, u1, m, lam):
    # the scaled run's dense(r / lam) is w * the run's dense(r), slot by slot,
    # at step boundaries and in between (measured 3.1e-13)
    spec = EquationSpec.for_order(m)
    jet = (u0 if m == 2 else u1).jet()
    traj = integrate(spec, jet, IntegratorConfig(r_max=20.0))
    scaled = integrate(spec, scaled_jet(jet, lam), IntegratorConfig(r_max=20.0 / lam))
    assert scaled.r_end * lam == traj.r_end
    d = traj.dense
    r = np.concatenate([np.linspace(0.0, d.r_hi, 997), d.r_lefts[1:]])
    want = scaling_weights(m, lam) * d(r)
    got = scaled.dense(r / lam)
    assert np.all(np.abs(got - want) <= 1e-11 * np.abs(want))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_scale_maps_the_verdict_fit(u0, u1, m, lam):
    # the entire verdict's fit c r^gamma (1 + d/r^2) on [r_end/2, r_end]
    # maps to c lam^((3-2m)/2 + gamma) r^gamma on the window divided by lam,
    # at the default horizons (gamma measured within 1.7e-11, c 1.2e-10)
    spec = EquationSpec.for_order(m)
    jet, cfg = (u0 if m == 2 else u1).jet(), default_config(m)
    old = integrate(spec, jet, cfg).verdict.tail
    scaled_cfg = default_config(m, r_max=cfg.r_max / lam)
    got = integrate(spec, scaled_jet(jet, lam), scaled_cfg).verdict.tail
    assert (got.window[0] * lam, got.window[1] * lam) == old.window
    assert got.gamma == pytest.approx(old.gamma, abs=1e-10)
    assert got.coeff == pytest.approx(
        old.coeff * scaling_weights(m, lam)[0] * lam ** old.gamma, rel=1e-9)


@pytest.mark.parametrize("m, jet", [(2, jet_m2(-0.2)), (3, jet_m3(10.0, 5.0))])
def test_scale_maps_the_top_zero(m, jet):
    # a collapsing run stopped at the top zero r0 scales to one stopped at
    # r0 / lam (measured 3.8e-11 apart); r_zero, where E = w + r w' reads
    # -tau, does not scale, as tau does not
    spec, cfg, lam = EquationSpec.for_order(m), default_config(m), 2.5
    traj = integrate(spec, jet, cfg, stop_at_top_zero=_SETTLE)
    scaled = integrate(spec, scaled_jet(jet, lam), default_config(m, r_max=cfg.r_max / lam),
                       stop_at_top_zero=_SETTLE)
    assert isinstance(scaled.verdict, TopZero) and scaled.verdict.r_zero <= scaled.r_end
    end = scaled.end  # w's zero, located to abs_tol in r
    assert abs(end.lap(m - 1)) <= cfg.abs_tol * abs(end.lap_deriv(m - 1))
    assert scaled.r_end * lam == pytest.approx(traj.r_end, abs=1e-9)


@pytest.mark.parametrize("m, jet", [(2, jet_m2(-0.2)), (3, jet_m3(10.0, 5.0))])
def test_scale_maps_the_collapse(m, jet):
    # a collapse at r* scales to one at r* / lam; the collapse floor does
    # not scale, so only to 6.6e-9 (m=3)
    spec, cfg, lam = EquationSpec.for_order(m), default_config(m), 2.5
    r_star = integrate(spec, jet, cfg).verdict.r_star
    scaled = integrate(spec, scaled_jet(jet, lam), default_config(m, r_max=cfg.r_max / lam))
    assert scaled.verdict.r_star * lam == pytest.approx(r_star, abs=1e-8)


@pytest.mark.parametrize("precision", ["double", "extended"])
@pytest.mark.parametrize("m", [2, 3])
def test_u_reads_the_u_slot_only(u0, u1, m, precision):
    # u is the u slot of the rows, which its first read builds, in float64
    # (test_trajectory_without_an_accepted_step covers the jet's u(0))
    spec = EquationSpec.for_order(m)
    cfg = IntegratorConfig(r_max=20.0, dense_output_stride=1e-3, precision=precision)
    traj = integrate(spec, (u0 if m == 2 else u1).jet(), cfg)
    u = traj.u
    assert traj._y is not None and u.shape == traj.r.shape and u.dtype == np.float64
    assert u.tobytes() == traj.dense(traj.r)[:, 0].tobytes()


def test_scale_transforms_jet_slots(spec3, u1):
    # every row of the scaled run is lam^(-3/2) u1(lam r) (measured 3.5e-12)
    lam = 2.0
    scaled = integrate(spec3, scaled_jet(u1.jet(), lam), IntegratorConfig(r_max=5.0 / lam))
    want = lam ** -1.5 * u1.eval(lam * scaled.r, 0)
    assert np.max(np.abs(scaled.u / want - 1.0)) <= 1e-9


def test_trajectory_invariants(traj_u0_50):
    r, y = traj_u0_50.r, traj_u0_50.y
    assert r[0] == 0.0 and np.all(np.diff(r) > 0)
    assert np.all(y[0, 1::2] == 0.0)
    assert np.all(y[:, 0] > 0)  # entire: u stays positive
    assert y[0, 0] == traj_u0_50.jet.lap_values[0]
    assert y[0, 2] == pytest.approx(traj_u0_50.jet.lap_values[1])
    end = traj_u0_50.end
    assert end.r == r[-1] == 50.0 and np.array_equal(end.y, y[-1])
