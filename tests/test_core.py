import importlib
import math
import os
import pkgutil
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from hypothesis import given, settings
from hypothesis import strategies as st

from polyshoot import (
    EquationSpec,
    IntegratorConfig,
    Jet,
    Inconclusive,
    NonPositiveU,
    integrate,
    ode_residual_max,
    scale,
    taylor_launch,
)
import polyshoot
from polyshoot import cubic_profile, linear_profile
from polyshoot.core import _ORDER, _scaling_weights, _series
from polyshoot.integrator import _STEP_TOL, fit_tail
from polyshoot.shooting import default_config, jet_m2


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


def test_rhs_closed_form_last_slot(spec2, u0):
    # about r0 = 1 each level's tau coefficients are its slope and half its
    # second derivative, which the right-hand side fixes: at the top level
    # -u^-7 - 2 (lap u)', below it lap u - 2 u'
    st_ = u0.state(1.0)
    a = _series(spec2.rhs_exponent, 1.0, st_.y.tolist(), _ORDER)
    expect = -u0.eval(1.0, 0) ** -7 - 2.0 * u0.eval(1.0, 3)
    assert 2.0 * a[1][2] == pytest.approx(expect, rel=1e-14)
    assert 2.0 * a[0][2] == pytest.approx(st_.y[2] - 2.0 * st_.y[1], rel=1e-14)
    assert (a[0][1], a[1][1]) == (st_.y[1], st_.y[3])


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
        ref = u0.state(r).y
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


def test_scale_identity(spec2, traj_u0_50):
    assert scale(spec2, traj_u0_50, 1.0) is traj_u0_50
    with pytest.raises(ValueError):
        scale(spec2, traj_u0_50, -2.0)


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_scaled_trajectory_still_solves_equation(spec2, traj_u0_50, lam):
    scaled = scale(spec2, traj_u0_50, lam)
    scaled.validate()
    assert scaled.r_end == pytest.approx(traj_u0_50.r_end / lam)
    # the rescaled dense output gives (w')' without differencing samples:
    # measured 1.7e-7 at lam=0.5 and 5.4e-7 at lam=2
    assert ode_residual_max(scaled, r_lo=0.05, r_hi=10.0 / lam) < 2e-6
    # the quadrature-based reconstruction is much sharper
    from polyshoot import formula1_check

    assert formula1_check(scaled, 0) < 1e-6
    assert formula1_check(scaled, 1) < 1e-5


@pytest.mark.parametrize("lam", [0.5, 1.7, 3.0])
@pytest.mark.parametrize("m", [2, 3])
def test_scale_rescales_dense_output(u0, u1, m, lam):
    # scale(traj, lam).dense(r / lam) is w * traj.dense(r), and its d/dr is
    # lam * w times the original's, at step boundaries and in between
    spec = EquationSpec.for_order(m)
    traj = integrate(spec, (u0 if m == 2 else u1).jet(), IntegratorConfig(r_max=20.0))
    scaled = scale(spec, traj, lam)
    w = _scaling_weights(spec, lam)
    d = traj.dense
    r = np.concatenate([np.linspace(0.0, d.r_hi, 997), d.r_lefts[1:]])
    for derivative, factor in ((0, w), (1, lam * w)):
        want = factor * d(r, derivative)
        got = scaled.dense(r / lam, derivative)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_scale_maps_the_verdict_fit(u0, u1, m, lam):
    # the entire verdict's fit c r^gamma (1 + d/r^2) maps exactly: it is a
    # fresh fit of the scaled dense output on the window divided by lam, at
    # the default horizons
    spec = EquationSpec.for_order(m)
    traj = integrate(spec, (u0 if m == 2 else u1).jet(), default_config(m))
    scaled = scale(spec, traj, lam)
    got, old = scaled.verdict.tail, traj.verdict.tail
    assert got.window == (old.window[0] / lam, old.window[1] / lam)
    assert (got.gamma, got.fit_rms) == (old.gamma, old.fit_rms)
    want = fit_tail(scaled.dense, got.window)
    assert got.gamma == pytest.approx(want.gamma, abs=1e-12)
    assert got.coeff == pytest.approx(want.coeff, rel=1e-12)
    assert got.correction == pytest.approx(want.correction, abs=1e-8)
    assert scaled.verdict.growth_exponent == got.gamma


def test_scale_transforms_jet_slots(spec3, u1):
    cfg = IntegratorConfig(r_max=5.0)
    traj = integrate(spec3, u1.jet(), cfg)
    lam = 2.0
    scaled = scale(spec3, traj, lam)
    alpha = (3 - 2 * spec3.m) / 2.0
    for j in range(spec3.m):
        expect = traj.jet.lap_values[j] * lam ** (alpha + 2 * j)
        assert scaled.jet.lap_values[j] == pytest.approx(expect, rel=1e-14)
    # interior sample transforms consistently: compare against the closed
    # form evaluated at lam * r
    i = len(scaled) // 2
    r_i = scaled.r[i]
    assert scaled.y[i, 0] == pytest.approx(
        lam ** alpha * u1.eval(lam * r_i, 0), rel=1e-6)


@settings(max_examples=20, deadline=None)
@given(
    lam=st.floats(min_value=0.5, max_value=2.0),
    j=st.integers(min_value=0, max_value=2),
)
def test_scaling_weights_consistent(lam, j):
    # weight of a derivative slot is lam times the weight of its value slot
    from polyshoot.core import _scaling_weights

    spec = EquationSpec.for_order(3)
    w = _scaling_weights(spec, lam)
    assert w[2 * j + 1] == pytest.approx(w[2 * j] * lam, rel=1e-12)
    if j > 0:
        assert w[2 * j] == pytest.approx(w[2 * (j - 1)] * lam ** 2, rel=1e-12)


def test_trajectory_invariants(traj_u0_50):
    traj_u0_50.validate()
    assert traj_u0_50.r[0] == 0.0
    assert np.all(traj_u0_50.y[0, 1::2] == 0.0)
    st0 = traj_u0_50.state(0)
    assert st0.u == traj_u0_50.jet.u0
    assert st0.lap(1) == pytest.approx(traj_u0_50.jet.lap_values[1])


_BROKEN_TRAJECTORY = """
import numpy as np
from polyshoot import EntirePositive, EquationSpec, Jet
from polyshoot.core import Trajectory
from polyshoot.integrator import PowerTail

r = np.array([0.0, 2.0, 1.0])   # not increasing
y = np.ones((3, 4))
y[0, 1::2] = 0.0
traj = Trajectory(spec=EquationSpec.for_order(2), jet=Jet((1.0, 1.0)), r=r,
                  y=y, verdict=EntirePositive(PowerTail(1.0, 1.0, 0.0, (1.0, 2.0), 0.0)),
                  r_end=2.0)
"""


def test_validate_raises_value_error():
    scope = {}
    exec(_BROKEN_TRAJECTORY, scope)
    with pytest.raises(ValueError, match="strictly increasing"):
        scope["traj"].validate()


def test_validate_survives_optimize_flag():
    # under python -O every assert is stripped; validate must still raise
    code = _BROKEN_TRAJECTORY + textwrap.dedent("""
        import sys
        assert False, "asserts are live"
        try:
            traj.validate()
        except ValueError as exc:
            print(f"optimize={sys.flags.optimize} ValueError: {exc}")
    """)
    src = os.path.dirname(os.path.dirname(polyshoot.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "optimize=1 ValueError: samples must be strictly increasing" in out.stdout
