import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyshoot import (
    EquationSpec,
    IntegratorConfig,
    Jet,
    LaunchRadiusTooLarge,
    NonPositiveU,
    OriginSingularity,
    RadialState,
    integrate,
    rhs,
    sample_residual_max,
    scale,
    taylor_launch,
)
import polyshoot
from polyshoot.core import taylor_coefficients, _taylor_state


def test_spec_exponents():
    s2 = EquationSpec.for_order(2)
    assert (s2.rhs_exponent, s2.vol_exponent) == (-7, -6)
    s3 = EquationSpec.for_order(3)
    assert (s3.rhs_exponent, s3.vol_exponent) == (-3, -2)
    with pytest.raises(ValueError):
        EquationSpec.for_order(1)
    with pytest.raises(ValueError):
        EquationSpec(m=2, rhs_exponent=-3, vol_exponent=-6)


def test_jet_requires_positive_u0():
    with pytest.raises(NonPositiveU):
        Jet((0.0, 1.0))
    with pytest.raises(NonPositiveU):
        Jet((-1.0, 1.0))


def test_rhs_closed_form_last_slot(spec2, u0):
    # at r=1 the top slot must be -u^-7 - 2 (lap u)'
    st_ = u0.state(1.0)
    dy = rhs(spec2, st_)
    expect = -u0.eval(1.0, 0) ** -7 - 2.0 * u0.eval(1.0, 3)
    assert dy[-1] == pytest.approx(expect, rel=1e-14)
    # even slots propagate the paired odd slot
    assert dy[0] == st_.y[1]
    assert dy[2] == st_.y[3]


@pytest.mark.parametrize("m", [2, 3])
def test_rhs_unit_state(m):
    # u=1 with all derivative slots zero: top second-derivative slot = -1
    spec = EquationSpec.for_order(m)
    y = np.zeros(2 * m)
    y[0] = 1.0
    dy = rhs(spec, RadialState(r=1.0, y=y))
    assert dy[-1] == -1.0
    assert np.all(dy[:-1] == 0.0)


def test_rhs_preconditions(spec3):
    y = np.zeros(6)
    y[0] = -1.0
    with pytest.raises(NonPositiveU):
        rhs(spec3, RadialState(r=1.0, y=y))
    y[0] = 1.0
    with pytest.raises(OriginSingularity):
        rhs(spec3, RadialState(r=0.0, y=y))


def test_taylor_series_m3_matches_stated_polynomial(spec3):
    # u-series k - eps r^2/6 + r^4/120 - k^-3 r^6/5040 plus O(r^8) transport
    k, eps, r0 = 10.0, 0.5, 1e-2
    state = taylor_launch(spec3, Jet((k, -eps, 1.0)), r0)
    poly = k - eps * r0 ** 2 / 6 + r0 ** 4 / 120 - k ** -3 * r0 ** 6 / 5040
    assert state.y[0] == pytest.approx(poly, abs=1e-16)
    assert state.y[4] == pytest.approx(1.0 - k ** -3 * r0 ** 2 / 6, rel=1e-12)


def test_taylor_launch_matches_closed_form(spec2, u0):
    # error per slot decays like r0^6 or faster for m=2
    errs = []
    for r0 in (2e-2, 1e-2):
        state = taylor_launch(spec2, u0.jet(), r0)
        ref = u0.state(r0)
        errs.append(np.max(np.abs(state.y - ref.y)))
    assert errs[0] < 1e-7
    assert errs[0] / max(errs[1], 1e-18) > 30.0  # >= ~2^5 per halving


def test_taylor_coefficient_rule_symbolic():
    sympy = pytest.importorskip("sympy")
    r = sympy.symbols("r", positive=True)
    for j in range(1, 5):
        term = r ** (2 * j) / sympy.factorial(2 * j + 1)
        lap = sympy.diff(term, r, 2) + 2 / r * sympy.diff(term, r)
        assert sympy.simplify(lap - r ** (2 * j - 2) / sympy.factorial(2 * j - 1)) == 0


def test_taylor_self_consistency(spec2, spec3, u0, u1):
    # launch at r0 vs launch at r0/2 + integrate to r0: difference follows
    # a power law at least r0^(2m+2) (checked with a fitted constant and 4x
    # safety, since derivative slots carry one order less)
    for spec, cf in ((spec2, u0), (spec3, u1)):
        jet = cf.jet()
        diffs = []
        for r0 in (0.1, 0.05):
            direct = taylor_launch(spec, jet, r0, tol=1.0)
            cfg = IntegratorConfig(r_max=r0, launch_radius=r0 / 2,
                                   rel_tol=1e-12, abs_tol=1e-14,
                                   dense_output_stride=r0)
            via = integrate(spec, jet, cfg)
            diffs.append(np.max(np.abs(via.y[-1] - direct.y)))
        order = 2 * spec.m + 2
        c_fit = diffs[0] / 0.1 ** order
        assert diffs[1] <= 4.0 * c_fit * 0.05 ** order


def test_launch_radius_guard(spec2, u0):
    with pytest.raises(LaunchRadiusTooLarge):
        taylor_launch(spec2, u0.jet(), 1.0)
    with pytest.raises(ValueError):
        taylor_launch(spec2, u0.jet(), -0.1)


def test_scale_identity(spec2, traj_u0_50):
    assert scale(spec2, traj_u0_50, 1.0) is traj_u0_50
    with pytest.raises(ValueError):
        scale(spec2, traj_u0_50, -2.0)


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_scaled_trajectory_still_solves_equation(spec2, traj_u0_50, lam):
    scaled = scale(spec2, traj_u0_50, lam)
    scaled.validate()
    assert scaled.r_end == pytest.approx(traj_u0_50.r_end / lam)
    # finite differences of the stored derivative slot are truncation
    # limited at ~lam * 1e-3 on the 0.01-stride grid
    assert sample_residual_max(scaled, r_min=0.05, r_max=10.0 / lam) < 5e-3
    # the quadrature-based reconstruction is much sharper
    from polyshoot import formula1_check

    assert formula1_check(scaled, 0) < 1e-6
    assert formula1_check(scaled, 1) < 1e-5


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


def test_taylor_state_vectorised(spec3):
    jet = Jet((2.0, -0.3, 0.7))
    c = taylor_coefficients(spec3, jet)
    rr = np.array([0.0, 1e-3, 2e-3])
    ys = _taylor_state(c, 3, rr)
    assert ys.shape == (3, 6)
    assert ys[0, 0] == 2.0 and np.all(ys[0, 1::2] == 0.0)
    single = _taylor_state(c, 3, np.float64(1e-3))
    assert np.allclose(single, ys[1])


_BROKEN_TRAJECTORY = """
import numpy as np
from polyshoot import EntirePositive, EquationSpec, Jet
from polyshoot.core import Trajectory

r = np.array([0.0, 2.0, 1.0])   # not increasing
y = np.ones((3, 4))
y[0, 1::2] = 0.0
traj = Trajectory(spec=EquationSpec.for_order(2), jet=Jet((1.0, 1.0)), r=r,
                  y=y, verdict=EntirePositive(growth_exponent=1.0), r_end=2.0)
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
