import math

import mpmath as mp
import numpy as np
import pytest

from polyshoot import lambda_star, linear_profile, cubic_profile

R_GRID = [0.0, 0.1, 1.0, 10.0, 100.0]


def fd_derivative(f, r: float, h: float = 1e-5) -> float:
    """Plain central first difference (order 2)."""
    return (f(r + h) - f(r - h)) / (2.0 * h)


def _fd_laplacian_base(f, r: float, h: float) -> float:
    """One central-difference estimate of f'' + (2/r) f' at r >= 0; at the
    origin the even extension gives Lap f(0) = 3 f''(0)."""
    fl = f(abs(r - h)) if r < h else f(r - h)
    fc, fr = f(r), f(r + h)
    fpp = (fr - 2.0 * fc + fl) / (h * h)
    if r == 0.0:
        return 3.0 * fpp
    return fpp + 2.0 / r * (fr - fl) / (2.0 * h)


def fd_laplacian(f, r: float, h: float = 0.01, levels: int = 2) -> float:
    """Radial Laplacian by central differences with two Richardson stages."""
    est = [_fd_laplacian_base(f, r, h / 2 ** k) for k in range(levels + 1)]
    for lev in range(1, levels + 1):
        fac = 4.0 ** lev
        est = [(fac * est[i + 1] - est[i]) / (fac - 1.0) for i in range(len(est) - 1)]
    return est[0]


@pytest.mark.parametrize("m", [2, 3])
def test_slot_chains_symbolic(m):
    # every slot of eval is the exact derivative or Laplacian of the slot
    # below it, and the chain closes with top_laplacian_closed, for a
    # symbolic shift: then the residual vanishes exactly at 15 a^2 = 1
    # (m=2) and 315 b^3 = 1 (m=3)
    sympy = pytest.importorskip("sympy")
    from polyshoot.oracle import ClosedForm

    r, a = sympy.symbols("r a", positive=True)
    u = (a + r ** 2) ** sympy.Rational(2 * m - 3, 2)
    slots, g = [], u
    for _ in range(m):
        slots += [g, sympy.diff(g, r)]
        g = sympy.simplify(sympy.diff(g, r, 2) + 2 / r * sympy.diff(g, r))
    top = -{2: 15, 3: 315}[m] * a ** m * (a + r ** 2) ** -sympy.Rational(2 * m + 3, 2)
    assert sympy.simplify(g - top) == 0
    cf = ClosedForm(m=m, shift=0.37)
    for x in (0.0, 0.3, 2.0, 15.0):
        at = {a: sympy.Float(0.37, 30), r: sympy.Float(x, 30)}
        for k, slot in enumerate(slots):
            want = float(slot.subs(at))
            assert cf.eval(x, k) == pytest.approx(want, rel=1e-13, abs=1e-15), (k, x)
        assert cf.top_laplacian_closed(x) == pytest.approx(float(top.subs(at)), rel=1e-13)
    p = {2: -7, 3: -3}[m]
    shift = sympy.solve({2: 15 * a ** 2, 3: 315 * a ** 3}[m] - 1, a)[0]
    assert sympy.simplify((g + u ** p).subs(a, shift)) == 0


def test_linear_profile_origin_values(u0):
    assert u0.eval(0.0, 0) == pytest.approx(15.0 ** -0.25, rel=1e-15)
    assert u0.eval(0.0, 2) == pytest.approx(3.0 * 15.0 ** 0.25, rel=1e-15)
    assert u0.eval(0.0, 1) == 0.0
    assert u0.eval(0.0, 3) == 0.0


def test_cubic_profile_origin_values(u1):
    assert u1.eval(0.0, 0) == pytest.approx(315.0 ** -0.5, rel=1e-15)
    b = 315.0 ** (-1.0 / 3.0)
    assert u1.eval(0.0, 2) == pytest.approx(9.0 * math.sqrt(b), rel=1e-14)
    assert u1.eval(0.0, 4) == pytest.approx(45.0 * b ** -0.5, rel=1e-14)


@pytest.mark.parametrize("r", [0.3, 1.0, 4.0])
def test_derivative_slots_match_finite_differences_order2(u0, u1, r):
    # each odd slot is d/dr of the even slot below it; central differences
    # must agree to O(h^2), i.e. the error drops ~100x from h=1e-3 to 1e-4
    for cf in (u0, u1):
        for lvl in range(cf.m):
            errs = []
            for h in (1e-3, 1e-4):
                fd = fd_derivative(lambda x, lv=lvl: cf.eval(x, 2 * lv), r, h=h)
                errs.append(abs(fd - cf.eval(r, 2 * lvl + 1)))
            assert errs[0] < 1e-3
            if errs[1] > 1e-12:  # above the rounding floor: check the order
                assert 20.0 < errs[0] / errs[1] < 500.0


@pytest.mark.parametrize("r", [0.0, 0.5, 2.0])
def test_laplacian_slots_match_fd_laplacian(u0, u1, r):
    for cf in (u0, u1):
        for lvl in range(cf.m - 1):
            lap_fd = fd_laplacian(lambda x, lv=lvl: cf.eval(x, 2 * lv), r)
            assert lap_fd == pytest.approx(cf.eval(r, 2 * lvl + 2), rel=1e-6, abs=1e-7)


def test_residual_linear_profile(u0):
    for r in R_GRID:
        assert abs(u0.residual(r)) <= 1e-8


def test_residual_cubic_profile(u1):
    for r in R_GRID:
        assert abs(u1.residual(r)) <= 1e-6


def test_residual_detects_wrong_constant():
    from polyshoot.oracle import ClosedForm

    bad0 = ClosedForm(m=2, shift=2.0 * 15.0 ** -0.5)
    assert abs(bad0.residual(1.0)) > 1e-2
    bad1 = ClosedForm(m=3, shift=2.0 * 315.0 ** (-1.0 / 3.0))
    assert abs(bad1.residual(1.0)) > 1e-2


def test_lambda_star_against_quadrature():
    mp.mp.dps = 30
    a = mp.mpf(15) ** mp.mpf("-0.5")
    quad = 4 * mp.pi * mp.quad(lambda r: r ** 2 / (a + r ** 2) ** 3, [0, mp.inf])
    assert abs(lambda_star() - float(quad)) / float(quad) < 1e-10


def test_generic_shift_quadrature_closed_form():
    # 4*pi int r^2 (a+r^2)^-3 dr = pi^2 / (4 a^(3/2)), checked at a=1
    mp.mp.dps = 30
    quad = 4 * mp.pi * mp.quad(lambda r: r ** 2 / (1 + r ** 2) ** 3, [0, mp.inf])
    assert float(quad) == pytest.approx(math.pi ** 2 / 4.0, rel=1e-12)


def test_volume_integral_scaling_in_shift():
    # substituting r -> 2r sends the integral at shift a to 8x the one at 4a
    mp.mp.dps = 30
    a = mp.mpf("0.37")
    i_a = mp.quad(lambda r: r ** 2 / (a + r ** 2) ** 3, [0, mp.inf])
    i_4a = mp.quad(lambda r: r ** 2 / (4 * a + r ** 2) ** 3, [0, mp.inf])
    assert float(i_4a / i_a) == pytest.approx(0.125, rel=1e-12)


def test_profiles_reject_bad_args(u0):
    with pytest.raises(ValueError):
        u0.eval(-1.0, 0)
    with pytest.raises(ValueError):
        u0.eval(1.0, 7)
    from polyshoot.oracle import ClosedForm

    with pytest.raises(ValueError):
        ClosedForm(m=4, shift=1.0)
    with pytest.raises(ValueError):
        ClosedForm(m=2, shift=-1.0)
