import math

import numpy as np
import pytest
from scipy.integrate import quad

from polyshoot import (
    DivergentTail,
    EntirePositive,
    EquationSpec,
    IntegratorConfig,
    Jet,
    UndefinedVolume,
    integrate,
    lambda_star,
    power_tail,
    volume,
    volume_of_jet,
)
from polyshoot.core import Trajectory
from polyshoot.integrator import DenseSolution, fit_tail
from polyshoot.shooting import default_config

from conftest import scaled_jet


def jet_offset(u0, rho):
    return Jet((u0.eval(0.0, 0) + rho, u0.eval(0.0, 2)))


def test_u0_volume_reproduces_critical_volume(spec2, traj_u0_1000):
    v = volume(spec2, traj_u0_1000)
    assert abs(v.total - lambda_star()) / lambda_star() < 1e-4
    assert v.core > 0 and v.tail > 0
    tail = traj_u0_1000.verdict.tail
    assert tail.gamma == pytest.approx(1.0, abs=1e-3)
    # second-order tail coefficient recovers a/2 of the profile's expansion
    assert tail.correction == pytest.approx(15.0 ** -0.5 / 2.0, rel=0.5)


def test_volume_undefined_for_collapsed(spec2, u0):
    traj = integrate(spec2, jet_offset(u0, -0.2), IntegratorConfig(r_max=1000.0))
    with pytest.raises(UndefinedVolume):
        volume(spec2, traj)


def test_power_tail_closed_form():
    # r^4 growth with m=3 exponent: 4 pi c^-2 R^-5 / 5
    c, R = 2.0, 10.0
    assert power_tail(c, 4.0, -2, R) == pytest.approx(
        4.0 * math.pi * c ** -2 * R ** -5 / 5.0, rel=1e-14)
    with pytest.raises(DivergentTail):
        power_tail(1.0, 0.3, -2, 10.0)


def test_divergent_tail_on_flat_synthetic(spec3):
    # flat dense output: every step's polynomials are constants, u = 2
    # (gamma ~ 0, the integral diverges), Lap^2 u = 1
    edges = np.linspace(0.0, 100.0, 101)
    cs = np.zeros((100, 3, 25))
    cs[:, :, 0] = 2.0, 0.0, 1.0
    dense = DenseSolution(edges[:-1], edges[1:], cs)
    traj = Trajectory(spec=spec3, jet=Jet((2.0, 0.0, 1.0)),
                      verdict=EntirePositive(fit_tail(dense, (50.0, 100.0))), r_end=100.0,
                      dense=dense, radii=lambda: np.linspace(0.0, 100.0, 5001))
    with pytest.raises(DivergentTail):
        volume(spec3, traj)


@pytest.mark.parametrize("m", [2, 3])
def test_volume_leaves_the_rows_unbuilt(u0, m):
    # neither the row radii nor the rows are built
    spec = EquationSpec.for_order(m)
    jet = jet_offset(u0, 0.5) if m == 2 else Jet((10.0, 1.0, 1.0))
    traj = integrate(spec, jet, IntegratorConfig(r_max=1000.0 if m == 2 else 100.0))
    assert volume(spec, traj).total > 0
    assert traj._r is None and traj._y is None


@pytest.mark.parametrize("m", [2, 3])
def test_volume_reads_the_verdict_fit(u0, m, monkeypatch):
    # the tail is the verdict's own fit: once it is read, the volume reads
    # the dense output only through the core quadrature's coefficients
    spec = EquationSpec.for_order(m)
    jet = jet_offset(u0, 0.5) if m == 2 else Jet((10.0, 1.0, 1.0))
    traj = integrate(spec, jet, default_config(m))
    fit = traj.verdict.tail

    def refuse(self, r, slots=slice(None)):
        raise AssertionError("dense output evaluated")

    monkeypatch.setattr(DenseSolution, "__call__", refuse)
    v = volume(spec, traj)
    assert v.tail > 0.0 and traj.verdict.tail is fit
    assert fit.window == (traj.r_end / 2.0, traj.r_end)


def test_volume_ordering_in_rho(spec2, u0, traj_u0_1000):
    cfg = IntegratorConfig(r_max=1000.0)
    v0 = volume(spec2, traj_u0_1000).total
    v1 = volume_of_jet(spec2, jet_offset(u0, 1.0), cfg).total
    v2 = volume_of_jet(spec2, jet_offset(u0, 2.0), cfg).total
    assert v2 < v1 < lambda_star()
    assert v0 == pytest.approx(lambda_star(), rel=1e-4)


def test_dominated_convergence_sandwich(spec2, u0):
    # V(rho) <= min(Lambda*, integral of (rho+U0)^-6) + tol for rho >= 0
    cfg = IntegratorConfig(r_max=1000.0)
    a = u0.shift
    for rho in (0.0, 1.0, 5.0):
        v = volume_of_jet(spec2, jet_offset(u0, rho), cfg).total
        bound = 4.0 * math.pi * quad(
            lambda r: r * r * (rho + math.sqrt(a + r * r)) ** -6.0,
            0.0, np.inf, epsabs=1e-13, epsrel=1e-12)[0]
        assert v <= min(lambda_star(), bound) + 1e-6
    # vanishing limit: large rho sits far below the comparison bound
    v20 = volume_of_jet(spec2, jet_offset(u0, 20.0), cfg).total
    bound20 = 4.0 * math.pi * quad(
        lambda r: r * r * (20.0 + math.sqrt(a + r * r)) ** -6.0,
        0.0, np.inf, epsabs=1e-16, epsrel=1e-12)[0]
    assert v20 <= bound20 + 1e-9
    assert v20 < 1e-4 * lambda_star()


def test_volume_continuity_in_rho(spec2, u0):
    cfg = IntegratorConfig(r_max=1000.0)
    for rho in (0.0, 1.0, 5.0):
        diffs = []
        v_base = volume_of_jet(spec2, jet_offset(u0, rho), cfg).total
        for h in (1e-1, 1e-2, 1e-3):
            v_h = volume_of_jet(spec2, jet_offset(u0, rho + h), cfg).total
            diffs.append(abs(v_h - v_base))
        assert diffs[0] > diffs[1] > diffs[2]


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_scaling_invariance(spec2, u0, traj_u0_1000, lam):
    # the volume is invariant under u -> lam^(-1/2) u(lam r): the run from
    # the scaled jet to 1000 / lam has u0's volume (measured 1.9e-13 apart,
    # against an err_estimate of 5.9e-10)
    v = volume(spec2, traj_u0_1000)
    vs = volume_of_jet(spec2, scaled_jet(u0.jet(), lam), IntegratorConfig(r_max=1000.0 / lam))
    assert abs(vs.total - v.total) <= max(v.err_estimate, vs.err_estimate)


def test_tail_consistency_doubling(spec2, spec3, u0):
    v_a = volume_of_jet(spec2, jet_offset(u0, 1.0), IntegratorConfig(r_max=250.0))
    v_b = volume_of_jet(spec2, jet_offset(u0, 1.0), IntegratorConfig(r_max=500.0))
    assert abs(v_a.total - v_b.total) <= v_a.err_estimate
    w_a = volume_of_jet(spec3, Jet((10.0, 1.0, 1.0)), IntegratorConfig(r_max=50.0))
    w_b = volume_of_jet(spec3, Jet((10.0, 1.0, 1.0)), IntegratorConfig(r_max=100.0))
    assert abs(w_a.total - w_b.total) <= w_a.err_estimate


def test_m3_volume_values(spec3):
    cfg = IntegratorConfig(r_max=100.0)
    traj = integrate(spec3, Jet((10.0, 1.0, 1.0)), cfg)
    v = volume(spec3, traj)
    assert traj.verdict.tail.gamma == pytest.approx(4.0, abs=0.05)
    assert v.total > 0
    assert v.err_estimate < 1e-3 * v.total
