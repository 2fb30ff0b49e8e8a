import numpy as np
import pytest

from polyshoot import (
    EquationSpec,
    IntegratorConfig,
    Jet,
    integrate,
    linear_profile,
    cubic_profile,
)
from polyshoot.core import Trajectory
from polyshoot.integrator import DenseSolution


@pytest.fixture(scope="session")
def spec2():
    return EquationSpec.for_order(2)


@pytest.fixture(scope="session")
def spec3():
    return EquationSpec.for_order(3)


@pytest.fixture(scope="session")
def u0():
    return linear_profile()


@pytest.fixture(scope="session")
def u1():
    return cubic_profile()


@pytest.fixture(scope="session")
def traj_u0_50(spec2, u0):
    return integrate(spec2, u0.jet(), IntegratorConfig(r_max=50.0))


@pytest.fixture(scope="session")
def traj_u0_1000(spec2, u0):
    return integrate(spec2, u0.jet(), IntegratorConfig(r_max=1000.0))


@pytest.fixture(scope="session")
def traj_u1_10(spec3, u1):
    return integrate(spec3, u1.jet(), IntegratorConfig(r_max=10.0))


def common_grid(t1, t2):
    """Trim two trajectories to their shared leading sample grid."""
    n = min(len(t1), len(t2))
    while n > 0 and abs(t1.r[n - 1] - t2.r[n - 1]) > 1e-12:
        n -= 1
    return n


def radial_double_integral(r, g):
    """int_0^r t^-2 int_0^t s^2 g(s) ds dt at every radius of r (r[0] = 0).

    Two passes of scipy's cumulative Simpson over samples that may be
    unevenly spaced, the inner integral over t^2 taken as zero at t = 0: a
    reference for the dense quadrature, independent of it.
    """
    from scipy.integrate import cumulative_simpson

    inner = cumulative_simpson(r * r * g, x=r, initial=0.0)
    q = np.zeros_like(inner)
    q[1:] = inner[1:] / (r[1:] ** 2)
    return cumulative_simpson(q, x=r, initial=0.0)


def level_second_derivatives(dense, r):
    """(Lap^j u)'' at radii r for every level j, (n, m): each level's
    polynomial in theta = (r - r_left) / width, twice differentiated term by
    term from the dense output's coefficients cs, over width^2."""
    r = np.asarray(r, dtype=float)
    idx = np.clip(np.searchsorted(dense.r_lefts, r) - 1, 0, len(dense.cs) - 1)
    width = (dense.r_rights - dense.r_lefts)[idx].astype(float)
    theta = (r - dense.r_lefts[idx].astype(float)) / width
    cs = dense.cs[idx].astype(float)
    k = np.arange(2, cs.shape[2])
    powers = theta[:, None] ** (k - 2)
    return np.einsum("njk,nk->nj", cs[..., 2:] * (k * (k - 1)), powers) / width[:, None] ** 2


def cut_at(traj, r):
    """traj with its dense output cut to the steps that end at or below r
    (at least one), for checks that read the dense output only up to r."""
    d = traj.dense
    n = int(np.searchsorted(d.r_rights, r, side="right"))
    assert n > 0
    cut = DenseSolution(d.r_lefts[:n], d.r_rights[:n], d.cs[:n])
    return Trajectory(traj.spec, traj.jet, verdict=traj.verdict, r_end=cut.r_hi, dense=cut,
                      radii=lambda: traj.r[traj.r <= cut.r_hi])


def ode_residual_max(traj, r_lo=0.0, r_hi=np.inf):
    """Max relative defect |Lap^m u + u^p| of the dense output at the output
    rows' radii in [r_lo, r_hi], r = 0 left out (2/r is singular there).

    Lap^m u = w'' + 2 w' / r, w = Lap^{m-1} u, reads w' from the dense
    output and w'' from its polynomials (level_second_derivatives), so
    nothing is differenced; normalised pointwise by max(1, |u^p|).
    """
    r = traj.r[(traj.r > 0.0) & (traj.r >= r_lo) & (traj.r <= min(r_hi, traj.dense.r_hi))]
    assert r.shape[0] > 0
    y, w2 = traj.dense(r), level_second_derivatives(traj.dense, r)[:, -1]
    source = y[:, 0] ** traj.spec.rhs_exponent
    return float(np.max(np.abs(w2 + 2.0 / r * y[:, -1] + source)
                        / np.maximum(1.0, np.abs(source))))


def scaling_weights(m, lam):
    """Per-slot factors of u_lam(r) = lam^((3-2m)/2) u(lam r), which solves
    the equation whenever u does: slot i (Lap^j u at i = 2j, its derivative
    at i = 2j + 1) picks up lam^((3-2m)/2 + i)."""
    return lam ** ((3 - 2 * m) / 2 + np.arange(2 * m))


def scaled_jet(jet, lam):
    """The jet of u_lam: each Lap^j u(0) times its scaling weight."""
    w = scaling_weights(len(jet), lam)
    return Jet([v * w[2 * j] for j, v in enumerate(jet.lap_values)])
