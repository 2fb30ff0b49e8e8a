"""Conformal volume of an entire trajectory: quadrature core + modeled tail.

One quadrature, gauss_legendre, takes every integral of the package: the
5-point Gauss-Legendre rule (Davis & Rabinowitz) on the two halves of an
interval gives the value, its difference from the whole-interval rule the
error estimate.  Over a solution (dense_quadrature) the intervals are the
stored steps of the dense output, from r = 0 on, where the solution is one
polynomial per level.  The integrands are the volume core here, the source
integral of the m=3 critical balance (shooting._critical_balance), the two
cumulative sums of formula1_check's radial identity, and, off a solution,
verify's lambda* (cli.cmd_verify).

The volume is 4*pi int_0^inf r^2 u(r)^ve dr with ve = -6 (m=2) or -2
(m=3).  The integrand decays only like r^-4 in the slowest growth class,
so the integral is split at the trajectory horizon.  The core [0, r_end]
is that quadrature of the dense output.  The remainder is a closed-form
power integral of the fit that the entire verdict carries
(integrator.fit_tail on the outer half [r_end/2, r_end]),

    log u  ~  log c + gamma log r + delta / r^2,

so the volume fits nothing itself, and its tail's gamma is the verdict's
growth exponent.  The delta/r^2 correction is what the slow tails
actually look like (u = r + a/(2r) + ... for the linear-growth class),
and sharpens the tail well below the quadrature error.

err_estimate covers the quadrature and the tail model only, not the
error of the integration that produced the dense output.  On the two
closed-form profiles at rel_tol 1e-6 to 1e-10 (r_max 1e3, abs_tol =
rel_tol / 100) it still exceeded the whole error, by 10 to 2000 times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Collapsed, EntirePositive, EquationSpec, Jet, Trajectory
from .errors import DivergentTail, UndefinedVolume
from . import integrator
from .integrator import PowerTail

__all__ = ["PowerTail", "VolumeEstimate", "volume", "volume_of_jet", "power_tail",
           "gauss_legendre", "dense_quadrature", "formula1_check"]


@dataclass(frozen=True)
class VolumeEstimate:
    core: float
    tail: float
    total: float
    err_estimate: float

    def __post_init__(self):
        if self.core < 0 or self.tail < 0 or self.err_estimate < 0:
            raise ValueError("volume pieces must be nonnegative")


def power_tail(coeff: float, gamma: float, vol_exponent: int, r_end: float,
               correction: float = 0.0) -> float:
    """Closed form of int_{r_end}^inf 4 pi r^2 (c r^g (1 + d/r^2))^ve dr.

    Expanded to first order in the correction term:

        4 pi c^ve [ R^(mu+1)/(-(mu+1)) + ve d R^(mu-1)/(-(mu-1)) ],
        mu = 2 + gamma * ve,

    valid when mu < -1 (raises DivergentTail otherwise).
    """
    ve = vol_exponent
    mu = 2.0 + gamma * ve
    if mu >= -1.0:
        raise DivergentTail(
            f"tail exponent mu = {mu:.3f} >= -1 (gamma={gamma:.3f}, ve={ve})")
    lead = 4.0 * math.pi * coeff ** ve * r_end ** (mu + 1.0) / (-(mu + 1.0))
    corr = 4.0 * math.pi * coeff ** ve * ve * correction \
        * r_end ** (mu - 1.0) / (-(mu - 1.0))
    return lead + corr


# 5-point Gauss-Legendre nodes and weights on [0, 1] (Davis & Rabinowitz,
# Methods of Numerical Integration, 2.7), then the same rule on [0, 1/2]
# and on [1/2, 1].  The weight columns pick the whole-interval rule and the
# two-halves rule out of the 15 nodes.
_GL5_A = math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_GL5_B = math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_GL5_WA = (322.0 + 13.0 * math.sqrt(70.0)) / 900.0
_GL5_WB = (322.0 - 13.0 * math.sqrt(70.0)) / 900.0
_GL5_X = 0.5 * (1.0 + np.array([-_GL5_B, -_GL5_A, 0.0, _GL5_A, _GL5_B]))
_GL5_W = 0.5 * np.array([_GL5_WB, _GL5_WA, 128.0 / 225.0, _GL5_WA, _GL5_WB])
_GL_X = np.concatenate([_GL5_X, 0.5 * _GL5_X, 0.5 + 0.5 * _GL5_X])
_GL_W = np.column_stack([np.concatenate([_GL5_W, np.zeros(10)]),
                         np.concatenate([np.zeros(5), 0.5 * _GL5_W, 0.5 * _GL5_W])])


def gauss_legendre(a, width, integrand):
    """(intervals, 2): int f dr over each [a, a + width] by the 5-point rule
    on the whole interval, then on its two halves.  integrand(dr, r) returns
    f(r) dr at the nodes r, arrays (intervals, 15) or a stack of them."""
    return integrand(width[:, None], a[:, None] + width[:, None] * _GL_X) @ _GL_W


def _step_rules(dense, integrand, level=0):
    """gauss_legendre of integrand(dr, r, y) over every stored step of the
    dense output, y that level at the nodes: one product of the steps'
    polynomials with the powers of the nodes' theta."""
    a = dense.r_lefts.astype(float)
    width = dense.r_rights.astype(float) - a
    powers = _GL_X[:, None] ** np.arange(dense.cs.shape[2])
    y = dense.cs[:, level, :].astype(float) @ powers.T
    return gauss_legendre(a, width, lambda dr, r: integrand(dr, r, y))


def dense_quadrature(traj: Trajectory, integrand):
    """int_0^R f(r, u) dr over the dense output, R its outer end, and the
    error of that value.

    integrand(dr, r, u) returns f(r, u) dr at the nodes r of an interval
    of length dr, with u at those nodes.  The value is the two-halves rule
    summed over the steps (_step_rules), and the error the sum over steps
    of its difference from the whole-step rule.
    """
    q = _step_rules(traj.dense, integrand)
    return float(np.sum(q[:, 1])), float(np.sum(np.abs(q[:, 0] - q[:, 1])))


def formula1_check(traj: Trajectory, level: int) -> float:
    """Self-consistency of the radial integral identity at one Laplacian level.

    w = Lap^level u is w(0) + int_0^r t^-2 int_0^t s^2 g(s) ds dt, g = Lap w
    (-u^p at the top level), which swapping the order of integration makes
    w(0) + A(r) - B(r)/r, A = int_0^r s g ds, B = int_0^r s^2 g ds: the
    cumulative sums of _step_rules, at every step end.  Returns the max
    defect there relative to max(1, sup |w|), w read off the dense output;
    no output row is read.
    """
    m, p = traj.spec.m, traj.spec.rhs_exponent
    if not 0 <= level <= m - 1:
        raise ValueError(f"level must be in 0..{m - 1}")
    top = level == m - 1
    q = _step_rules(traj.dense, lambda dr, r, y: np.stack([dr * r, dr * r * r])
                    * (-(y ** p) if top else y), 0 if top else level + 1)
    a, b = np.cumsum(q[..., 1], axis=1)
    r = traj.dense.r_rights.astype(float)
    w = traj.dense(np.append(0.0, r), slots=slice(2 * level, 2 * level + 1))[:, 0]
    rec = w[0] + a - b / r
    return float(np.max(np.abs(rec - w[1:])) / max(1.0, float(np.max(np.abs(w)))))


def volume(spec: EquationSpec, traj: Trajectory) -> VolumeEstimate:
    """Conformal volume of an entire trajectory, from its dense output.

    Collapsed and inconclusive trajectories have no defined volume and
    raise UndefinedVolume.  The tail is the verdict's fit
    (EntirePositive.tail), which runs here if nothing read it before, so
    no output row is read.  The error estimate
    adds the per-step quadrature comparison of the core (floored at the
    summation rounding level) to the tail-fit residual and the
    next-order tail-model term, both propagated through the closed form; it
    leaves out the integration error of the dense output itself.
    """
    if isinstance(traj.verdict, Collapsed):
        raise UndefinedVolume("volume is undefined for a collapsed trajectory")
    if not isinstance(traj.verdict, EntirePositive):
        raise UndefinedVolume(f"volume needs an entire trajectory, got {traj.verdict}")
    if spec.m != traj.spec.m:
        raise ValueError("spec/trajectory order mismatch")
    ve = spec.vol_exponent
    core, core_err = dense_quadrature(
        traj, lambda dr, r, u: dr * (4.0 * math.pi) * r * r * u ** ve)
    core_err = max(core_err, 1e-13 * abs(core))

    r_end, fit = traj.r_end, traj.verdict.tail
    tail = power_tail(fit.coeff, fit.gamma, ve, r_end, fit.correction)
    tail_lead = power_tail(fit.coeff, fit.gamma, ve, r_end)
    if tail < 0.0:
        # correction overwhelmed the lead: fall back and widen the error
        tail = tail_lead
        model_err = tail_lead
    else:
        # next order in the correction expansion ~ (ve choose 2) (d/R^2)^2,
        # plus half the last retained correction as a truncation proxy
        model_err = abs(tail_lead) * abs(ve * (ve - 1) / 2.0) \
            * (abs(fit.correction) / r_end ** 2) ** 2 \
            + 0.5 * abs(tail - tail_lead)
    tail_err = abs(tail) * abs(ve) * fit.fit_rms + model_err

    total = core + tail
    return VolumeEstimate(core=core, tail=tail, total=total,
                          err_estimate=core_err + tail_err)


def volume_of_jet(spec: EquationSpec, jet: Jet, cfg) -> VolumeEstimate:
    """Integrate the jet, then take the volume; errors propagate unchanged."""
    return volume(spec, integrator.integrate(spec, jet, cfg))
