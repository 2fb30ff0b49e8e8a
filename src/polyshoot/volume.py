"""Conformal volume of an entire trajectory: quadrature core + modeled tail.

One quadrature, dense_quadrature, takes every integral over a solution:
5-point Gauss-Legendre on every stored step of the dense output (Davis &
Rabinowitz), where the solution is one quartic, plus the same rule on the
Taylor series over [0, launch radius], with the 3-point rule as its
error.  It has two integrands: the volume core here, and the source
integral of the m=3 critical balance (shooting._critical_balance).

The volume is 4*pi int_0^inf r^2 u(r)^ve dr with ve = -6 (m=2) or -2
(m=3).  The integrand decays only like r^-4 in the slowest growth class,
so the integral is split at the trajectory horizon.  The core [0, r_end]
is that quadrature of the dense output.  The remainder is a closed-form
power integral, driven by a two-term fit

    log u  ~  log c + gamma log r + delta / r^2

over nodes of the dense output on the outer half [r_end/2, r_end].  The
delta/r^2 correction is what the slow tails actually look like (u = r +
a/(2r) + ... for the linear-growth class), and sharpens the tail well
below the quadrature error.

err_estimate covers the quadrature and the tail model only, not the
error of the integration that produced the dense output, which at the
default tolerances is the larger one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (Collapsed, EntirePositive, EquationSpec, Jet, Trajectory,
                   _taylor_state, taylor_coefficients)
from .errors import DivergentTail, UndefinedVolume, WindowTooNarrow
from . import integrator

__all__ = ["PowerTail", "VolumeEstimate", "volume", "volume_of_jet", "power_tail",
           "dense_quadrature"]


@dataclass(frozen=True)
class PowerTail:
    """Fitted tail model u ~ coeff * r^gamma * (1 + correction / r^2)."""

    gamma: float
    coeff: float
    correction: float
    window: tuple
    fit_rms: float


@dataclass(frozen=True)
class VolumeEstimate:
    core: float
    tail: float
    total: float
    err_estimate: float
    tail_model: Optional[PowerTail]

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


def _fit_tail(dense, window):
    """Weighted least squares of the tail model over the window's nodes."""
    r, w, y = integrator.window_nodes(dense, *window)
    lu = np.log(y[:, 0])
    design = np.column_stack([np.ones_like(r), np.log(r), 1.0 / r ** 2])
    root_w = np.sqrt(w)
    sol, *_ = np.linalg.lstsq(design * root_w[:, None], lu * root_w, rcond=None)
    resid = lu - design @ sol
    fit_rms = float(np.sqrt(w @ resid ** 2 / w.sum()))
    return PowerTail(gamma=float(sol[1]), coeff=float(np.exp(sol[0])),
                     correction=float(sol[2]), window=tuple(map(float, window)),
                     fit_rms=fit_rms)


# Gauss-Legendre nodes and weights on [0, 1] (Davis & Rabinowitz, Methods
# of Numerical Integration, 2.7): 5 points, then 3 points as the
# lower-order rule whose difference from them is the per-step error
# estimate.  The weight rows pick one rule each out of the 8 nodes.
_GL5_A = math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_GL5_B = math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_GL5_WA = (322.0 + 13.0 * math.sqrt(70.0)) / 900.0
_GL5_WB = (322.0 - 13.0 * math.sqrt(70.0)) / 900.0
_GL_X = 0.5 * (1.0 + np.array([-_GL5_B, -_GL5_A, 0.0, _GL5_A, _GL5_B,
                               -math.sqrt(0.6), 0.0, math.sqrt(0.6)]))
_GL_W = 0.5 * np.array([[_GL5_WB, _GL5_WA, 128.0 / 225.0, _GL5_WA, _GL5_WB, 0.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 0.0, 0.0, 5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0]]).T


def dense_quadrature(traj: Trajectory, integrand):
    """int_0^R f(r, u) dr over the dense output, R its outer end, and the
    error of that value.

    integrand(dr, r, u) returns f(r, u) dr at the nodes r of an interval
    of length dr, with u at those nodes.  Each stored step is one quartic,
    read at its Gauss-Legendre nodes through integrator._quartic; the
    Taylor series covers [0, launch radius].  The error is the sum over
    intervals of the difference between the 5- and the 3-point rule.
    """
    d = traj.dense
    a = d.r_lefts.astype(float)
    width = d.r_rights.astype(float) - a
    u = integrator._quartic(d.y_lefts[:, None, :1].astype(float), d.hs.astype(float)[:, None],
                            d.qs[:, None, :1].astype(float), _GL_X)[..., 0]
    r0 = d.r_lo * _GL_X
    u0 = _taylor_state(taylor_coefficients(traj.spec, traj.jet), traj.spec.m, r0)[:, 0]
    f = np.vstack((integrand(width[:, None], a[:, None] + width[:, None] * _GL_X, u),
                   integrand(d.r_lo, r0, u0)))
    q = f @ _GL_W   # (steps + 1, 2): 5-point, 3-point
    return float(np.sum(q[:, 0])), float(np.sum(np.abs(q[:, 0] - q[:, 1])))


def volume(spec: EquationSpec, traj: Trajectory) -> VolumeEstimate:
    """Conformal volume of an entire trajectory, from its dense output.

    Collapsed and inconclusive trajectories, and trajectories without a
    dense output, have no defined volume and raise UndefinedVolume; a tail
    window [r_end/2, r_end] holding fewer than 10 sample rows raises
    WindowTooNarrow.  The error estimate adds the per-step quadrature
    comparison of the core (floored at the summation rounding level) to
    the tail-fit residual and the next-order tail-model term, both
    propagated through the closed form; it leaves out the integration
    error of the dense output itself.
    """
    if isinstance(traj.verdict, Collapsed):
        raise UndefinedVolume("volume is undefined for a collapsed trajectory")
    if not isinstance(traj.verdict, EntirePositive):
        raise UndefinedVolume(f"volume needs an entire trajectory, got {traj.verdict}")
    if traj.dense is None:
        raise UndefinedVolume("volume needs the trajectory's dense output")
    if spec.m != traj.spec.m:
        raise ValueError("spec/trajectory order mismatch")
    ve = spec.vol_exponent
    core, core_err = dense_quadrature(
        traj, lambda dr, r, u: dr * (4.0 * math.pi) * r * r * u ** ve)
    core_err = max(core_err, 1e-13 * abs(core))

    r_end = traj.r_end
    window = (r_end / 2.0, r_end)
    n_in = traj.count_rows(*window)
    if n_in < 10:
        raise WindowTooNarrow(f"only {n_in} samples in tail window [{window[0]}, {r_end}]")
    fit = _fit_tail(traj.dense, window)
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
                          err_estimate=core_err + tail_err, tail_model=fit)


def volume_of_jet(spec: EquationSpec, jet: Jet, cfg) -> VolumeEstimate:
    """Integrate the jet, then take the volume; errors propagate unchanged."""
    return volume(spec, integrator.integrate(spec, jet, cfg))
