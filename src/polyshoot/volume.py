"""Conformal volume of an entire trajectory: quadrature core + modeled tail.

The volume is 4*pi int_0^inf r^2 u(r)^ve dr with ve = -6 (m=2) or -2
(m=3).  The integrand decays only like r^-4 in the slowest growth class,
so the integral is split at the trajectory horizon: composite Simpson on
the dense sample grid for [0, r_end], and a closed-form power integral for
the remainder, driven by a two-term fit

    log u  ~  log c + gamma log r + delta / r^2

over the outer half [r_end/2, r_end] of the samples.  The delta/r^2
correction is what the slow tails actually look like (u = r + a/(2r) + ...
for the linear-growth class), and sharpens the tail well below the
quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import simpson

from .core import Collapsed, EntirePositive, EquationSpec, Jet, Trajectory
from .errors import DivergentTail, UndefinedVolume, WindowTooNarrow

__all__ = ["PowerTail", "VolumeEstimate", "volume", "volume_of_jet", "power_tail"]


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


def _fit_tail(r, u, window):
    lo, hi = window
    mask = (r >= lo) & (r <= hi) & (u > 0)
    n_in = int(mask.sum())
    if n_in < 10:
        raise WindowTooNarrow(f"only {n_in} samples in tail window [{lo}, {hi}]")
    lr = np.log(r[mask])
    lu = np.log(u[mask])
    design = np.column_stack([np.ones_like(lr), lr, 1.0 / r[mask] ** 2])
    sol, *_ = np.linalg.lstsq(design, lu, rcond=None)
    resid = lu - design @ sol
    fit_rms = float(np.sqrt(np.mean(resid ** 2)))
    gamma = float(sol[1])
    coeff = float(np.exp(sol[0]))
    return PowerTail(gamma=gamma, coeff=coeff, correction=float(sol[2]),
                     window=(float(lo), float(hi)), fit_rms=fit_rms)


def volume(spec: EquationSpec, traj: Trajectory) -> VolumeEstimate:
    """Conformal volume of an entire trajectory.

    Collapsed (and inconclusive) trajectories have no defined volume and
    raise UndefinedVolume.  The error estimate combines a Richardson
    quadrature comparison for the core with the tail-fit residual and the
    next-order tail-model term, both propagated through the closed form.
    """
    if isinstance(traj.verdict, Collapsed):
        raise UndefinedVolume("volume is undefined for a collapsed trajectory")
    if not isinstance(traj.verdict, EntirePositive):
        raise UndefinedVolume(f"volume needs an entire trajectory, got {traj.verdict}")
    if spec.m != traj.spec.m:
        raise ValueError("spec/trajectory order mismatch")
    ve = spec.vol_exponent
    r, u = traj.r, traj.u
    f = 4.0 * math.pi * r * r * u.astype(float) ** ve
    core = float(simpson(f, x=r))
    core_coarse = float(simpson(f[::2], x=r[::2]))
    # Richardson comparison, floored at the summation rounding level
    core_err = max(abs(core - core_coarse) / 15.0, 1e-13 * abs(core))

    r_end = traj.r_end
    fit = _fit_tail(r, u, (r_end / 2.0, r_end))
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
    from .integrator import integrate

    return volume(spec, integrate(spec, jet, cfg))
