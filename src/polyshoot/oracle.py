"""Closed-form reference solutions and the exact critical volume.

Two explicit entire radial solutions anchor every numerical test:

    m=2:  u(r) = (a + r^2)^(1/2),  a = 15^(-1/2)   (linear growth)
    m=3:  u(r) = (b + r^2)^(3/2),  b = 315^(-1/3)  (cubic growth)

The full derivative chains below are derived by hand and checked
symbolically in the test suite.  They close with

    Lap^2 (a + r^2)^(1/2) = -15 a^2 (a + r^2)^(-7/2),
    Lap^3 (b + r^2)^(3/2) = -315 b^3 (b + r^2)^(-9/2),

so the residual vanishes exactly when 15 a^2 = 1 (m=2), 315 b^3 = 1 (m=3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EquationSpec, Jet

__all__ = [
    "ClosedForm",
    "linear_profile",
    "cubic_profile",
    "lambda_star",
]

_LINEAR_SHIFT = 15.0 ** -0.5
_CUBIC_SHIFT = 315.0 ** (-1.0 / 3.0)


@dataclass(frozen=True)
class ClosedForm:
    """An explicit radial profile (shift + r^2)^power with known slot chain."""

    m: int
    shift: float

    def __post_init__(self):
        if self.m not in (2, 3):
            raise ValueError("closed forms exist for m = 2 and 3 only")
        if not self.shift > 0:
            raise ValueError("shift constant must be positive")

    @property
    def spec(self) -> EquationSpec:
        return EquationSpec.for_order(self.m)

    def eval(self, r, slot: int):
        """Closed-form value of state slot 0..2m-1 at radius r (array ok).

        Slots alternate (Lap^j u, (Lap^j u)') exactly as in RadialState.
        """
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("radius must be nonnegative")
        a = self.shift
        s = a + r * r
        if self.m == 2:
            table = {
                0: lambda: np.sqrt(s),
                1: lambda: r * s ** -0.5,
                2: lambda: (3 * a + 2 * r * r) * s ** -1.5,
                3: lambda: -r * (5 * a + 2 * r * r) * s ** -2.5,
            }
        else:
            table = {
                0: lambda: s ** 1.5,
                1: lambda: 3 * r * s ** 0.5,
                2: lambda: 3 * (3 * a + 4 * r * r) * s ** -0.5,
                3: lambda: 3 * r * (5 * a + 4 * r * r) * s ** -1.5,
                4: lambda: 3 * (15 * a * a + 20 * a * r * r + 8 * r ** 4) * s ** -2.5,
                5: lambda: -3 * r * (35 * a * a + 28 * a * r * r + 8 * r ** 4) * s ** -3.5,
            }
        if slot not in table:
            raise ValueError(f"slot must be in 0..{2 * self.m - 1}")
        out = table[slot]()
        return out if out.ndim else float(out)

    def jet(self) -> Jet:
        return Jet(tuple(self.eval(0.0, 2 * j) for j in range(self.m)))

    def top_laplacian_closed(self, r):
        """Lap^m u in closed form: -15 a^2 s^(-7/2) (m=2), -315 b^3 s^(-9/2)
        (m=3), s = shift + r^2."""
        a = self.shift
        s = a + np.asarray(r, dtype=float) ** 2
        out = -15.0 * a * a * s ** -3.5 if self.m == 2 else -315.0 * a ** 3 * s ** -4.5
        return out if out.ndim else float(out)

    def residual(self, r: float) -> float:
        """Defect Lap^m u + u^p, from the closed forms: rounding level."""
        return float(self.top_laplacian_closed(r) + self.eval(r, 0) ** self.spec.rhs_exponent)


def linear_profile() -> ClosedForm:
    """The unique (up to scaling) linear-growth solution for m=2."""
    return ClosedForm(m=2, shift=_LINEAR_SHIFT)


def cubic_profile() -> ClosedForm:
    """The explicit cubic-growth solution for m=3."""
    return ClosedForm(m=3, shift=_CUBIC_SHIFT)


def lambda_star() -> float:
    """Volume of the linear-growth solution: pi^2 15^(3/4) / 4 ~ 18.8065.

    Equals 4*pi * int_0^inf r^2 (a + r^2)^-3 dr with a = 15^(-1/2); the
    closed form pi^2/(4 a^(3/2)) is pinned against adaptive quadrature to
    1e-10 relative in the test suite.
    """
    return math.pi ** 2 * 15.0 ** 0.75 / 4.0
