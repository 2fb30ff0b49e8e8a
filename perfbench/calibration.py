"""Host-speed calibration for pass timings taken on a shared machine.

On a small virtual machine shared with other tenants, one pass over the same
inputs takes from 1x to 1.8x its best time, in stretches of seconds to
minutes, so a whole 30-second run can sit in a slow one; over ten seeds the
raw pass time of every workload spread by 0.2 to 0.3 (quartile distance over
median).  A fixed probe that does not touch polyshoot is therefore timed
during each pass: four small loops of the kinds of operation polyshoot spends
its time on (a Python loop over tiny numpy operations, a Runge-Kutta-shaped
stage loop, a dense-output-shaped polynomial loop, plain integer arithmetic).
The pass's times are multiplied by ``REFERENCE_S / mean probe time in the
pass``, which expresses them in reference seconds: seconds on the machine of
record with the probe at its usual speed.

Measured over five minutes of back-to-back passes on a 2-vCPU Xeon, the pass
time followed the probe time with correlation 0.96 (``step_bound``) and 0.88
(``m3_critical``); the pass-to-pass coefficient of variation fell from 0.14
to 0.04 and from 0.12 to 0.08.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median time of one probe on the machine of record (2-vCPU Intel Xeon,
# Python 3.11.7, numpy 2.4.6); it only fixes the unit of the results.
REFERENCE_S = 0.0067
# Request time per probe: probing adds about 4 % to a pass.
PERIOD_S = 0.2

_ROWS = np.ones((7, 6))
_VEC = np.arange(1.0, 7.0)
_STAGES = np.tril(np.ones((7, 7)), -1) * 0.1
_COEFFS = np.full((6, 4), 0.3)


def _probe():
    t0 = time.perf_counter()
    for i in range(300):                       # tiny numpy operations
        v = _ROWS[i % 7] * _VEC + 1.0
        float(np.sqrt(np.mean(v * v)))
    y, k = np.ones(6), np.empty((7, 6))
    for _ in range(40):                        # Runge-Kutta-shaped stages
        k[0] = 0.5 * y
        for i in range(1, 7):
            k[i] = 0.5 * (y + 0.01 * (_STAGES[i, :i] @ k[:i]))
        err = 0.01 * (_STAGES[6] @ k)
        float(np.sqrt(np.mean((err / (1e-8 + np.abs(y))) ** 2)))
        y = y + 0.001 * k[6]
    for j in range(400):                       # dense-output-shaped polynomials
        t = j / 400.0
        float((y + 0.01 * (_COEFFS @ np.array([t, t * t, t ** 3, t ** 4])))[0])
    n = 0
    for i in range(15_000):                    # plain Python arithmetic
        n += (i * i) % 7
    return time.perf_counter() - t0


class Calibrator:
    """Probe samples of one pass: one at each end and one per PERIOD_S of requests."""

    def __init__(self):
        self.samples = [_probe()]
        self._owed = 0.0

    def after(self, busy_s):
        """Account for ``busy_s`` seconds of requests, probing every PERIOD_S."""
        self._owed += busy_s / PERIOD_S
        while self._owed >= 1.0:
            self.samples.append(_probe())
            self._owed -= 1.0

    def factor(self):
        """Closes the pass with a last probe; returns the factor to reference time."""
        self.samples.append(_probe())
        return REFERENCE_S / statistics.fmean(self.samples)
