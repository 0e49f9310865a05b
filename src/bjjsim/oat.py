"""Closed-form one-axis-twisting benchmark (omega = 0).

For a coherent state on the equator evolving under chi*Jz^2 alone, the mean
spin and the y-z covariance eigenvalues have exact closed forms.  Against
the exact propagation kernel at omega = 0, over the fit window
(N chi t <= 0.2), the covariance eigenvalues, xi^2 and zeta^2 differ by at
most 5.5e-13 relative (floor 1) at N = 200, 1.4e-11 at N = 1000 and
2.1e-10 at N = 4000, and gyy by about twice that: the gap grows like N^2,
and the test suite holds it to 1e-9 at N = 1000 and 4000.  The powers
cos^p are plain floating-point powers; against 40-digit references for
p < 4000, near the cosine's zero and at small angles, they are as
accurate as a log-space form (2.2e-13 relative, both) and vanish at the
same places.
"""

from __future__ import annotations

import numpy as np

from .spin_core import CovarianceYZ
from .witnesses import WitnessRecord, make_record


def oat_jx(n_particles: int, chi: float, t):
    """<Jx> = (N/2) cos^(N-1)(chi t) for the equatorial state along +x."""
    if n_particles < 2:
        raise ValueError("need at least two particles")
    return n_particles / 2.0 * np.cos(chi * np.asarray(t, dtype=float)) ** (n_particles - 1)


def _ab(n_particles: int, chi: float, t):
    t = np.asarray(t, dtype=float)
    a = 1.0 - np.cos(2.0 * chi * t) ** (n_particles - 2)
    b = 4.0 * np.sin(chi * t) * np.cos(chi * t) ** (n_particles - 2)
    return a, b


def oat_lambda_pm(n_particles: int, chi: float, t):
    """Covariance eigenvalues lambda_pm = 1 + (N-1)/4 [A pm sqrt(A^2+B^2)]."""
    if n_particles < 2:
        raise ValueError("need at least two particles")
    a, b = _ab(n_particles, chi, t)
    r = np.hypot(a, b)
    q = (n_particles - 1) / 4.0
    return 1.0 + q * (a + r), 1.0 + q * (a - r)


def oat_covariance(n_particles: int, chi: float, t) -> CovarianceYZ:
    """Closed-form y-z covariance, elementwise in t; gzz = 1.0 at every time (Jz is conserved)."""
    a, b = _ab(n_particles, chi, t)
    return CovarianceYZ(
        gzz=1.0,
        gyy=1.0 + (n_particles - 1) * a / 2.0,
        gyz=(n_particles - 1) * b / 4.0,
    )


def oat_trajectory(n_particles: int, chi: float, times) -> WitnessRecord:
    """One record of arrays over times, built entirely from the closed forms."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    gamma = oat_covariance(n_particles, chi, times)
    return make_record(times, oat_jx(n_particles, chi, times), gamma, n_particles)
