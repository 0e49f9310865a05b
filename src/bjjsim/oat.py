"""Closed-form one-axis-twisting benchmark (omega = 0).

For a coherent state on the equator evolving under chi*Jz^2 alone, the mean
spin and the y-z covariance eigenvalues have exact closed forms.  They agree
with exact diagonalization to machine precision at any N, which the test
suite enforces; the powers cos^(N-2) are evaluated in log space with sign
tracking so large N stays accurate near the zeros of the cosine.
"""

from __future__ import annotations

import numpy as np

from .spin_core import CovarianceYZ
from .witnesses import WitnessRecord, make_record


def _signed_cos_pow(x, p: int):
    """cos(x)^p for integer p >= 0 via exp(p*log|cos|) with sign tracking."""
    c = np.cos(x)
    mag = np.abs(c)
    with np.errstate(divide="ignore"):
        out = np.exp(p * np.log(mag))
    out = np.where(mag == 0.0, 0.0, out)
    sign = np.where(c < 0.0, (-1.0) ** (p % 2), 1.0)
    return out * sign


def oat_jx(n_particles: int, chi: float, t):
    """<Jx> = (N/2) cos^(N-1)(chi t) for the equatorial state along +x."""
    if n_particles < 2:
        raise ValueError("need at least two particles")
    return n_particles / 2.0 * _signed_cos_pow(chi * np.asarray(t, dtype=float), n_particles - 1)


def _ab(n_particles: int, chi: float, t):
    t = np.asarray(t, dtype=float)
    a = 1.0 - _signed_cos_pow(2.0 * chi * t, n_particles - 2)
    b = 4.0 * np.sin(chi * t) * _signed_cos_pow(chi * t, n_particles - 2)
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
