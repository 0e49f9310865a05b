"""Analytic phase-representation model of the two-mode junction: the closed forms.

A two-mode state can be expanded over an overcomplete basis of phase states
with the nonstandard overlap kernel cos^N((theta-phi)/2).  Near the minima
of the effective phase potential the dynamics reduces to a Gaussian packet
in a harmonic (or inverted-harmonic) well, which gives closed forms for the
y-z covariance, the mean spin, and hence the entanglement witnesses.  This
module holds those closed forms (cov_*), the well frequency and the regime
that picks among them; the packet algebra they come from, and its
quadrature check, live with the tests (tests/library_reference.py), which
compare the two.

Conventions resolved against the exact-diagonalization oracle:

* the closed forms take the dimensionless time omega t, and w is the well
  frequency in units of omega.
* a rotation by pi about z followed by complex conjugation (the equatorial
  states have real amplitudes) maps the zero state onto the pi state,
  chi Jz^2 - omega Jx onto its form at coupling -lam, and <Jx> onto -<Jx>,
  leaving Jy and Jz.  So each closed form is written once, around pi, and
  read at the signed coupling +lam (pi state) or -lam (zero state), which
  _signed_coupling alone decides.
* the covariance off-diagonal is -(lam/2) * sin(2 w omega t) / sqrt(1 - lam)
  around the pi minimum (hyperbolic continuation for lam > 1): the unique
  prefactor for which det(gamma) = 1 at all times, as required for a pure
  Gaussian state, and it matches the exact dynamics at small t.  At -lam it
  is +(lam/2) * sin(2 w_0 omega t) / sqrt(1 + lam) around the zero minimum,
  where (w_0)^2 = 1 + lam (1 + 1/N) is (w_pi)^2 at -lam,
  omega_pi_squared(-lam, N).
"""

from __future__ import annotations

import numpy as np

from .spin_core import CovarianceYZ

CRITICAL_MARGIN = 1e-6


def omega_pi_squared(lam: float, n_particles: int) -> float:
    """(w_pi/omega)^2 = 1 - lam (1 + 1/N); negative in the unstable regime."""
    return 1.0 - lam * (1.0 + 1.0 / n_particles)


def _signed_coupling(state: str, lam: float) -> float:
    """The coupling at which the pi closed forms describe `state`: +lam for "pi", -lam for "zero"."""
    if state == "pi":
        return lam
    if state == "zero":
        return -lam
    raise ValueError(f"unknown initial state {state!r}")


def regime(state: str, lam: float, n_particles: int) -> str | None:
    """Closed form describing a coupled run: "zero", "stable_pi", "unstable_pi" or None.

    Each name is the suffix of the cov_* function that evaluates it (and the
    regime of witnesses.zeta2_min).  The zero state has cov_zero at every
    lam > 0: its well, the pi well at -lam, always confines.  Around pi,
    cov_stable_pi needs a confining well, (w_pi)^2 > 0, i.e. lam < N/(N+1);
    cov_unstable_pi needs lam > 1 + CRITICAL_MARGIN.  At lam <= 0, and for
    pi in the window N/(N+1) <= lam <= 1 + CRITICAL_MARGIN, none applies,
    and the answer is None.  The cuts live here only; each cov_* asks this
    function for its domain.
    """
    if state not in ("pi", "zero"):
        raise ValueError(f"unknown initial state {state!r}")
    if not lam > 0.0:
        return None
    if state == "zero":
        return "zero"
    if lam > 1.0 + CRITICAL_MARGIN:
        return "unstable_pi"
    if lam < 1.0 - CRITICAL_MARGIN and omega_pi_squared(lam, n_particles) > 0.0:
        return "stable_pi"
    return None


def _cov_pi(omega_t, lam: float, n_particles: int) -> tuple[CovarianceYZ, float]:
    """The pi covariance and 2<Jx>/N at the signed coupling lam and time omega_t.

    One algebra, fed cos, sin of 2 w_pi omega t while the pi well confines
    and cosh, sinh otherwise.  Callers check the domain.
    """
    w2 = omega_pi_squared(lam, n_particles)
    cos, sin = (np.cos, np.sin) if w2 > 0.0 else (np.cosh, np.sinh)
    x = 2.0 * np.sqrt(abs(w2)) * omega_t
    c, s = cos(x), sin(x)
    gamma = CovarianceYZ(
        gzz=(lam + lam * c - 2.0) / (2.0 * (lam - 1.0)),
        gyy=(2.0 - lam + lam * c) / 2.0,
        gyz=-lam * s / (2.0 * np.sqrt(abs(1.0 - lam))),
    )
    return gamma, -1.0 + lam**2 / (4.0 * n_particles * (lam - 1.0)) * (c - 1.0)


def _check_regime(name: str, state: str, lam: float, n_particles: int) -> None:
    """Raise ValueError, naming the regime's domain, unless regime(state, lam, N) is `name`."""
    if regime(state, lam, n_particles) != name:
        domain = {"zero": "lam > 0", "stable_pi": "0 < lam < N/(N+1)",
                  "unstable_pi": f"lam > 1 + {CRITICAL_MARGIN}"}[name]
        raise ValueError(f"lam = {lam} at N = {n_particles} is outside the {name} regime ({domain})")


def cov_stable_pi(omega_t: float, lam: float, n_particles: int) -> tuple[CovarianceYZ, float]:
    """Covariance and 2<Jx>/N around pi in the oscillatory regime, at time omega_t.

    Valid while the pi well is confining, i.e. (w_pi)^2 > 0 (regime
    "stable_pi"); the witness minima sit at 2 w_pi omega t = n pi with depth
    1 - lam, independent of N.  Elementwise in omega_t.
    """
    _check_regime("stable_pi", "pi", lam, n_particles)
    return _cov_pi(omega_t, lam, n_particles)


def cov_unstable_pi(omega_t: float, lam: float, n_particles: int) -> tuple[CovarianceYZ, float]:
    """Covariance and 2<Jx>/N around pi in the exponential regime (lam > 1), at time omega_t.

    Regime "unstable_pi"; elementwise in omega_t.
    """
    _check_regime("unstable_pi", "pi", lam, n_particles)
    return _cov_pi(omega_t, lam, n_particles)


def cov_zero(omega_t: float, lam: float, n_particles: int) -> tuple[CovarianceYZ, float]:
    """Covariance and 2<Jx>/N around the zero minimum (stable for all lam > 0), at time omega_t.

    The pi form at -lam with <Jx> reversed.  Regime "zero"; elementwise in omega_t.
    """
    _check_regime("zero", "zero", lam, n_particles)
    gamma, jx_over_half_n = _cov_pi(omega_t, _signed_coupling("zero", lam), n_particles)
    return gamma, -jx_over_half_n
