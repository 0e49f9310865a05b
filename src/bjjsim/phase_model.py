"""Analytic phase-representation model of the two-mode junction.

A two-mode state can be expanded over an overcomplete basis of phase states
with the nonstandard overlap kernel cos^N((theta-phi)/2).  Near the minima
of the effective phase potential the dynamics reduces to a Gaussian packet
in a harmonic (or inverted-harmonic) well, which gives closed forms for the
y-z covariance, the mean spin, and hence the entanglement witnesses.

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
  where (w_0)^2 = 1 + lam (1 + 1/N) is (w_pi)^2 at -lam.
* the closed-form packet moments are evaluated from the Gaussian-kernel
  double integrals directly (complex moment algebra, real part taken); the
  imaginary residue is an artifact of the kernel approximation and is of the
  same size in an exact quadrature of the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .spin_core import CovarianceYZ

CRITICAL_MARGIN = 1e-6


@dataclass(frozen=True)
class GaussianPacket:
    """Phase-amplitude parameters of the packet exp(-(a+ib)(phi-c)^2).

    These are the parameters of the overcomplete-basis amplitude, i.e. with
    the phase-weight factor absorbed.  The width parameter a may pass
    through negative values near the breathing extremes of the pi branch;
    normalizability only requires 4(a^2+b^2) + aN > 0, which the moment and
    normalization routines enforce once N is known.
    """

    a: float
    b: float
    center: str = "zero"  # "zero" or "pi"

    def __post_init__(self):
        if self.center not in ("zero", "pi"):
            raise ValueError(f"center must be 'zero' or 'pi', got {self.center!r}")
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError(f"packet parameters must be finite, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class PacketMoments:
    """Closed-form packet expectation values of the collective spin moments."""

    jx_mean: float
    jz2_mean: float
    jy2_mean: float
    anticomm_yz_mean: float

    def __post_init__(self):
        if self.jz2_mean < 0.0 or self.jy2_mean < 0.0:
            raise ValueError(f"second moments must be nonnegative: {self}")


def potential(phi, n_particles: int, lam: float):
    """Effective phase potential -(N+1)/2 cos(phi) - N/(8 lam) cos(2 phi)."""
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    phi = np.asarray(phi, dtype=float)
    out = -(n_particles + 1) / 2.0 * np.cos(phi) - n_particles / (8.0 * lam) * np.cos(2.0 * phi)
    return out if out.ndim else float(out)


def omega_pi_squared(lam: float, n_particles: int) -> float:
    """(w_pi/omega)^2 = 1 - lam (1 + 1/N); negative in the unstable regime."""
    return 1.0 - lam * (1.0 + 1.0 / n_particles)


def omega_zero_squared(lam: float, n_particles: int) -> float:
    """(w_0/omega)^2 = 1 + lam (1 + 1/N), the pi form at -lam; positive for every lam > 0."""
    return omega_pi_squared(-lam, n_particles)


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


def _packet_params(omega_t, lam, lam0, n_particles, state) -> GaussianPacket:
    """The packet of `state`: the pi packet at the signed couplings s of lam and s0 of lam0.

    The Riccati solution for c = a + ib at omega t in the well of squared
    frequency w2 (continued hyperbolically when w2 < 0), with b = 0 at
    t = 0; the quadratic expansion of the phase-weight factor then adds
    -N/(4 s) to the width.
    """
    if lam0 <= 0:
        raise ValueError(f"lam0 must be positive, got {lam0}")
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    s, s0 = _signed_coupling(state, lam), _signed_coupling(state, lam0)
    if abs(s - 1.0) < CRITICAL_MARGIN:
        raise ValueError(f"lam within {CRITICAL_MARGIN} of the critical point 1 is rejected")
    w2_init = omega_pi_squared(s0, n_particles)
    if w2_init <= 0.0:
        raise ValueError(f"initial well at lam0 = {lam0} is not confining")
    w2 = omega_pi_squared(s, n_particles)
    wa = np.sqrt(abs(w2))
    a_ground = n_particles * wa / (4.0 * lam)
    g = n_particles * np.sqrt(w2_init) / (4.0 * lam0) / a_ground
    # curvature sign pinned by the exact-dynamics oracle (see module docstring)
    cos, sin, sign = (np.cos, np.sin, -1.0) if w2 >= 0.0 else (np.cosh, np.sinh, 1.0)
    co, si = cos(wa * omega_t), sin(wa * omega_t)
    denom = co * co + g * g * si * si
    b = -a_ground * (g * g + sign) * sin(2.0 * wa * omega_t) / (2.0 * denom)
    return GaussianPacket(a=a_ground * g / denom - n_particles / (4.0 * s), b=b, center=state)


def packet_params_pi(omega_t: float, lam: float, lam0: float, n_particles: int) -> GaussianPacket:
    """Amplitude packet parameters around the pi minimum at time omega_t.

    The packet starts in the harmonic ground state at interaction lam0 and
    evolves in the well at lam; the lam0 -> 0 limit realizes a coherent spin
    state.  Near pi the phase-weight factor widens the amplitude by
    -N/(4 lam).  The critical point lam = 1 is excluded.
    """
    return _packet_params(omega_t, lam, lam0, n_particles, "pi")


def packet_params_zero(omega_t: float, lam: float, lam0: float, n_particles: int) -> GaussianPacket:
    """Amplitude packet parameters around the zero minimum (always stable) at time omega_t.

    The pi packet at -lam: the phase-weight factor narrows the amplitude by +N/(4 lam).
    """
    return _packet_params(omega_t, lam, lam0, n_particles, "zero")


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


def bargmann_overlap(theta: float, phi: float, n_particles: int) -> float:
    """Phase-state overlap (2^N / N!) cos^N((theta - phi)/2), log-space safe."""
    n = n_particles
    c = np.cos((theta - phi) / 2.0)
    if c == 0.0:
        return 0.0
    log_mag = n * np.log(2.0) - gammaln(n + 1.0) + n * np.log(abs(c))
    sign = -1.0 if (c < 0.0 and n % 2 == 1) else 1.0
    return float(sign * np.exp(log_mag))


def norm_parameter(a: float, b: float, n_particles: int) -> float:
    """Quadratic-form determinant 4(a^2 + b^2) + aN controlling normalizability."""
    return 4.0 * (a * a + b * b) + a * n_particles


def normalization(a: float, b: float, n_particles: int) -> float:
    """Squared norm of the packet under the Gaussian kernel: 2 pi / sqrt(A).

    A = 4(a^2+b^2) + aN must be positive for a normalizable packet.
    """
    big_a = norm_parameter(a, b, n_particles)
    if big_a <= 0.0:
        raise ValueError(f"packet not normalizable: 4(a^2+b^2) + aN = {big_a}")
    return 2.0 * np.pi / np.sqrt(big_a)


def _moment_algebra(a: float, b: float, n: int):
    """Expectation values of the phase-operator symbols under the kernel weight.

    All required integrals reduce to E[phi^k e^{i q phi}] of a zero-mean
    complex Gaussian with variance s2 = (8(a-ib) + N) / (4A); each operator
    contributes polynomials of degree <= 2 at q in {0, +-1, +-2}.
    """
    c = a + 1j * b
    big_a = norm_parameter(a, b, n)
    s2 = (8.0 * np.conj(c) + n) / (4.0 * big_a)

    def e_poly(q, c0, c1, c2):
        mu = 1j * q * s2
        return np.exp(-q * q * s2 / 2.0) * (c0 + c1 * mu + c2 * (s2 + mu * mu))

    h = n / 2.0 + 1.0
    jx = e_poly(1, h / 2.0, 1j * c, 0.0) + e_poly(-1, h / 2.0, -1j * c, 0.0)
    jz2 = e_poly(0, 2.0 * c, 0.0, -4.0 * c * c)

    q_yy = h * h + h
    jy2 = (
        e_poly(0, -c + q_yy / 2.0 - h, 0.0, 2.0 * c * c)
        + e_poly(2, -c / 2.0 - q_yy / 4.0, -0.5j * (n + 3.0) * c, c * c)
        + e_poly(-2, -c / 2.0 - q_yy / 4.0, 0.5j * (n + 3.0) * c, c * c)
    )
    ayz = (
        e_poly(1, 1j * (-2.0 * c - h / 2.0), (n + 3.0) * c, 4j * c * c)
        + e_poly(-1, 1j * (-2.0 * c - h / 2.0), -(n + 3.0) * c, 4j * c * c)
    )
    return jx, jz2, jy2, ayz


def gaussian_expectations(packet: GaussianPacket, n_particles: int) -> PacketMoments:
    """Closed-form <Jx>, <Jz^2>, <Jy^2>, <{Jy, Jz}> of a Gaussian packet.

    A packet centered at pi flips the sign of the odd-in-phi moments <Jx> and
    <{Jy, Jz}> relative to the zero-centered forms; the second moments are
    unchanged.
    """
    if norm_parameter(packet.a, packet.b, n_particles) <= 0.0:
        raise ValueError("packet not normalizable under the overlap kernel")
    jx, jz2, jy2, ayz = _moment_algebra(packet.a, packet.b, n_particles)
    sign = -1.0 if packet.center == "pi" else 1.0
    return PacketMoments(
        jx_mean=sign * jx.real,
        jz2_mean=jz2.real,
        jy2_mean=jy2.real,
        anticomm_yz_mean=sign * ayz.real,
    )


def moments_to_covariance(moments: PacketMoments, n_particles: int) -> tuple[CovarianceYZ, float]:
    """Repackage packet moments as (CovarianceYZ, 2<Jx>/N)."""
    n = n_particles
    gamma = CovarianceYZ(
        gzz=4.0 * moments.jz2_mean / n,
        gyy=4.0 * moments.jy2_mean / n,
        gyz=2.0 * moments.anticomm_yz_mean / n,
    )
    return gamma, 2.0 * moments.jx_mean / n


def spin_phase_operators_check(
    psi_phase,
    n_particles: int,
    center: float = 0.0,
    n_grid: int = 1201,
    kernel: str = "gaussian",
) -> dict[str, float]:
    """Evaluate the phase-representation spin operators by direct quadrature.

    ``psi_phase`` maps an array of phases to complex amplitudes; it must be
    smooth and concentrated away from the domain boundary (center +- pi).
    First and second derivatives are taken numerically, and every moment is
    a double quadrature against the overlap kernel.  A validation utility,
    not a hot path.
    """
    if kernel not in ("gaussian", "exact"):
        raise ValueError(f"kernel must be 'gaussian' or 'exact', got {kernel!r}")
    n = n_particles
    phi = np.linspace(center - np.pi, center + np.pi, n_grid)
    psi = np.asarray(psi_phase(phi), dtype=complex)
    peak = np.abs(psi).max()
    if peak == 0.0:
        raise ValueError("psi_phase vanishes on the whole grid")
    if max(abs(psi[0]), abs(psi[-1])) > 1e-6 * peak:
        raise ValueError(
            "boundary mass too large: periodic-derivative approximation invalid"
        )

    dphi = phi[1] - phi[0]
    dpsi = np.gradient(psi, dphi)
    d2psi = np.gradient(dpsi, dphi)

    diff = phi[:, None] - phi[None, :]
    if kernel == "gaussian":
        ker = np.exp(-n * diff**2 / 8.0)
    else:
        cosd = np.cos(diff / 2.0)
        with np.errstate(divide="ignore"):
            ker = np.where(cosd == 0.0, 0.0, np.exp(n * np.log(np.abs(cosd) + (cosd == 0.0))))
        if n % 2 == 1:
            ker *= np.sign(cosd)

    weights = np.full(n_grid, dphi)
    weights[0] = weights[-1] = dphi / 2.0
    bra = weights * np.conj(psi)
    kernel_bra = bra @ ker

    def moment(applied):
        return complex(kernel_bra @ (weights * applied))

    half = n / 2.0
    sin, cos = np.sin(phi), np.cos(phi)
    ops = {
        "jx": sin * dpsi + (half + 1.0) * cos * psi,
        "jy": cos * dpsi - (half + 1.0) * sin * psi,
        "jz": 1j * dpsi,
        "jx2": (
            sin**2 * d2psi
            + (n + 3.0) / 2.0 * np.sin(2.0 * phi) * dpsi
            + (((half + 1.0) ** 2 + (half + 1.0)) * cos**2 - (half + 1.0)) * psi
        ),
        "jy2": (
            cos**2 * d2psi
            - (n + 3.0) / 2.0 * np.sin(2.0 * phi) * dpsi
            + (((half + 1.0) ** 2 + (half + 1.0)) * sin**2 - (half + 1.0)) * psi
        ),
        "jz2": -d2psi,
        "anticomm_yz": 1j * (2.0 * cos * d2psi - (n + 3.0) * sin * dpsi - (half + 1.0) * cos * psi),
    }
    denom = moment(psi).real
    return {name: moment(applied).real / denom for name, applied in ops.items()}
