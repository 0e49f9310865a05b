"""Test-side references: the Gaussian-packet algebra behind the phase model, and other oracles.

No run path of the package calls these; the tests compare the package
against them.

* The phase-model packet algebra.  A two-mode state expands over an
  overcomplete basis of phase states with the overlap kernel
  cos^N((theta-phi)/2).  Near the minima of the effective phase
  potential the dynamics reduces to a Gaussian packet
  exp(-(a+ib)(phi-c)^2) in a harmonic (or inverted-harmonic) well, whose
  moments under the Gaussian kernel exp(-N (theta-phi)^2 / 8) give the
  closed forms bjjsim.phase_model.cov_* evaluates.  packet_params is the
  Riccati solution for the packet, gaussian_expectations its closed-form
  moments (complex moment algebra, real part taken; the imaginary residue
  is an artifact of the kernel approximation and is of the same size in
  an exact quadrature of the model), and spin_phase_operators_check the
  direct quadrature of the phase-representation spin operators.  Like
  the closed forms, the packets take the dimensionless time omega t, and
  the zero-state packet is the pi packet at the signed coupling -lam.
* oat_lambda_pm, the twisting-only covariance eigenvalues in closed form.
* solid_angle_integral, the trapezoid quadrature of a Wigner grid.
* even_block_spectrum, the full spectrum of H's even block under
  m -> -m, of which the kernel's certified window holds a contiguous run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from bjjsim.exact_dynamics import Spectrum, _spectrum, hamiltonian_bands
from bjjsim.oat import _ab
from bjjsim.phase_model import CRITICAL_MARGIN, _signed_coupling, omega_pi_squared
from bjjsim.spin_core import CovarianceYZ, ModelParams
from bjjsim.wigner import SphereGrid


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


def packet_params(omega_t, lam, lam0, n_particles, state) -> GaussianPacket:
    """The packet of `state`: the pi packet at the signed couplings s of lam and s0 of lam0.

    The packet starts in the harmonic ground state at interaction lam0 and
    evolves in the well at lam; the lam0 -> 0 limit realizes a coherent spin
    state.  The Riccati solution for c = a + ib at omega t in the well of
    squared frequency w2 (continued hyperbolically when w2 < 0), with b = 0
    at t = 0; the quadratic expansion of the phase-weight factor then adds
    -N/(4 s) to the width: it widens the pi packet and narrows the zero one.
    The critical point s = 1 is excluded.
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
    # curvature sign pinned by the exact-dynamics oracle
    cos, sin, sign = (np.cos, np.sin, -1.0) if w2 >= 0.0 else (np.cosh, np.sinh, 1.0)
    co, si = cos(wa * omega_t), sin(wa * omega_t)
    denom = co * co + g * g * si * si
    b = -a_ground * (g * g + sign) * sin(2.0 * wa * omega_t) / (2.0 * denom)
    return GaussianPacket(a=a_ground * g / denom - n_particles / (4.0 * s), b=b, center=state)


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
    a double quadrature against the overlap kernel.
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


def oat_lambda_pm(n_particles: int, chi: float, t):
    """Covariance eigenvalues lambda_pm = 1 + (N-1)/4 [A pm sqrt(A^2+B^2)] of twisting alone."""
    if n_particles < 2:
        raise ValueError("need at least two particles")
    a, b = _ab(n_particles, chi, t)
    r = np.hypot(a, b)
    q = (n_particles - 1) / 4.0
    return 1.0 + q * (a + r), 1.0 + q * (a - r)


def solid_angle_integral(grid: SphereGrid) -> float:
    """Trapezoid quadrature of W over the sphere; 1 up to grid resolution."""
    ph = np.append(grid.phi_samples, grid.phi_samples[0] + 2.0 * np.pi)
    val = np.concatenate([grid.values, grid.values[:, :1]], axis=1)
    inner = np.trapezoid(val, ph, axis=1)
    return float(np.trapezoid(inner * np.sin(grid.theta_samples), grid.theta_samples))


def even_block_spectrum(params: ModelParams) -> Spectrum:
    """Every eigenpair of the block of H that is even under the mode exchange m -> -m.

    H commutes with m -> -m, so in the basis |0>, (|m> + |-m>)/sqrt(2),
    m = 1 ... N/2, its even part is a tridiagonal block of size N/2+1
    (spin_core.ladder).  The spectrum is in the block's own coordinates
    (spin_core._parity_coords); spin_core._from_even maps its columns back
    to the Dicke basis, each exactly even in m.  Its eigenvalues are those
    of the whole H with even eigenvectors, to roundoff.
    """
    return _spectrum(params.n_particles, *hamiltonian_bands(params, even=True))
