"""Collective spin operators, coherent spin states and covariance machinery.

Everything here lives in the Dicke basis of N two-mode bosons: the
(N+1)-dimensional joint eigenbasis of J^2 and Jz, with amplitudes stored
in ascending order of the population imbalance m = -N/2 ... +N/2.  Only
band_moments also reads the coordinates of the even block of the mode
exchange m -> -m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, xlogy

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-12
# First moments in the y-z plane must vanish (relative to N) for the
# covariance normalization used here; see covariance_yz.
FIRST_MOMENT_TOL = 1e-8


def _validate_even_n(n_particles) -> int:
    if not isinstance(n_particles, (int, np.integer)):
        raise TypeError(f"particle number must be an integer, got {type(n_particles).__name__}")
    n = int(n_particles)
    if n < 2 or n % 2 != 0:
        raise ValueError(f"particle number must be even and >= 2, got {n}")
    return n


def m_values(n_particles: int) -> np.ndarray:
    """Imbalance quantum numbers m = -N/2 ... +N/2, ascending."""
    j = n_particles / 2.0
    return np.arange(-j, j + 1.0)


def raising_coefficients(n_particles: int) -> np.ndarray:
    """Ladder factors <m+1|J+|m> = sqrt(j(j+1) - m(m+1)) for m = -j ... j-1."""
    j = n_particles / 2.0
    m = np.arange(-j, j)
    return np.sqrt(j * (j + 1.0) - m * (m + 1.0))


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the two-mode Hamiltonian H = chi*Jz^2 - omega*Jx (hbar = 1).

    The dimensionless interaction-over-tunneling ratio N*chi/omega is exposed
    as ``lam`` whenever omega > 0.  Attractive interaction (chi < 0) is not
    supported.
    """

    n_particles: int
    chi: float
    omega: float

    def __post_init__(self):
        _validate_even_n(self.n_particles)
        if not np.isfinite(self.chi) or not np.isfinite(self.omega):
            raise ValueError("chi and omega must be finite")
        if self.omega < 0:
            raise ValueError(f"omega must be >= 0, got {self.omega}")
        if self.chi < 0:
            raise ValueError("attractive interaction (chi < 0) is out of scope")
        if self.omega == 0 and self.chi == 0:
            raise ValueError("chi and omega cannot both vanish")

    @property
    def lam(self) -> float | None:
        """N*chi/omega, or None in the pure-twisting limit omega = 0."""
        if self.omega == 0:
            return None
        return self.n_particles * self.chi / self.omega

    @classmethod
    def coupled(cls, n_particles: int, lam: float) -> "ModelParams":
        """Coupled junction at interaction ratio lam: omega = 1, chi = lam/N; time in 1/omega."""
        if lam < 0:
            raise ValueError("attractive branch (lam < 0) is out of scope")
        return cls(n_particles=n_particles, chi=lam / n_particles, omega=1.0)

    @classmethod
    def twisting(cls, n_particles: int, chi: float = 1.0) -> "ModelParams":
        """Pure one-axis twisting (omega = 0); time in units 1/chi."""
        return cls(n_particles=n_particles, chi=chi, omega=0.0)


def check_all(ok, message: str, *values) -> None:
    """Raise ValueError(message.format(*values)) unless ok holds at every time.

    Array values enter the message as floats at the earliest time that fails.
    """
    ok = np.asarray(ok, dtype=bool)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValueError(message.format(*(v if np.ndim(v) == 0 else np.ravel(v)[i].item() for v in values)))


def check_normalized(norm) -> None:
    """Raise unless |norm - 1| <= NORM_TOL at every time; a NaN norm fails."""
    check_all(abs(norm - 1.0) <= NORM_TOL, "state is not normalized: |psi| = {}", norm)


def check_first_moments(jy_mean, jz_mean, n_particles: int) -> None:
    """Raise unless <Jy> and <Jz> vanish to FIRST_MOMENT_TOL * N (see covariance_yz).

    Floats or arrays over times; a NaN moment fails.
    """
    limit = FIRST_MOMENT_TOL * n_particles
    check_all((abs(jy_mean) < limit) & (abs(jz_mean) < limit),
              "state outside the supported symmetry class: <Jy> = {:.3e}, <Jz> = {:.3e} must vanish",
              jy_mean, jz_mean)


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over the Dicke basis."""

    n_particles: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = _validate_even_n(self.n_particles)
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.shape != (n + 1,):
            raise ValueError(f"amplitudes must have shape ({n + 1},), got {amp.shape}")
        check_normalized(np.linalg.norm(amp))
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.n_particles + 1


@dataclass(frozen=True)
class CollectiveOperator:
    """Hermitian operator on the Dicke basis."""

    n_particles: int
    matrix: np.ndarray

    def __post_init__(self):
        n = _validate_even_n(self.n_particles)
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (n + 1, n + 1):
            raise ValueError(f"matrix must be ({n + 1},{n + 1}), got {mat.shape}")
        dev = np.abs(mat - mat.conj().T).max()
        if dev > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max |A - A^dag| = {dev:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.n_particles + 1

    @property
    def is_tridiagonal(self) -> bool:
        """Whether every entry outside the three central diagonals is zero."""
        return not (np.any(np.triu(self.matrix, 2)) or np.any(np.tril(self.matrix, -2)))


@dataclass(frozen=True)
class CovarianceYZ:
    """Covariance data in the y-z plane, normalized as 2<{Ji, Jj}>/N; floats or arrays over times."""

    gzz: float | np.ndarray
    gyy: float | np.ndarray
    gyz: float | np.ndarray

    def __post_init__(self):
        negative = (self.gzz < -1e-10) | (self.gyy < -1e-10)
        check_all(np.logical_not(negative), "diagonal covariance entries must be nonnegative: "
                  "CovarianceYZ(gzz={!r}, gyy={!r}, gyz={!r})", self.gzz, self.gyy, self.gyz)


@lru_cache(maxsize=None)
def build_spin_operators(n_particles: int) -> tuple[CollectiveOperator, CollectiveOperator, CollectiveOperator]:
    """Return (Jx, Jy, Jz) for N particles.

    Jz is diagonal with entries m; Jx and Jy are the tridiagonal ladder
    combinations (J+ +- J-)/2, (J+ - J-)/2i with
    <m+1|J+|m> = sqrt(j(j+1) - m(m+1)), j = N/2.
    """
    n = _validate_even_n(n_particles)
    dim = n + 1
    f = raising_coefficients(n)
    lower = np.arange(1, dim), np.arange(dim - 1)
    upper = np.arange(dim - 1), np.arange(1, dim)

    jx = np.zeros((dim, dim), dtype=complex)
    jx[lower] = f / 2.0
    jx[upper] = f / 2.0

    jy = np.zeros((dim, dim), dtype=complex)
    jy[lower] = -0.5j * f
    jy[upper] = 0.5j * f

    jz = np.diag(m_values(n).astype(complex))

    return CollectiveOperator(n, jx), CollectiveOperator(n, jy), CollectiveOperator(n, jz)


def coherent_state(n_particles: int, theta: float, phi: float) -> StateVector:
    """Coherent spin state with mean spin along (sin t cos p, sin t sin p, cos t).

    Amplitudes follow the binomial expansion of the product state in which
    every particle points along the same Bloch direction; computed in log
    space so that large N does not overflow the binomial coefficients.
    """
    n = _validate_even_n(n_particles)
    if not 0.0 <= theta <= np.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    if not -np.pi <= phi <= np.pi:
        raise ValueError(f"phi must lie in [-pi, pi], got {phi}")

    m = m_values(n)
    ka = n / 2.0 + m  # mode-a occupation
    kb = n / 2.0 - m
    log_binom = 0.5 * (gammaln(n + 1.0) - gammaln(ka + 1.0) - gammaln(kb + 1.0))
    # xlogy(0, 0) = 0 keeps the theta = 0, pi edge states exact
    log_mag = log_binom + xlogy(ka, np.cos(theta / 2.0)) + xlogy(kb, np.sin(theta / 2.0))
    amp = np.exp(log_mag) * np.exp(1j * phi * kb)
    amp /= np.linalg.norm(amp)
    return StateVector(n, amp)


def expectation(op: CollectiveOperator, psi: StateVector) -> float:
    """<psi|op|psi> for a Hermitian operator; the imaginary residue is checked
    and discarded."""
    if op.n_particles != psi.n_particles:
        raise ValueError(f"dimension mismatch: operator N={op.n_particles}, state N={psi.n_particles}")
    val = np.vdot(psi.amplitudes, op.matrix @ psi.amplitudes)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ValueError(f"imaginary residue {val.imag:.3e} signals a non-Hermitian operator")
    return float(val.real)


def covariance_yz(psi: StateVector) -> CovarianceYZ:
    """Raw second moments 2<{Ji, Jj}>/N in the y-z plane.

    No first-moment subtraction is applied: the states in scope satisfy
    <Jy> = <Jz> = 0 at all times, and this is asserted rather than silently
    generalized.
    """
    _, jy_op, jz_op = build_spin_operators(psi.n_particles)
    n = psi.n_particles
    amp = psi.amplitudes
    jy_psi = jy_op.matrix @ amp
    jz_psi = jz_op.matrix @ amp

    check_first_moments(np.vdot(amp, jy_psi).real, np.vdot(amp, jz_psi).real, n)

    gzz = 4.0 * np.vdot(jz_psi, jz_psi).real / n
    gyy = 4.0 * np.vdot(jy_psi, jy_psi).real / n
    # <{Jy,Jz}> = 2 Re <Jy psi|Jz psi> for Hermitian Jy, Jz
    gyz = 4.0 * np.vdot(jy_psi, jz_psi).real / n
    return CovarianceYZ(gzz=gzz, gyy=gyy, gyz=gyz)


class BandMoments(NamedTuple):
    """Moments of a stack of states, one entry per state (see band_moments)."""

    norm: np.ndarray
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    gzz: np.ndarray
    gyy: np.ndarray
    gyz: np.ndarray


def band_moments(n_particles: int, re: np.ndarray, im: np.ndarray, even: bool = False) -> BandMoments:
    """Norm, <Jx>, <Jy>, <Jz> and 2<{Ji, Jj}>/N in the y-z plane of each state.

    The states are the rows re + i*im (a single state may be 1-D), in the
    Dicke basis (N+1 amplitudes) or, with even set, in the N/2+1
    coordinates of the even block of the mode exchange m -> -m (see
    exact_dynamics._parity_coords).  Jz is the diagonal m and Jx, Jy couple
    neighbouring m through the ladder factors, so every moment is O(N)
    band arithmetic per state, with no operator matrix.  The values are
    those of covariance_yz and expectation up to summation order; no
    first-moment check is applied here.

    An even state is its own mirror image, so its moments are sums over
    m >= 0 in block coordinates c_i, i = |m| = 0 ... N/2: weights i, and
    the ladder factors f_{N/2+i} with the first scaled by sqrt(2) (the
    bands of exact_dynamics.even_spectrum).  2i Jy maps the even block onto
    the odd one, which has no i = 0 coordinate, so the stencil drops it.
    <Jy> and <Jz> are exactly 0, since Jy and Jz are odd under m -> -m.
    """
    n = _validate_even_n(n_particles)
    if even:
        j = n // 2
        m, f = np.arange(j + 1.0), raising_coefficients(n)[j:]
        f[0] *= np.sqrt(2.0)
    else:
        m, f = m_values(n), raising_coefficients(n)
    prob = re * re + im * im
    # 2i Jy psi = (J+ - J-) psi, with (J+ psi)_{k+1} = f_k psi_k and (J- psi)_k = f_k psi_{k+1}
    d_re, d_im = np.zeros_like(re), np.zeros_like(im)
    d_re[..., 1:] = f * re[..., :-1]
    d_im[..., 1:] = f * im[..., :-1]
    if even:
        d_re[..., 1:-1] -= f[1:] * re[..., 2:]
        d_im[..., 1:-1] -= f[1:] * im[..., 2:]
    else:
        d_re[..., :-1] -= f * re[..., 1:]
        d_im[..., :-1] -= f * im[..., 1:]
    jy_density = re * d_im - im * d_re  # 2 Re(conj(psi) * Jy psi), element by element
    if even:
        jy, jz = np.zeros(prob.shape[:-1]), np.zeros(prob.shape[:-1])
    else:
        jy, jz = 0.5 * jy_density.sum(axis=-1), (m * prob).sum(axis=-1)
    return BandMoments(
        norm=np.sqrt(prob.sum(axis=-1)),
        # <Jx> = sum_k f_k Re(conj(psi_k) psi_{k+1})
        jx=(f * (re[..., :-1] * re[..., 1:] + im[..., :-1] * im[..., 1:])).sum(axis=-1),
        jy=jy,
        jz=jz,
        gzz=4.0 * (m * m * prob).sum(axis=-1) / n,
        gyy=(d_re * d_re + d_im * d_im).sum(axis=-1) / n,
        gyz=2.0 * (m * jy_density).sum(axis=-1) / n,
    )


def lambda_pm(gamma: CovarianceYZ):
    """Eigenvalues (lambda_plus, lambda_minus) of the 2x2 covariance matrix, elementwise."""
    s = gamma.gzz + gamma.gyy
    r = np.hypot(gamma.gzz - gamma.gyy, 2.0 * gamma.gyz)
    return 0.5 * (s + r), 0.5 * (s - r)
