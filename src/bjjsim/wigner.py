"""Wigner quasi-probability on the Bloch sphere and mean-field separatrix.

The density matrix of the collective spin is projected onto orthonormal
irreducible tensor operators T_kq (k = 0 ... N); the Wigner function is the
spherical-harmonic resummation of those multipoles.  Negative regions signal
nonclassicality.  The separatrix is the classical level set through the
hyperbolic fixed point at (phi = pi, z = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import sph_legendre_p_all

from .spin_core import StateVector, _validate_even_n, raising_coefficients

TENSOR_NORM_TOL = 1e-6
IMAG_RESIDUE_TOL = 1e-8
ENERGY_TOL = 1e-8
ROOT_RESIDUAL_TOL = 1e-9
TABLE_DOUBLES = 1 << 17  # Legendre-table chunk bound: 1 MiB


@dataclass(frozen=True)
class SphereGrid:
    """Wigner samples on a theta x phi grid, normalized to unit solid-angle integral."""

    theta_samples: np.ndarray
    phi_samples: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.theta_samples, dtype=float)
        ph = np.asarray(self.phi_samples, dtype=float)
        val = np.asarray(self.values, dtype=float)
        if np.any(np.diff(th) <= 0) or th[0] < 0 or th[-1] > np.pi:
            raise ValueError("theta_samples must ascend within [0, pi]")
        if np.any(np.diff(ph) <= 0) or ph[0] < -np.pi or ph[-1] >= np.pi:
            raise ValueError("phi_samples must ascend within [-pi, pi)")
        if val.shape != (th.size, ph.size):
            raise ValueError(f"values must be ({th.size},{ph.size}), got {val.shape}")
        for arr in (th, ph, val):
            arr.setflags(write=False)
        object.__setattr__(self, "theta_samples", th)
        object.__setattr__(self, "phi_samples", ph)
        object.__setattr__(self, "values", val)

    def peak_normalized(self) -> np.ndarray:
        """Values rescaled so the global maximum is 1 (plotting convention)."""
        return self.values / self.values.max()


@dataclass(frozen=True)
class SeparatrixCurve:
    """Level set through (pi, 0): points (phi, +-z) of the mean-field separatrix."""

    lam: float
    phi: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if phi.shape != z.shape or phi.ndim != 1:
            raise ValueError("phi and z must be matching 1-D arrays")
        resid = np.abs(mean_field_energy(z, phi, self.lam) - 1.0)
        if resid.max() > ENERGY_TOL:
            raise ValueError(f"separatrix point off the level set: residual {resid.max():.3e}")
        phi.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "z", z)


def mean_field_energy(z, phi, lam: float):
    """Classical junction energy per particle, lam z^2/2 - sqrt(1-z^2) cos(phi)."""
    z = np.asarray(z, dtype=float)
    return lam * z * z / 2.0 - np.sqrt(np.clip(1.0 - z * z, 0.0, None)) * np.cos(phi)


def _multipole_pass(n_particles: int, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """rho[..., k, q] = <psi|T_kq^dag|psi> for q = 0 ... N, zero where q > k.

    The states are the rows re + i*im (`...` leading axes, as in
    spin_core.band_moments); negative q follows from Hermiticity,
    rho_{k,-q} = (-1)^q conj(rho_kq).  The orthonormal tensor operators are
    streamed one azimuthal order at a time, q = N ... 0, holding two blocks:
    block q holds <m+q|T_kq|m> (real), columns k = q ... N.  On the space of
    fixed-q diagonals the adjoint-action Casimir sum_a [J_a,[J_a, .]] is
    symmetric tridiagonal with nondegenerate eigenvalues k(k+1), so each block
    is one backward-stable tridiagonal eigensolve (a naive commutator descent
    in q loses orthogonality like 2^N eps).  Signs follow the spherical
    convention: T_qq is (-1)^q times the positive (J+)^q direction, which
    makes <j j|T_k0|j j> > 0, and T_kq (k > q) has the sign of one exact
    lowering step [J-, T_{k,q+1}] from the block before.
    """
    n = _validate_even_n(n_particles)
    dim = n + 1
    # g[i + 1] = <m_i+1|J+|m_i>, zero outside i = 0 ... N-1
    g = np.concatenate([[0.0], raising_coefficients(n), [0.0]])
    g2 = g * g
    rho = np.zeros(re.shape[:-1] + (dim, dim), dtype=complex)
    upper = None  # block q+1, signs fixed
    for q in range(n, -1, -1):
        size = dim - q
        diag = q * q + 0.5 * (g2[q + 1 :] + g2[:size] + g2[q:dim] + g2[1 : size + 1])
        f_lo, f_hi = g[1:size], g[q + 1 : dim]
        try:
            w, v = scipy.linalg.eigh_tridiagonal(diag, -f_lo * f_hi)
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover
            raise RuntimeError(f"tensor block q={q} failed to diagonalize for N={n}") from exc
        expected = np.arange(q, dim) * np.arange(q + 1.0, dim + 1)
        drift = np.abs(w - expected).max() / max(1.0, expected[-1])
        if drift > TENSOR_NORM_TOL:
            raise RuntimeError(
                f"tensor spectrum drift {drift:.3e} for N={n}, q={q}: construction unstable"
            )
        if (-1) ** q * v[:, 0].sum() < 0:
            v[:, 0] *= -1.0
        if upper is not None:
            # <[J-, T_{k,q+1}], T_kq> for k = q+1 ... N, from the q+1 diagonal
            overlap = np.einsum("j,jk,jk->k", f_hi, upper, v[:-1, 1:]) - np.einsum(
                "j,jk,jk->k", f_lo, upper, v[1:, 1:]
            )
            v[:, 1:] *= np.where(overlap > 0, 1.0, -1.0)
        # x_m = conj(c_m) c_{m+q}, real and imaginary parts in one product
        x = np.stack([
            re[..., :size] * re[..., q:] + im[..., :size] * im[..., q:],
            re[..., :size] * im[..., q:] - im[..., :size] * re[..., q:],
        ])
        x_re, x_im = x @ v
        rho[..., q:, q] = x_re + 1j * x_im
        upper = v
    return rho


def density_multipoles(psi: StateVector) -> dict[tuple[int, int], complex]:
    """Multipole coefficients rho_kq = <psi|T_kq^dag|psi> of the pure state.

    Hermiticity gives rho_{k,-q} = (-1)^q conj(rho_kq) from the q >= 0
    array, and purity makes sum |rho_kq|^2 = 1; both are exercised by the
    tests.
    """
    n = psi.n_particles
    rho = _multipole_pass(n, psi.amplitudes.real, psi.amplitudes.imag)
    return {(k, q): complex(rho[k, q] if q >= 0 else (-1) ** q * np.conj(rho[k, -q]))
            for k in range(n + 1) for q in range(-k, k + 1)}


def _sphere_grid(rho: np.ndarray, re: np.ndarray, im: np.ndarray) -> SphereGrid:
    """wigner's summation, from the q >= 0 multipoles rho[k, q] of the state re + i*im.

    The grid is max(181, 2N+3) x max(361, 4N+5), a fixed function of N
    that resolves the band limit k <= N (2(N+1) samples) both ways.  With
    the theta profiles P_q(theta) = sum_k rho_kq Y_kq(theta, 0) and
    P_{-q} = conj(P_q), each theta row is one real inverse FFT over the
    uniform phi grid, which starts at phi = -pi.  The FFT keeps only Re P_0,
    so the realness check is made on its source: T_k0 is Hermitian, and
    Im rho_k0 must vanish.

    Profiles are summed only for theta <= pi/2 (n_theta is odd, so the
    equator is row n_theta // 2).  The exchange m -> -m reflects the sphere,
    (theta, phi) -> (pi - theta, -phi), and on this phi grid -phi_j is
    phi at index -j mod n_phi.  So a state whose amplitudes are an exact
    palindrome, c_m == c_{-m} (every snapshot that spin_core._from_even
    mirrors from the even block), takes row n_theta-1-i as row i read at
    index -j mod n_phi.  Any other state takes its southern rows from the
    same Legendre table with multipoles (-1)^(k+q) rho_kq, since
    Y_kq(pi - theta, 0) = (-1)^(k+q) Y_kq(theta, 0).
    """
    n = rho.shape[-1] - 1
    n_theta, n_phi = max(181, 2 * n + 3), max(361, 4 * n + 5)
    residue = np.abs(rho[:, 0].imag).max()
    if residue > IMAG_RESIDUE_TOL:
        raise RuntimeError(f"Wigner values not real: imaginary residue {residue:.3e}")

    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(-np.pi, np.pi, n_phi, endpoint=False)
    even = np.array_equal(re, re[::-1]) and np.array_equal(im, im[::-1])
    # e^{i q phi_j} = (-1)^q e^{2 pi i q j / n_phi} on this grid
    k, q = np.ogrid[: n + 1, : n + 1]
    shifted = rho * (-1.0) ** q
    # north, then (unless mirrored) south multipoles
    coef = shifted[None] if even else np.stack([shifted, shifted * (-1.0) ** (k + q)])
    w = np.empty((n_theta, n_phi))
    north = n_theta // 2 + 1
    # the Legendre table costs (N+1)(2N+1) doubles per theta; at most TABLE_DOUBLES at once
    step = max(1, TABLE_DOUBLES // ((n + 1) * (2 * n + 1)))
    for start in range(0, north, step):
        sl = slice(start, min(start + step, north))
        table = sph_legendre_p_all(n, n, thetas[sl])[0][:, : n + 1]  # (k, q >= 0, theta)
        prof = np.einsum("kqt,skq->stq", table, coef.real) + 1j * np.einsum(
            "kqt,skq->stq", table, coef.imag
        )
        rows = np.fft.irfft(prof, n=n_phi, axis=-1)
        if not even:
            w[::-1][sl] = rows[1]
        w[sl] = rows[0]  # after the south rows: the equator is its own mirror
    if even:
        w[north:] = w[north - 2 :: -1, (-np.arange(n_phi)) % n_phi]
    # n_phi undoes irfft's 1/n_phi; the k = 0 multipole alone carries the trace,
    # which gives the unit solid-angle integral
    return SphereGrid(thetas, phis, w * (n_phi * np.sqrt((n + 1) / (4.0 * np.pi))))


def wigner(psi: StateVector) -> SphereGrid:
    """Wigner distribution W = sum_kq rho_kq Y_kq, integral-normalized.

    On _sphere_grid's grid: 181 x 361 up to N = 60, growing with N beyond.
    """
    re, im = psi.amplitudes.real, psi.amplitudes.imag
    return _sphere_grid(_multipole_pass(psi.n_particles, re, im), re, im)


def _separatrix_z(phi: np.ndarray, lam: float) -> np.ndarray:
    """Smallest level-set root z >= 0 at each phi, NaN where there is none."""
    c = np.cos(phi)
    disc = c * c * ((lam - 1.0) ** 2 - np.sin(phi) ** 2)
    # negative disc clamps to a double root; where no real root exists,
    # the energy filter below rejects that candidate
    root = np.sqrt(np.where(disc < 0.0, 0.0, disc))
    base = 2.0 / lam**2
    z = np.full(phi.shape, np.nan)
    for u in (base * ((lam - c * c) - root), base * ((lam - c * c) + root)):
        zu = np.sqrt(np.clip(u, 0.0, 1.0))
        valid = (
            (u >= -1e-12)
            & (u <= 1.0 + 1e-12)
            & (np.abs(mean_field_energy(zu, phi, lam) - 1.0) <= ROOT_RESIDUAL_TOL)
        )
        z = np.fmin(z, np.where(valid, zu, np.nan))
    return z


def separatrix(lam: float, n_points: int = 721) -> SeparatrixCurve:
    """Separatrix through (pi, 0), uniformly sampled in phi over its domain.

    For lam >= 2 the curve spans all phi (at lam = 2 it touches the poles);
    for 1 < lam < 2 it exists only beyond the tangency angle where
    cos^2(phi) = lam (2 - lam).  Only the branch through the fixed point is
    returned (z >= 0 here; the mirror is -z).
    """
    if lam <= 1.0:
        raise ValueError(f"no separatrix through (pi, 0) for lam <= 1, got {lam}")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    if lam < 2.0:
        phi_lo = np.arccos(-np.sqrt(lam * (2.0 - lam)))
    elif lam == 2.0:
        phi_lo = np.pi / 2.0
    else:
        phi_lo = 0.0

    phi_pos = np.linspace(phi_lo, np.pi, n_points)
    z_pos = _separatrix_z(phi_pos, lam)
    keep = ~np.isnan(z_pos)
    phi_pos, z_pos = phi_pos[keep], z_pos[keep]
    z_pos[-1] = 0.0  # the defining fixed point (pi, 0), exact

    # mirror into negative phi; drop the duplicate at phi = 0 when present
    start = 1 if phi_pos[0] == 0.0 else 0
    phi_all = np.concatenate([-phi_pos[::-1], phi_pos[start:]])
    z_all = np.concatenate([z_pos[::-1], z_pos[start:]])
    return SeparatrixCurve(lam=lam, phi=phi_all, z=z_all)
