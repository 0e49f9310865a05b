"""Wigner quasi-probability on the Bloch sphere and mean-field separatrix.

The density matrix of the collective spin is projected onto orthonormal
irreducible tensor operators T_kq (k = 0 ... N); the Wigner function is the
spherical-harmonic resummation of those multipoles.  Negative regions signal
nonclassicality.  The separatrix is the classical level set through the
hyperbolic fixed point at (phi = pi, z = 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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

    def solid_angle_integral(self) -> float:
        """Trapezoid quadrature of W over the sphere; 1 up to grid resolution."""
        ph = np.append(self.phi_samples, self.phi_samples[0] + 2.0 * np.pi)
        val = np.concatenate([self.values, self.values[:, :1]], axis=1)
        inner = np.trapezoid(val, ph, axis=1)
        return float(np.trapezoid(inner * np.sin(self.theta_samples), self.theta_samples))


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

    @property
    def z_max(self) -> float:
        return float(self.z.max())


def mean_field_energy(z, phi, lam: float):
    """Classical junction energy per particle, lam z^2/2 - sqrt(1-z^2) cos(phi)."""
    z = np.asarray(z, dtype=float)
    return lam * z * z / 2.0 - np.sqrt(np.clip(1.0 - z * z, 0.0, None)) * np.cos(phi)


@lru_cache(maxsize=None)
def _tensor_components(n_particles: int) -> tuple[np.ndarray, ...]:
    """Orthonormal tensor operators for spin j = N/2, stacked per azimuthal order.

    blocks[q][:, k - q] holds <m+q|T_kq|m> (real) for q = 0 ... N, k = q ... N
    and the valid m range; T_{k,-q} = (-1)^q T_kq^dag gives negative q.  On the
    space of fixed-q diagonals, the adjoint-action Casimir sum_a [J_a,[J_a, .]]
    is symmetric tridiagonal with nondegenerate eigenvalues k(k+1), so each
    q-block is obtained from one backward-stable tridiagonal eigensolve (a
    naive commutator descent in q loses orthogonality like 2^N eps).  Signs
    follow the usual convention via single lowering steps from T_kk, whose
    entries are positive.
    """
    n = _validate_even_n(n_particles)
    dim = n + 1
    f = np.concatenate([raising_coefficients(n), [0.0]])  # f[i] = <m_i+1|J+|m_i>

    def f_at(idx):
        out = np.zeros_like(idx, dtype=float)
        ok = (idx >= 0) & (idx <= dim - 2)
        out[ok] = f[idx[ok]]
        return out

    # per q: eigen-decompose the Casimir block, columns are k = q..n
    blocks: list[np.ndarray] = []
    for q in range(n + 1):
        size = dim - q
        i = np.arange(size)
        diag = q * q + 0.5 * (
            f_at(i + q) ** 2 + f_at(i - 1) ** 2 + f_at(i + q - 1) ** 2 + f_at(i) ** 2
        )
        off = -f_at(i[:-1]) * f_at(i[:-1] + q)
        try:
            w, v = scipy.linalg.eigh_tridiagonal(diag, off)
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover
            raise RuntimeError(f"tensor block q={q} failed to diagonalize for N={n}") from exc
        expected = np.array([k * (k + 1.0) for k in range(q, n + 1)])
        drift = np.abs(w - expected).max() / max(1.0, expected.max())
        if drift > TENSOR_NORM_TOL:
            raise RuntimeError(
                f"tensor spectrum drift {drift:.3e} for N={n}, q={q}: construction unstable"
            )
        blocks.append(v)

    # highest components: (-1)^k times the positive (J+)^k direction (the
    # spherical convention, which makes <j j|T_k0|j j> > 0), with signs
    # propagated downward one exact lowering step at a time
    for k, v in enumerate(blocks):
        if (-1) ** k * v[:, 0].sum() < 0:
            v[:, 0] *= -1.0
    for q in range(n - 1, -1, -1):
        upper = blocks[q + 1]  # columns k = q+1 .. n, signs already fixed
        i = np.arange(dim - q)
        pad = np.zeros((1, upper.shape[1]))
        # [J-, T_{k,q+1}] restricted to the q diagonal
        lowered = (
            f_at(i + q)[:, None] * np.vstack([upper, pad])
            - f_at(i - 1)[:, None] * np.vstack([pad, upper])
        )
        v = blocks[q]
        v[:, 1:] *= np.where(np.einsum("ik,ik->k", lowered, v[:, 1:]) > 0, 1.0, -1.0)
    for v in blocks:
        v.setflags(write=False)
    return tuple(blocks)


def _multipole_array(psi: StateVector) -> np.ndarray:
    """rho_kq = <psi|T_kq^dag|psi> as an (N+1) x (2N+1) array, zero where |q| > k.

    Column q holds order q, negative q counted from the end (column -1 is
    q = -1), the layout of scipy's sph_legendre_p_all.  One matrix product
    per q against the stacked tensor columns; negative q follows from
    Hermiticity.
    """
    n = psi.n_particles
    dim = n + 1
    c = psi.amplitudes
    rho = np.zeros((n + 1, 2 * n + 1), dtype=complex)
    for q, block in enumerate(_tensor_components(n)):
        x = np.conj(c[: dim - q]) * c[q:]
        re, im = (block.T @ np.stack([x.real, x.imag], axis=1)).T
        rho[q:, q] = re + 1j * im
        if q:
            rho[q:, -q] = (-1) ** q * np.conj(rho[q:, q])
    return rho


def density_multipoles(psi: StateVector) -> dict[tuple[int, int], complex]:
    """Multipole coefficients rho_kq = <psi|T_kq^dag|psi> of the pure state.

    Hermiticity guarantees rho_{k,-q} = (-1)^q conj(rho_kq), and purity makes
    sum |rho_kq|^2 = 1; both are exercised by the tests.
    """
    rho = _multipole_array(psi)
    n = psi.n_particles
    return {(k, q): complex(rho[k, q]) for k in range(n + 1) for q in range(-k, k + 1)}


def wigner(psi: StateVector, n_theta: int | None = None, n_phi: int | None = None) -> SphereGrid:
    """Wigner distribution W = sum_kq rho_kq Y_kq, integral-normalized.

    The grid must resolve the band limit k <= N: at least 2(N+1) samples per
    direction.  Defaults give 181 x 361 up to N = 60 and scale up beyond.
    """
    n = psi.n_particles
    band = 2 * (n + 1)
    if n_theta is None:
        n_theta = max(181, band + 1)
    if n_phi is None:
        n_phi = max(361, 2 * band + 1)
    if n_theta < band or n_phi < band:
        raise ValueError(f"grid {n_theta}x{n_phi} under-resolves the band limit {band} for N={n}")

    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(-np.pi, np.pi, n_phi, endpoint=False)
    # azimuthal orders in the column layout of _multipole_array
    orders = np.concatenate([np.arange(n + 1), np.arange(-n, 0)])
    phase = np.exp(1j * np.outer(orders, phis))
    rho = _multipole_array(psi)
    w = np.empty((n_theta, n_phi), dtype=complex)
    # the Legendre table costs (N+1)(2N+1) doubles per theta; at most TABLE_DOUBLES at once
    step = max(1, TABLE_DOUBLES // rho.size)
    for start in range(0, n_theta, step):
        sl = slice(start, start + step)
        table = sph_legendre_p_all(n, n, thetas[sl])[0]  # (k, q, theta)
        # theta profiles: sum_k rho_kq Y_kq(theta, 0), one column per q
        prof = np.einsum("kqt,kq->tq", table, rho.real) + 1j * np.einsum("kqt,kq->tq", table, rho.imag)
        w[sl] = prof @ phase
    residue = np.abs(w.imag).max()
    if residue > IMAG_RESIDUE_TOL:
        raise RuntimeError(f"Wigner values not real: imaginary residue {residue:.3e}")
    # unit solid-angle integral: the k = 0 multipole alone carries the trace
    scale = np.sqrt((n + 1) / (4.0 * np.pi))
    return SphereGrid(thetas, phis, w.real * scale)


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
