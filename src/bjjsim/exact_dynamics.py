"""Exact diagonalization of the two-mode Hamiltonian and spectral time evolution.

This is the ground-truth path against which every analytic result in the
package is measured.  The Hamiltonian chi*Jz^2 - omega*Jx is real symmetric
tridiagonal in the Dicke basis, so the full spectrum costs O(N^2); it
also commutes with the mode exchange m -> -m, which halves that cost for
trajectories and the minimum search (parity_spectrum).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .spin_core import (
    CollectiveOperator,
    CovarianceYZ,
    ModelParams,
    StateVector,
    band_moments,
    check_first_moments,
    check_normalized,
    m_values,
    raising_coefficients,
)
from .witnesses import WitnessRecord, make_record

#: Doubles of propagated amplitudes (real and imaginary parts) that
#: trajectory holds at once, 8 MiB; times go through in blocks of at most
#: this size, one time at least.  The band reduction of a block takes a
#: few times as much in temporaries.
PROPAGATION_DOUBLES = 2**20


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition: ascending eigenvalues and orthonormal columns.

    The propagation kernel (_witness_kernel) runs on whichever of the two
    spectra of H its caller passes.  parity_spectrum (two half-size solves)
    serves trajectory and zeta2_of_time; band_spectrum (one solve of the
    whole tridiagonal H) serves the short-time fit samples and the Wigner
    snapshots.  The two agree to roundoff, but the fit amplifies that
    roundoff in p4 beyond the tolerance its stored outputs are checked at.
    """

    n_particles: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        v = np.asarray(self.eigenvectors)
        if w.ndim != 1 or v.shape != (w.size, w.size):
            raise ValueError("eigenvalues and eigenvectors have inconsistent shapes")
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def hamiltonian_bands(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal chi*m^2 and off-diagonal -omega*f/2 of H in the Dicke basis."""
    n = params.n_particles
    m = m_values(n)
    diag = params.chi * m * m
    if params.omega == 0.0:
        return diag, np.zeros(n)
    return diag, -params.omega * raising_coefficients(n) / 2.0


def hamiltonian(params: ModelParams) -> CollectiveOperator:
    """H = chi*Jz^2 - omega*Jx in units hbar = 1; real symmetric tridiagonal."""
    diag, off = hamiltonian_bands(params)
    dim = diag.size
    mat = np.zeros((dim, dim), dtype=complex)
    np.fill_diagonal(mat, diag)
    mat[np.arange(1, dim), np.arange(dim - 1)] = off
    mat[np.arange(dim - 1), np.arange(1, dim)] = off
    return CollectiveOperator(params.n_particles, mat, is_tridiagonal=True)


def _eigensolve(n_particles: int, solver, *args) -> tuple[np.ndarray, np.ndarray]:
    try:
        return solver(*args)
    except scipy.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigendecomposition failed to converge for N={n_particles}: {exc}"
        ) from exc


def _spectrum(n_particles: int, solver, *args) -> Spectrum:
    return Spectrum(n_particles, *_eigensolve(n_particles, solver, *args))


def eigendecompose(op: CollectiveOperator) -> Spectrum:
    """Full spectrum of a collective operator.

    Real symmetric tridiagonal matrices (the Hamiltonian structure) go through
    the O(N^2) tridiagonal solver; anything else falls back to a dense
    Hermitian solve.
    """
    mat = op.matrix
    if op.is_tridiagonal and np.abs(mat.imag).max() == 0.0:
        d = mat.diagonal().real.copy()
        e = mat.diagonal(1).real.copy()
        return _spectrum(op.n_particles, scipy.linalg.eigh_tridiagonal, d, e)
    return _spectrum(op.n_particles, scipy.linalg.eigh, mat)


def band_spectrum(params: ModelParams) -> Spectrum:
    """Spectrum of H from its bands in one (N+1)-point solve, without the dense matrix.

    Bit for bit equal to eigendecompose(hamiltonian(params)).  The samples
    of the short-time fit (the kernel, fed this spectrum by
    cli._fit_in_omega_time) and the Wigner snapshots (cli.run_wigner) use
    it.  Against dense per-time samples, the fitted p4 moves by under 1e-8
    relative on this spectrum but by up to about 5e-8 on parity_spectrum,
    and stored fit outputs are compared at 1e-8.
    """
    return _spectrum(params.n_particles, scipy.linalg.eigh_tridiagonal, *hamiltonian_bands(params))


def parity_spectrum(params: ModelParams) -> Spectrum:
    """Spectrum of H from its two blocks under the mode exchange m -> -m.

    H commutes with m -> -m, so in the basis |0>, (|m> +- |-m>)/sqrt(2),
    m = 1 ... N/2, it splits into an even tridiagonal block of size N/2+1
    (its first off-diagonal entry scaled by sqrt(2)) and an odd one of size
    N/2.  Two half-size solves cost about half of band_spectrum's one.  The
    block eigenvectors are expanded back to the Dicke basis, each column
    bitwise even or odd in m, and placed by a stable sort of the merged
    eigenvalues, so the result is a Spectrum like any other: ascending
    eigenvalues, orthonormal columns.  It equals band_spectrum's to
    roundoff; degenerate levels (omega = 0) get parity-adapted columns.
    trajectory and zeta2_of_time feed it to the propagation kernel, whose
    large-N diagonalization it halves; the short-time fit keeps
    band_spectrum (see there).
    """
    n = params.n_particles
    j = n // 2
    diag, off = hamiltonian_bands(params)
    even_off = off[j:].copy()
    even_off[0] *= np.sqrt(2.0)
    w_even, u_even = _eigensolve(n, scipy.linalg.eigh_tridiagonal, diag[j:], even_off)
    w_odd, u_odd = _eigensolve(n, scipy.linalg.eigh_tridiagonal, diag[j + 1 :], off[j + 1 :])
    energies = np.concatenate((w_even, w_odd))
    order = np.argsort(energies, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    even, odd = rank[: j + 1], rank[j + 1 :]
    # row k of vecs_t is eigenvector k, so each expanded vector is written
    # as one row (about 3x faster than scattered columns at N = 1000); the
    # block vectors are scaled in place to keep the peak at V plus blocks
    vecs_t = np.empty((n + 1, n + 1))
    u_even[1:] /= np.sqrt(2.0)
    u_odd /= np.sqrt(2.0)
    vecs_t[even, j] = u_even[0]
    vecs_t[even, j + 1 :] = u_even[1:].T
    vecs_t[even, j - 1 :: -1] = u_even[1:].T
    vecs_t[odd, j] = 0.0
    vecs_t[odd, j + 1 :] = u_odd.T
    u_odd *= -1.0
    vecs_t[odd, j - 1 :: -1] = u_odd.T
    return Spectrum(n, energies[order], vecs_t.T)


def evolve(spec: Spectrum, psi0: StateVector, t: float) -> StateVector:
    """Spectral propagation |psi(t)> = sum_k e^{-i E_k t} <v_k|psi0> |v_k>."""
    if spec.dim != psi0.dim:
        raise ValueError(f"dimension mismatch: spectrum dim={spec.dim}, state dim={psi0.dim}")
    coeffs = spec.eigenvectors.conj().T @ psi0.amplitudes
    amp = spec.eigenvectors @ (np.exp(-1j * spec.eigenvalues * t) * coeffs)
    return StateVector(psi0.n_particles, amp)


def _witness_kernel(spec: Spectrum, psi0: StateVector):
    """Propagation kernel of one (spectrum, psi0): ascending times -> records.

    The one witness propagator.  c = V^T psi0 is formed once.  Every block
    of at most PROPAGATION_DOUBLES doubles of amplitudes is propagated as
    two real matrix products V Re(e^{-iEt} c) and V Im(e^{-iEt} c), and the
    moments are O(N) band reductions per time (spin_core.band_moments).
    Each time passes the checks of the dense reference (evolve,
    covariance_yz, make_record) and fails with the same ValueError.
    trajectory (the evolve and oat-compare tables) and zeta2_of_time (the
    minimum search) pass it parity_spectrum; the short-time fit
    (cli._fit_in_omega_time) passes band_spectrum, see Spectrum for why.
    """
    n = spec.n_particles
    if spec.dim != psi0.dim:
        raise ValueError(f"dimension mismatch: spectrum dim={spec.dim}, state dim={psi0.dim}")
    v, energies = spec.eigenvectors, spec.eigenvalues
    c_re = psi0.amplitudes.real @ v
    c_im = psi0.amplitudes.imag @ v
    chunk = max(1, PROPAGATION_DOUBLES // (2 * spec.dim))

    def records(times: np.ndarray) -> list[WitnessRecord]:
        out = []
        for start in range(0, times.size, chunk):
            ts = times[start : start + chunk]
            phase = np.outer(ts, energies)
            cos, sin = np.cos(phase), np.sin(phase)
            # rows are states: psi(t) = (e^{-iEt} * c) V^T
            mom = band_moments(n, (cos * c_re + sin * c_im) @ v.T, (cos * c_im - sin * c_re) @ v.T)
            for t, norm, jx, jy, jz, gzz, gyy, gyz in zip(ts.tolist(), *(x.tolist() for x in mom)):
                check_normalized(norm)
                check_first_moments(jy, jz, n)
                gamma = CovarianceYZ(gzz=gzz, gyy=gyy, gyz=gyz)
                out.append(make_record(t, jx, gamma, n))
        return out

    return records


def trajectory(params: ModelParams, psi0: StateVector, times) -> list[WitnessRecord]:
    """Witness records along an exactly propagated trajectory.

    The time grid is caller-supplied; spectral propagation is exact at any t,
    so no internal stepping is needed.  All times go through one batched
    propagation kernel (see _witness_kernel) on parity_spectrum.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if np.any(times < 0):
        raise ValueError("times must be nonnegative")
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be ascending")
    return _witness_kernel(parity_spectrum(params), psi0)(times)


def zeta2_of_time(params: ModelParams, psi0: StateVector):
    """Callable t -> optimized QFI witness along the exact trajectory.

    Used by minimum searches, one time per call; the propagation kernel is
    built once on parity_spectrum (one diagonalization, c = V^T psi0
    formed once) and each call is one single-time pass through it, with
    the kernel's per-time checks.
    """
    kernel = _witness_kernel(parity_spectrum(params), psi0)

    def zeta2(t: float) -> float:
        return kernel(np.array([t], dtype=float))[0].zeta2_opt

    return zeta2
