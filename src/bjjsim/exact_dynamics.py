"""Exact diagonalization of the two-mode Hamiltonian and spectral time evolution.

This is the ground-truth path against which every analytic result in the
package is measured.  The Hamiltonian chi*Jz^2 - omega*Jx is real symmetric
tridiagonal in the Dicke basis, so the full spectrum costs O(N^2).  It
also commutes with the mode exchange m -> -m, so trajectories, the
minimum search and the Wigner snapshots propagate in its even and odd
blocks (parity_spectrum), and only in those the initial state occupies:
the equatorial coherent states are even, which takes one solve, one
propagation and one moment reduction of size N/2+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .spin_core import (
    FIRST_MOMENT_TOL,
    BandMoments,
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

#: Doubles of propagated Dicke amplitudes (real and imaginary parts) per
#: block of times, 8 MiB: the products with U take PROPAGATION_DOUBLES //
#: (2 (N+1)) times at once, one time at least, which in one parity block
#: holds about half as much.  Smaller blocks would cost the products time
#: (a slice of 8 times instead of 524 in one product takes 3.3x as long at
#: N = 4000) and change their bits.
PROPAGATION_DOUBLES = 2**20

#: Doubles of one slice of rows (times) in the kernel's elementwise
#: stages, 256 KiB: the phases, their combination with c and the moment
#: reduction run a slice at a time, so that a slice and its temporaries
#: stay in cache.  Each stage works row by row, so the slicing moves no
#: bits.  Temporaries this small come from the heap, which keeps the
#: pages they free: an N = 60 `evolve` at MAX_STEPS peaks about 5 MB
#: (3%) higher than with 2**17, a trade taken for N = 200 sweep jobs
#: about 7% faster.
SLICE_DOUBLES = 2**15

#: Norm at or below which psi0's part in a parity block counts as empty,
#: so that block is neither solved nor propagated, and the one block left
#: is reduced in its own coordinates (band_moments), where <Jy> and <Jz>
#: are exactly 0.  Dropping a part o changes no check's verdict and no
#: reported value beyond roundoff: <Jy> and <Jz>, odd under m -> -m, would
#: be at most 2 |<e|J|o>| <= N |o| with o kept, a thousandth of the
#: first-moment limit FIRST_MOMENT_TOL * N; the norm moves by
#: |o|^2 <= 1e-22, far inside NORM_TOL; and the even moments (norm, <Jx>,
#: gzz, gyy, gyz) move by <o|A|o> <= |A| |o|^2 <= N |o|^2, at most 4e-19
#: at N = 4000, below one ulp of a value of size 1.  Roundoff alone leaves
#: |o| = 5.5e-14 in coherent_state(1000, pi/2, pi) and 2.6e-13 at
#: N = 4000, 38x below.
EMPTY_SECTOR_NORM = 1e-3 * FIRST_MOMENT_TOL

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition: ascending eigenvalues and orthonormal columns.

    Either of the whole H in the Dicke basis (band_spectrum, one solve of
    size N+1: only the short-time fit samples) or of one block of H under
    m -> -m in that block's coordinates (parity_spectrum, size N/2+1 or
    N/2: trajectory, zeta2_of_time and the Wigner snapshots); both feed
    the propagation kernel _witness_kernel, and dim is the size of the
    matrix solved.  The two routes agree to roundoff, but the fit
    amplifies that roundoff in p4 beyond the tolerance its stored outputs
    are checked at, so it keeps the full solve.
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


def _spectrum(n_particles: int, diag: np.ndarray, off: np.ndarray) -> Spectrum:
    """Spectrum of the real symmetric tridiagonal matrix with these bands."""
    try:
        return Spectrum(n_particles, *scipy.linalg.eigh_tridiagonal(diag, off))
    except scipy.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed to converge for N={n_particles}: {exc}") from exc


def eigendecompose(op: CollectiveOperator) -> Spectrum:
    """Full spectrum of a real symmetric tridiagonal operator (the structure of H), in O(N^2)."""
    mat = op.matrix
    if not (op.is_tridiagonal and np.abs(mat.imag).max() == 0.0):
        raise ValueError("eigendecompose takes a real symmetric tridiagonal operator")
    return _spectrum(op.n_particles, mat.diagonal().real.copy(), mat.diagonal(1).real.copy())


def band_spectrum(params: ModelParams) -> Spectrum:
    """Spectrum of H from its bands in one (N+1)-point solve, without the dense matrix.

    Bit for bit equal to eigendecompose(hamiltonian(params)).  Only the
    samples of the short-time fit use it (the kernel, fed this spectrum by
    cli._fit_in_omega_time); every other run path propagates in the parity
    sectors.  Against dense per-time samples, the fitted p4 moves by at most
    8.3e-9 relative on this spectrum; the parity sectors would move it by
    up to 6.1e-8 relative at N = 200, 3.5e-8 at N = 1000 and 9.1e-8 at
    N = 4000, past the 1e-8 at which stored fit outputs are compared.
    """
    return _spectrum(params.n_particles, *hamiltonian_bands(params))


def parity_spectrum(params: ModelParams, parity: int) -> Spectrum:
    """Spectrum of the block of H with exchange parity +1 (even) or -1 (odd).

    H commutes with the mode exchange m -> -m, so in the basis |0>,
    (|m> +- |-m>)/sqrt(2), m = 1 ... N/2, it splits into an even
    tridiagonal block of size N/2+1 (its first off-diagonal entry scaled by
    sqrt(2)) and an odd one of size N/2.  The spectrum is in the block's own
    coordinates (_parity_coords); _from_parity maps its columns back to the
    Dicke basis, each exactly even or odd in m.  The two blocks' eigenvalues
    together are band_spectrum's to roundoff.  The propagation kernel solves
    only the blocks the initial state occupies, one for the equatorial
    coherent states.
    """
    if parity not in (1, -1):
        raise ValueError(f"parity must be +1 or -1, got {parity}")
    n = params.n_particles
    j = n // 2
    diag, off = hamiltonian_bands(params)
    if parity == -1:
        return _spectrum(n, diag[j + 1 :], off[j + 1 :])
    even_off = off[j:].copy()
    even_off[0] *= _SQRT2
    return _spectrum(n, diag[j:], even_off)


def _parity_coords(amp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd block coordinates of Dicke amplitudes (along the last axis).

    With j = N/2 and i = 1 ... j: even = (psi_j, (psi_{j+i} + psi_{j-i})/sqrt(2)),
    odd = (psi_{j+i} - psi_{j-i})/sqrt(2); the bases of parity_spectrum.
    """
    j = amp.shape[-1] // 2
    up, down = amp[..., j + 1 :], amp[..., j - 1 :: -1]
    even = np.concatenate((amp[..., j : j + 1], (up + down) / _SQRT2), axis=-1)
    return even, (up - down) / _SQRT2


def _from_parity(even: np.ndarray, odd: np.ndarray | None = None) -> np.ndarray:
    """Dicke amplitudes (along the last axis) from even and odd block coordinates.

    The inverse of _parity_coords.  Without an odd part the amplitudes are
    bitwise even in m, and with a zero even part bitwise odd.
    """
    if odd is None:
        up = down = even[..., 1:] / _SQRT2
    else:
        up, down = (even[..., 1:] + odd) / _SQRT2, (even[..., 1:] - odd) / _SQRT2
    return np.concatenate((down[..., ::-1], even[..., :1], up), axis=-1)


def _parity_sectors(params: ModelParams, psi0: StateVector):
    """The parity blocks psi0 occupies, and the map of their amplitudes to the Dicke basis.

    Each block is (parity, eigenvalues, block eigenvectors, coordinates of
    psi0); a block where psi0 has norm at most EMPTY_SECTOR_NORM is left
    out unsolved.  The map takes the blocks' amplitudes in the same order.
    """
    even, odd = _parity_coords(psi0.amplitudes)

    def block(parity, coords):
        spec = parity_spectrum(params, parity)
        return parity, spec.eigenvalues, spec.eigenvectors, coords

    if np.linalg.norm(odd) <= EMPTY_SECTOR_NORM:
        return [block(1, even)], lambda parts: _from_parity(parts[0])
    if np.linalg.norm(even) <= EMPTY_SECTOR_NORM:
        zeros = lambda odd_part: np.zeros(odd_part.shape[:-1] + even.shape)
        return [block(-1, odd)], lambda parts: _from_parity(zeros(parts[0]), parts[0])
    return [block(1, even), block(-1, odd)], lambda parts: _from_parity(*parts)


def evolve(spec: Spectrum, psi0: StateVector, t: float) -> StateVector:
    """Spectral propagation |psi(t)> = sum_k e^{-i E_k t} <v_k|psi0> |v_k>."""
    if spec.dim != psi0.dim:
        raise ValueError(f"dimension mismatch: spectrum dim={spec.dim}, state dim={psi0.dim}")
    coeffs = spec.eigenvectors.conj().T @ psi0.amplitudes
    amp = spec.eigenvectors @ (np.exp(-1j * spec.eigenvalues * t) * coeffs)
    return StateVector(psi0.n_particles, amp)


def _witness_kernel(source: Spectrum | ModelParams, psi0: StateVector):
    """Propagation kernel of one (H, psi0): a 1-D array of times -> one record of arrays.

    The one propagator.  It works sector by sector, a sector being a block
    of H with its spectrum and psi0's coordinates in that block.  Given a
    Spectrum of the whole H (band_spectrum; only the short-time fit,
    cli._fit_in_omega_time), there is one sector, the Dicke basis itself.
    Given the ModelParams (trajectory; zeta2_of_time, which sends the
    minimum search's whole grid in one call and its refinement one time
    per call; the Wigner snapshots of cli.run_wigner), the sectors are the
    even and odd blocks under m -> -m (parity_spectrum), and only those
    psi0 occupies beyond EMPTY_SECTOR_NORM are solved: one solve of size
    N/2+1 for the equatorial coherent states.  The times may come in any
    order; each call is one pass through them.  In each sector c = U^T p
    is formed once; every block of at most PROPAGATION_DOUBLES doubles of
    Dicke amplitudes is propagated as two real matrix products
    U Re(e^{-iwt} c) and U Im(e^{-iwt} c).  records.states(times) yields
    those blocks, (times, Re psi, Im psi) with one state per row, the
    parity sectors mirrored back into the Dicke basis (_from_parity).
    records(times) reduces them to moments by O(N) band arithmetic per
    time (spin_core.band_moments): in the sector's own coordinates when
    there is one sector, so one parity block is never mirrored, and in
    the Dicke basis when both blocks are held.  Then, over all times at
    once, it runs the norm check, the first-moment check and one
    make_record call; each check fails with the dense reference's
    ValueError (evolve, covariance_yz, make_record) at the earliest time
    that fails it.  The phases, their combination with c and the
    reduction run over slices of rows of at most SLICE_DOUBLES doubles,
    which move no bits: every one of these stages works row by row.
    """
    n = psi0.n_particles
    if isinstance(source, Spectrum):
        if source.dim != psi0.dim:
            raise ValueError(f"dimension mismatch: spectrum dim={source.dim}, state dim={psi0.dim}")
        sectors = [(None, source.eigenvalues, source.eigenvectors, psi0.amplitudes)]
        embed = lambda parts: parts[0]
    else:
        if source.n_particles != n:
            raise ValueError(
                f"dimension mismatch: model dim={source.n_particles + 1}, state dim={psi0.dim}"
            )
        sectors, embed = _parity_sectors(source, psi0)
    sectors = [(parity, w, u, p.real @ u, p.imag @ u) for parity, w, u, p in sectors]
    chunk = max(1, PROPAGATION_DOUBLES // (2 * psi0.dim))

    def slices(size: int, width: int):
        # one slice at least, so that no times reduce to empty moments
        step = max(1, SLICE_DOUBLES // (2 * width))
        return [slice(start, start + step) for start in range(0, max(size, 1), step)]

    def propagate(times: np.ndarray):
        """Blocks (times, [(Re psi, Im psi) in each sector's coordinates])."""
        for start in range(0, max(times.size, 1), chunk):
            ts = times[start : start + chunk]
            parts = []
            # rows are states: psi(t) = (e^{-iwt} * c) U^T in each sector
            for _, energies, u, c_re, c_im in sectors:
                a_re, a_im = np.empty((2, ts.size, energies.size))
                for rows in slices(ts.size, energies.size):
                    phase = np.outer(ts[rows], energies)
                    cos, sin = np.cos(phase), np.sin(phase)
                    a_re[rows] = cos * c_re + sin * c_im
                    a_im[rows] = cos * c_im - sin * c_re
                parts.append((a_re @ u.T, a_im @ u.T))
            yield ts, parts

    def states(times: np.ndarray):
        for ts, parts in propagate(times):
            yield ts, embed([re for re, _ in parts]), embed([im for _, im in parts])

    def records(times: np.ndarray) -> WitnessRecord:
        if len(sectors) == 1:
            parity = sectors[0][0]
            blocks = ((ts, *parts[0]) for ts, parts in propagate(times))
        else:
            parity, blocks = None, states(times)
        # the module's band_moments at call time
        moments = [band_moments(n, re[rows], im[rows], parity)
                   for _, re, im in blocks for rows in slices(len(re), re.shape[-1])]
        mom = BandMoments(*(np.concatenate(column) for column in zip(*moments)))
        check_normalized(mom.norm)
        check_first_moments(mom.jy, mom.jz, n)
        return make_record(times, mom.jx, CovarianceYZ(mom.gzz, mom.gyy, mom.gyz), n)

    records.states = states
    return records


def trajectory(params: ModelParams, psi0: StateVector, times) -> WitnessRecord:
    """Witnesses along an exactly propagated trajectory: one record of arrays over times.

    The time grid is caller-supplied; spectral propagation is exact at any t,
    so no internal stepping is needed.  All times go through one call of the
    batched propagation kernel (see _witness_kernel) in the parity sectors
    psi0 occupies, and rec.zeta2_opt[i] is the witness at times[i].
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
    return _witness_kernel(params, psi0)(times)


def zeta2_of_time(params: ModelParams, psi0: StateVector):
    """Callable t -> optimized QFI witness along the exact trajectory, elementwise.

    Like a ufunc: a float time gives a float, an array of times an array
    of zeta^2 of the same shape, in any order.  The propagation kernel is
    built once in the parity sectors psi0 occupies (one half-size
    diagonalization for an equatorial state, c = U^T p formed once), and
    each call is one kernel call with all its times, whose record's
    zeta2_opt it returns, reshaped.  minimize_zeta2 sends its whole grid in
    one call and its refinement one time per call.
    """
    kernel = _witness_kernel(params, psi0)

    def zeta2(t):
        ts = np.asarray(t, dtype=float)
        z = kernel(ts.ravel()).zeta2_opt
        return float(z[0]) if ts.ndim == 0 else z.reshape(ts.shape)

    return zeta2
