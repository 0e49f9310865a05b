"""Exact diagonalization of the two-mode Hamiltonian and spectral time evolution.

This is the ground-truth path against which every analytic result in the
package is measured.  The Hamiltonian chi*Jz^2 - omega*Jx is real symmetric
tridiagonal in the Dicke basis, so the full spectrum costs O(N^2).  It
also commutes with the mode exchange m -> -m, and the equatorial coherent
states are even under it, so trajectories, the minimum search and the
Wigner snapshots of those states propagate in the even block alone, of
size N/2+1 on the bands of spin_core.ladder.  There they take every
eigenvalue but only the eigenvectors where the state lives: a certified
spectral window (_window), a short run of eigenvalue indices around its
energy, widened until the state's part outside it is at most WINDOW_TOL.
The short-time fit (which sets _witness_kernel's full) and a state with
an odd part take the full spectrum of H instead (band_spectrum).
"""

from __future__ import annotations

import math
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
    _from_even,
    _parity_coords,
    band_moments,
    check_first_moments,
    check_normalized,
    ladder,
)
from .witnesses import WitnessRecord, make_record

#: Doubles of propagated Dicke amplitudes (real and imaginary parts) per
#: block of times, 8 MiB: the products with U take PROPAGATION_DOUBLES //
#: (2 (N+1)) times at once, one time at least, which in the even block
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

#: Norm at or below which psi0's odd part under m -> -m counts as empty,
#: so the kernel solves and propagates the even block alone and reduces
#: in its coordinates (band_moments), where <Jy> and <Jz> are exactly 0;
#: above it, the kernel takes the full (N+1)-point solve of H
#: (band_spectrum) and works in the whole Dicke basis.  Dropping an odd
#: part o changes no check's verdict and no reported value beyond
#: roundoff: <Jy> and <Jz>, odd under m -> -m, would be at most
#: 2 |<e|J|o>| <= N |o| with o kept, a thousandth of the first-moment
#: limit FIRST_MOMENT_TOL * N; the norm moves by |o|^2 <= 1e-22, far
#: inside NORM_TOL; and the even moments (norm, <Jx>, gzz, gyy, gyz) move
#: by <o|A|o> <= |A| |o|^2 <= N |o|^2, at most 4e-19 at N = 4000, below
#: one ulp of a value of size 1.  Roundoff alone leaves |o| = 5.5e-14 in
#: coherent_state(1000, pi/2, pi) and 2.6e-13 at N = 4000, 38x below.
EMPTY_SECTOR_NORM = 1e-3 * FIRST_MOMENT_TOL

#: Relative norm |x - U U^T x| / |x| of psi0's part x outside the window's
#: eigenvectors U at or below which _window accepts the window.  The
#: certificate has a floor set by psi0 itself: coherent_state sums
#: log-gamma values of size up to log N!, which leaves its amplitudes off
#: by 7.0e-13 at N = 4000 (against 40-digit ones), spread over every
#: eigenvector.  So no window short of all indices certifies below about
#: 1.1e-13 at N = 1000 and 6.9e-13 at N = 4000 (measured, both states,
#: lam = 0.2 ... 10), while the exact amplitudes certify 8.4e-15 in the
#: same window.  1e-13 would grow every window at MAX_N to all indices;
#: 1e-12 stays 1.45x above the floor there.  The dropped tail moves the
#: norm by its square, 1e-24, far inside NORM_TOL, and the written
#: outputs by at most 4.1e-11 relative (floor 1) at N = 4000.
WINDOW_TOL = 1e-12

#: Half-width h of the first window, eigenvalue indices i0 - h ... i0 + h
#: around psi0's energy; each failed try widens it to ceil(1.5 h) and solves
#: only the added edges, so a narrow start costs extra stein calls, not
#: extra eigenvectors, while a wide one solves eigenvectors nobody needs.
#: 16 fits the narrowest windows measured (17-18 indices at lam < 1) in
#: one try; the zero state at lam > 1 takes 26 indices in two tries and
#: the pi state at lam > 1 73 (N = 1000) to 109 (N = 4000) in three or four.
WINDOW_START = 16


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition: ascending eigenvalues and orthonormal columns.

    Of the whole H in the Dicke basis (band_spectrum), which the
    propagation kernel takes for the short-time fit samples and for a
    state with an odd part (_witness_kernel), and of the dense references
    (eigendecompose).  Every other run path propagates in a certified
    window of H's even block under m -> -m instead (_window), which holds
    only some of the eigenvectors and is no Spectrum.
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


def hamiltonian_bands(params: ModelParams, even: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal chi*m^2 and off-diagonal -omega*f/2 of H on the bands (m, f) of spin_core.ladder.

    In the Dicke basis, or with even set in the even block under m -> -m.
    """
    m, f = ladder(params.n_particles, even)
    return params.chi * m * m, -params.omega * f / 2.0


def hamiltonian(params: ModelParams) -> CollectiveOperator:
    """H = chi*Jz^2 - omega*Jx in units hbar = 1; real symmetric tridiagonal."""
    diag, off = hamiltonian_bands(params)
    dim = diag.size
    mat = np.zeros((dim, dim), dtype=complex)
    np.fill_diagonal(mat, diag)
    mat[np.arange(1, dim), np.arange(dim - 1)] = off
    mat[np.arange(dim - 1), np.arange(1, dim)] = off
    return CollectiveOperator(params.n_particles, mat)


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
    """Spectrum of H from its bands, without the dense matrix.

    One (N+1)-point solve, bit for bit equal to
    eigendecompose(hamiltonian(params)): the sector of _witness_kernel
    with full set (the samples of the short-time fit, cli._protocol_fit;
    its docstring says why) or with a state that has an odd part, from
    which no command starts.
    """
    return _spectrum(params.n_particles, *hamiltonian_bands(params))


def _eigenvalues(n_particles: int, diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Every eigenvalue of the tridiagonal (diag, off), ascending, by LAPACK sterf.

    sterf is the Pal-Walker-Kahan root-free variant of the QL/QR iteration
    (no eigenvectors); it splits the matrix itself where an off-diagonal is
    negligible (every one of them at omega = 0) and sorts the eigenvalues
    of all the pieces.  Bisection (stebz) of a window's eigenvalues alone
    would skip the rest, but costs about 0.17 ms per eigenvalue at
    N/2+1 = 501 and 0.7 ms at 2001, against 4.3 and 72 ms for all of them
    by sterf (one BLAS thread): it would win only for windows under about
    25 indices at N = 1000 and 100 at N = 4000, not for the pi state's 73
    and 109, and pays off only at larger N.
    """
    w, info = scipy.linalg.lapack.dsterf(diag, off)
    if info:
        raise RuntimeError(f"eigenvalues failed to converge for N={n_particles}: "
                           f"LAPACK sterf info={info}")
    return w


def _eigenvectors(n_particles: int, diag: np.ndarray, off: np.ndarray, w_subset: np.ndarray) -> np.ndarray:
    """Eigenvectors of the ascending eigenvalues w_subset, one column each (LAPACK stein, inverse iteration).

    stein gets the matrix as one block: at omega > 0 no off-diagonal of H's
    bands vanishes, and at omega = 0, where all do, inverse iteration on
    the whole block still returns the unit vectors, up to roundoff.
    """
    iblock, isplit = np.ones(diag.size, dtype=np.int32), np.zeros(diag.size, dtype=np.int32)
    isplit[0] = diag.size
    z, info = scipy.linalg.lapack.dstein(diag, off, w_subset, iblock, isplit)
    if info:
        raise RuntimeError(f"eigenvectors failed to converge for N={n_particles}: "
                           f"LAPACK stein info={info}")
    return z


def _outside(x: np.ndarray, u: np.ndarray) -> float:
    """|x - U U^T x| / |x|: the relative norm of x outside the span of U's orthonormal columns."""
    xs = np.column_stack((x.real, x.imag))
    return float(np.linalg.norm(xs - u @ (u.T @ xs)) / np.linalg.norm(xs))


def _window(params: ModelParams, x: np.ndarray):
    """Certified spectral window of H's even block for x, in that block's coordinates.

    Returns (eigenvalues, eigenvectors U, certificate |x - U U^T x| / |x|)
    of a contiguous run of eigenvalue indices lo ... hi-1, ascending.
    Every eigenvalue comes from sterf (_eigenvalues), the eigenvectors
    from stein (_eigenvectors), each given the block whole at any omega,
    also at omega = 0, where every off-diagonal is zero and sterf splits
    the block into its rows itself.  The run starts at
    i0 +- WINDOW_START around the index i0 of x's energy <x|H|x>, taken
    from the bands in O(N), and widens by half its half-width per try
    until the certificate is at most WINDOW_TOL or the run holds every
    index, the full solve.  The windows of the equatorial states are
    short: at N = 1000 and 4000, 17 to 109 of the N/2+1 indices for
    lam <= 2; at lam = 10 the zero state takes 56 and the pi state 163
    (N = 1000) and 245 (N = 4000).

    Each try solves only the indices it adds.  stein (_eigenvectors)
    orthogonalizes close eigenvectors only within one call, so the new
    columns are projected off the old ones: near the separatrix the
    block's edges, solved apart, overlapped by up to 2.3e-13 (N = 4000,
    lam = 1.2; 2.5e-15 projected).  The block's levels stay apart: of
    each m, -m doublet of the Dicke basis, split by as little as roundoff
    above the separatrix, it holds one level, and at omega = 0 its levels
    are the distinct chi m^2.  So no new column is the near-twin of an
    old one, and the projection leaves each nearly its whole norm.
    """
    diag, off = hamiltonian_bands(params, even=True)
    w = _eigenvalues(params.n_particles, diag, off)
    n = w.size
    prob = x.real * x.real + x.imag * x.imag
    energy = (diag @ prob + 2.0 * off @ (x.real[:-1] * x.real[1:] + x.imag[:-1] * x.imag[1:])) / prob.sum()
    centre = int(np.searchsorted(w, energy))
    lo = hi = centre
    u, half = np.empty((n, 0)), WINDOW_START
    while True:
        new_lo, new_hi = max(0, centre - half), min(n, centre + half + 1)
        z = _eigenvectors(params.n_particles, diag, off, w[np.r_[new_lo:lo, hi:new_hi]])
        z -= u @ (u.T @ z)
        z /= np.linalg.norm(z, axis=0)
        u = np.hstack((z[:, : lo - new_lo], u, z[:, lo - new_lo :]))
        lo, hi = new_lo, new_hi
        certificate = _outside(x, u)
        if certificate <= WINDOW_TOL or hi - lo == n:
            return w[lo:hi], u, certificate
        half = math.ceil(1.5 * half)


def evolve(spec: Spectrum, psi0: StateVector, t: float) -> StateVector:
    """Spectral propagation |psi(t)> = sum_k e^{-i E_k t} <v_k|psi0> |v_k>."""
    if spec.eigenvalues.size != psi0.dim:
        raise ValueError(f"dimension mismatch: spectrum dim={spec.eigenvalues.size}, state dim={psi0.dim}")
    coeffs = spec.eigenvectors.conj().T @ psi0.amplitudes
    amp = spec.eigenvectors @ (np.exp(-1j * spec.eigenvalues * t) * coeffs)
    return StateVector(psi0.n_particles, amp)


def _slices(size: int, width: int) -> list[slice]:
    """Slices of size rows of this width, at most SLICE_DOUBLES doubles of real and imaginary parts each."""
    # one slice at least, so that no times reduce to empty moments
    step = max(1, SLICE_DOUBLES // (2 * width))
    return [slice(start, start + step) for start in range(0, max(size, 1), step)]


@dataclass(frozen=True, eq=False)
class _Kernel:
    """Propagation kernel of one (H, psi0) in one sector; _witness_kernel builds it.

    The sector's eigenvalues w (energies), k orthonormal eigenvectors U of
    the sector's size n (k = energies.size), and c = U^T p, psi0's
    coordinates p in the sector's basis taken onto them (c_re + i c_im),
    formed once.  even is true in the even block under m -> -m
    (n = N/2+1) and false in the Dicke basis (n = N+1); certificate is
    psi0's part outside U, |p - U U^T p| / |p|.  chunk is the number of
    times propagated per block, at most PROPAGATION_DOUBLES doubles of
    Dicke amplitudes, one at least.  The times may come in any order;
    each call of records or states is one pass through them.
    """

    n_particles: int
    energies: np.ndarray
    eigenvectors: np.ndarray
    c_re: np.ndarray
    c_im: np.ndarray
    even: bool
    certificate: float
    chunk: int

    def _propagate(self, times: np.ndarray):
        """Blocks (times, Re psi, Im psi) in the sector's coordinates, one state per row.

        Each block is two real matrix products U Re(e^{-iwt} c) and
        U Im(e^{-iwt} c); the phases and their combination with c run over
        slices of rows (_slices), which move no bits, since both work row
        by row.
        """
        w, u, c_re, c_im = self.energies, self.eigenvectors, self.c_re, self.c_im
        for start in range(0, max(times.size, 1), self.chunk):
            ts = times[start : start + self.chunk]
            # rows are states: psi(t) = (e^{-iwt} * c) U^T
            a_re, a_im = np.empty((2, ts.size, w.size))
            for rows in _slices(ts.size, w.size):
                phase = np.outer(ts[rows], w)
                cos, sin = np.cos(phase), np.sin(phase)
                a_re[rows] = cos * c_re + sin * c_im
                a_im[rows] = cos * c_im - sin * c_re
            yield ts, a_re @ u.T, a_im @ u.T

    def states(self, times: np.ndarray):
        """Blocks (times, Re psi, Im psi) in the Dicke basis, one state per row, each row's norm checked.

        The even block is mirrored back by spin_core._from_even.
        """
        for ts, re, im in self._propagate(times):
            if self.even:
                re, im = _from_even(re), _from_even(im)
            check_normalized(np.sqrt((re * re + im * im).sum(axis=-1)))
            yield ts, re, im

    def records(self, times: np.ndarray) -> WitnessRecord:
        """One record of arrays over a 1-D array of times.

        The propagated blocks reduce to moments by O(N) band arithmetic per
        time in the sector's own coordinates (spin_core.band_moments), so
        the even block is never mirrored, over the same slices of rows as
        the propagation.  Then, over all times at once, come the norm
        check, the first-moment check and one make_record call; each check
        fails with the dense reference's ValueError (evolve,
        covariance_yz, make_record) at the earliest time that fails it.
        """
        n = self.n_particles
        # the module's band_moments at call time
        moments = [band_moments(n, re[rows], im[rows], self.even)
                   for _, re, im in self._propagate(times) for rows in _slices(len(re), re.shape[-1])]
        mom = BandMoments(*(np.concatenate(column) for column in zip(*moments)))
        check_normalized(mom.norm)
        check_first_moments(mom.jy, mom.jz, n)
        return make_record(times, mom.jx, CovarianceYZ(mom.gzz, mom.gyy, mom.gyz), n)


def _witness_kernel(params: ModelParams, psi0: StateVector, full: bool = False) -> _Kernel:
    """The one propagator of (H, psi0), in the one sector chosen here.

    When full is false and psi0's odd part under m -> -m is at most
    EMPTY_SECTOR_NORM, as for the equatorial coherent states, the sector
    is the certified window of the even block (_window): U holds only the
    k eigenvectors of its N/2+1 where psi0 lives, its part outside them at
    most WINDOW_TOL.  Every other case takes the full solve of the whole
    H, band_spectrum(params), with all k = N+1 eigenvectors of the Dicke
    basis.  The callers are trajectory, zeta2_of_time (the minimum
    search: its whole grid in one records call, its refinement one time
    per call) and cli.run_wigner (states), all in the window for their
    equatorial states, and the short-time fit, cli._protocol_fit, which
    sets full: the window and the even block agree with the full solve to
    roundoff, but the fit amplifies that roundoff in p4.  Against dense
    per-time samples, the fitted p4 moves by at most 8.3e-9 relative on
    the full solve; the even block would move it by up to 6.1e-8 relative
    at N = 200, 3.5e-8 at N = 1000 and 9.1e-8 at N = 4000, past the 1e-8
    at which stored fit outputs are compared.
    """
    if params.n_particles != psi0.n_particles:
        raise ValueError(f"dimension mismatch: model dim={params.n_particles + 1}, state dim={psi0.dim}")
    p, odd = _parity_coords(psi0.amplitudes)
    even = not (full or np.linalg.norm(odd) > EMPTY_SECTOR_NORM)
    if even:
        energies, u, certificate = _window(params, p)
    else:
        spec, p = band_spectrum(params), psi0.amplitudes
        energies, u, certificate = spec.eigenvalues, spec.eigenvectors, _outside(p, spec.eigenvectors)
    return _Kernel(psi0.n_particles, energies, u, p.real @ u, p.imag @ u, even, certificate,
                   max(1, PROPAGATION_DOUBLES // (2 * psi0.dim)))


def trajectory(params: ModelParams, psi0: StateVector, times) -> WitnessRecord:
    """Witnesses along an exactly propagated trajectory: one record of arrays over times.

    The time grid is caller-supplied; spectral propagation is exact at any t,
    so no internal stepping is needed.  All times go through one call of the
    batched propagation kernel (see _witness_kernel), and
    rec.zeta2_opt[i] is the witness at times[i].
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
    return _witness_kernel(params, psi0).records(times)


def zeta2_of_time(params: ModelParams, psi0: StateVector):
    """Callable t -> optimized QFI witness along the exact trajectory, elementwise.

    Like a ufunc: a float time gives a float, an array of times an array
    of zeta^2 of the same shape, in any order.  The propagation kernel is
    built once, for an equatorial state in the certified window of the
    even block (its eigenvalues and the few eigenvectors where psi0
    lives; c = U^T p formed once), and
    each call is one records call with all its times, whose record's
    zeta2_opt it returns, reshaped.  minimize_zeta2 sends its whole grid in
    one call and its refinement one time per call.
    """
    kernel = _witness_kernel(params, psi0)

    def zeta2(t):
        ts = np.asarray(t, dtype=float)
        z = kernel.records(ts.ravel()).zeta2_opt
        return float(z[0]) if ts.ndim == 0 else z.reshape(ts.shape)

    return zeta2
