"""Multipole decomposition, Wigner grids, and the mean-field separatrix."""

import importlib
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import sph_harm_y, sph_legendre_p_all

from bjjsim.exact_dynamics import _witness_kernel, eigendecompose, evolve, hamiltonian
from bjjsim.spin_core import ModelParams, StateVector, coherent_state
from bjjsim.phase_model import omega_pi_squared
from bjjsim.wigner import (
    SeparatrixCurve,
    _multipole_pass,
    density_multipoles,
    mean_field_energy,
    separatrix,
    wigner,
)
from library_reference import solid_angle_integral

N = 30


def purity(rho):
    return sum(abs(v) ** 2 for v in rho.values())


class TestMultipoles:
    def test_monopole_is_trace(self):
        rho = density_multipoles(coherent_state(N, 1.1, 0.4))
        assert rho[(0, 0)].real == pytest.approx(1 / np.sqrt(N + 1), abs=1e-12)
        assert rho[(0, 0)].imag == pytest.approx(0.0, abs=1e-12)

    def test_pole_state_is_axial(self):
        rho = density_multipoles(coherent_state(N, 0.0, 0.0))
        off_axis = max(abs(v) for (k, q), v in rho.items() if q != 0)
        assert off_axis == 0.0

    @pytest.mark.parametrize("theta,phi", [(0.0, 0.0), (np.pi / 2, np.pi), (1.2, -0.7)])
    def test_pure_state_multipole_norm(self, theta, phi):
        rho = density_multipoles(coherent_state(N, theta, phi))
        assert purity(rho) == pytest.approx(1.0, abs=1e-8)

    def test_hermiticity_relation(self):
        rho = density_multipoles(coherent_state(N, 0.9, 1.7))
        for k in range(N + 1):
            for q in range(-k, k + 1):
                lhs = rho[(k, -q)]
                rhs = (-1) ** q * np.conj(rho[(k, q)])
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_evolved_state_stays_pure(self):
        params = ModelParams.coupled(N, 2.0)
        spec = eigendecompose(hamiltonian(params))
        psi = evolve(spec, coherent_state(N, np.pi / 2, np.pi), 1.3)
        assert purity(density_multipoles(psi)) == pytest.approx(1.0, abs=1e-8)

    def test_larger_n_still_orthonormal(self):
        rho = density_multipoles(coherent_state(60, np.pi / 2, 0.0))
        assert purity(rho) == pytest.approx(1.0, abs=1e-8)

    def test_stacked_states_match_one_at_a_time(self):
        amps = np.stack([coherent_state(N, 1.1, 0.4).amplitudes, evolved_state(N).amplitudes])
        stacked = _multipole_pass(N, amps.real, amps.imag)
        for amp, rho in zip(amps, stacked):
            assert np.abs(_multipole_pass(N, amp.real, amp.imag) - rho).max() < 1e-14

    def test_pass_memory_is_quadratic_in_n(self):
        # two tensor blocks and the (N+1)^2 result, never the (N+1)^3/3 table
        n = 300
        amp = coherent_state(n, 1.1, 0.4).amplitudes
        re, im = amp.real.copy(), amp.imag.copy()
        tracemalloc.start()
        try:
            _multipole_pass(n, re, im)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 8 * (n + 1) ** 2


class TestWignerGrid:
    def test_css_positive_with_peak_at_mean_spin(self):
        grid = wigner(coherent_state(N, np.pi / 2, np.pi))
        # exact CSS Wigner values dip to ~ -1e-10 of the peak (band-limit
        # ringing); positivity holds at any physical scale
        assert grid.values.min() > -1e-9 * grid.values.max()
        i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
        dth = grid.theta_samples[1] - grid.theta_samples[0]
        dph = grid.phi_samples[1] - grid.phi_samples[0]
        assert abs(grid.theta_samples[i] - np.pi / 2) <= dth
        assert min(abs(grid.phi_samples[j] - np.pi), abs(grid.phi_samples[j] + np.pi)) <= dph

    def test_unit_solid_angle_integral(self):
        grid = wigner(coherent_state(N, np.pi / 2, np.pi))
        assert solid_angle_integral(grid) == pytest.approx(1.0, abs=1e-3)

    def test_integral_preserved_under_evolution(self):
        params = ModelParams.coupled(N, 2.0)
        spec = eigendecompose(hamiltonian(params))
        w = np.sqrt(-omega_pi_squared(2.0, N))
        grid = wigner(evolve(spec, coherent_state(N, np.pi / 2, np.pi), 2.0 / w))
        assert solid_angle_integral(grid) == pytest.approx(1.0, abs=1e-3)

    def test_unstable_regime_goes_negative(self):
        params = ModelParams.coupled(N, 2.0)
        spec = eigendecompose(hamiltonian(params))
        w = np.sqrt(-omega_pi_squared(2.0, N))
        grid = wigner(evolve(spec, coherent_state(N, np.pi / 2, np.pi), 2.0 / w))
        assert grid.values.min() < -0.05 * grid.values.max()

    def test_peak_normalized_maximum_is_one(self):
        grid = wigner(coherent_state(N, 0.3, 0.2))
        assert grid.peak_normalized().max() == pytest.approx(1.0)

    def test_rotational_covariance_about_x(self):
        # chi = 0 generates a rigid rotation about x: the evolved state is the
        # coherent state at the Bloch direction rotated about x by -omega t
        params = ModelParams(N, chi=0.0, omega=1.0)
        spec = eigendecompose(hamiltonian(params))
        theta0, phi0, t = np.pi / 2 - 0.4, 0.9, 0.7
        w_evolved = wigner(evolve(spec, coherent_state(N, theta0, phi0), t)).values

        x = np.sin(theta0) * np.cos(phi0)
        y = np.sin(theta0) * np.sin(phi0)
        z = np.cos(theta0)
        alpha = -t  # H = -omega Jx propagates with exp(+i omega t Jx), omega = 1
        y_r = np.cos(alpha) * y - np.sin(alpha) * z
        z_r = np.sin(alpha) * y + np.cos(alpha) * z
        w_rotated = wigner(coherent_state(N, np.arccos(z_r), np.arctan2(y_r, x))).values

        # the whole 181 x 361 grids agree to 1.6e-14 (peak 4.8)
        assert np.abs(w_evolved - w_rotated).max() < 1e-12


def evolved_state(n, lam=2.0, t=0.9):
    spec = eigendecompose(hamiltonian(ModelParams.coupled(n, lam)))
    return evolve(spec, coherent_state(n, np.pi / 2, np.pi), t)


def direct_wigner(psi, thetas, phis):
    """Reference double sum over scalar spherical harmonics, on a theta x phi grid.

    Uses Y_kq(theta, phi) = Y_kq(theta, 0) e^{i q phi} so that the harmonics
    are evaluated once per theta.
    """
    n = psi.n_particles
    rho = density_multipoles(psi)
    w = np.zeros((thetas.size, phis.size), dtype=complex)
    for q in range(-n, n + 1):
        prof = sum(rho[(k, q)] * sph_harm_y(k, q, thetas, 0.0) for k in range(abs(q), n + 1))
        w += np.outer(prof, np.exp(1j * q * phis))
    return w.real * np.sqrt((n + 1) / (4.0 * np.pi))


def kernel_snapshot(n, lam=2.0, t=0.9):
    """The pi state at t as cli.run_wigner takes it: the kernel's even block in the Dicke basis."""
    psi0 = coherent_state(n, np.pi / 2, np.pi)
    ((_, re, im),) = _witness_kernel(ModelParams.coupled(n, lam), psi0).states(np.array([t]))
    return StateVector(n, re[0] + 1j * im[0])


def mirrored(values):
    """values read at (pi - theta, -phi): row n_theta-1-i, phi index -j mod n_phi."""
    return values[::-1, (-np.arange(values.shape[1])) % values.shape[1]]


class TestWignerKernel:
    def test_grid_matches_direct_sum(self):
        # general states (south from the signed multipoles) and an exactly even one (mirrored)
        for psi in (evolved_state(10), coherent_state(10, 1.0, 0.3), kernel_snapshot(10)):
            grid = wigner(psi)
            ref = direct_wigner(psi, grid.theta_samples, grid.phi_samples)
            assert np.abs(grid.values - ref).max() < 1e-12

    def test_large_n_rows_match_direct_sum(self):
        psi = evolved_state(100, lam=2.5, t=1.1)
        grid = wigner(psi)
        rows = [0, 37, grid.theta_samples.size // 2, grid.theta_samples.size - 1]
        ref = direct_wigner(psi, grid.theta_samples[rows], grid.phi_samples)
        assert np.abs(grid.values[rows] - ref).max() < 1e-12

    @pytest.mark.parametrize("n", [N, 60])
    def test_even_snapshot_is_mirrored_bitwise(self, n):
        psi = kernel_snapshot(n)
        assert np.array_equal(psi.amplitudes, psi.amplitudes[::-1])
        w = wigner(psi).values
        bits, mirror_bits = w.view(np.int64), mirrored(w).view(np.int64)
        # every row but the equator, which is summed and mirrors itself to roundoff
        eq = w.shape[0] // 2
        assert np.array_equal(np.delete(bits, eq, 0), np.delete(mirror_bits, eq, 0))
        assert np.abs(w[eq] - mirrored(w)[eq]).max() < 1e-13 * w.max()

    @pytest.mark.parametrize("table_doubles", [1, 1 << 17])
    def test_legendre_tables_cover_the_north_only(self, monkeypatch, table_doubles):
        module = importlib.import_module("bjjsim.wigner")
        monkeypatch.setattr(module, "TABLE_DOUBLES", table_doubles)
        sizes = []

        def counting(n, m, theta):
            sizes.append(np.size(theta))
            return sph_legendre_p_all(n, m, theta)

        monkeypatch.setattr(module, "sph_legendre_p_all", counting)
        for psi in (kernel_snapshot(N), coherent_state(N, 1.0, 0.3)):
            sizes.clear()
            grid = wigner(psi)
            assert sum(sizes) <= -(-grid.theta_samples.size // 2)

    def test_theta_chunking_does_not_change_values(self, monkeypatch):
        psi = evolved_state(N)
        whole = wigner(psi).values
        monkeypatch.setattr(importlib.import_module("bjjsim.wigner"), "TABLE_DOUBLES", 1)  # one theta per chunk
        assert np.abs(wigner(psi).values - whole).max() < 1e-12


def loop_separatrix_z(phi, lam):
    """Per-point reference for the separatrix root: smallest valid z, or None."""
    c = np.cos(phi)
    disc = c * c * ((lam - 1.0) ** 2 - np.sin(phi) ** 2)
    if disc < 0.0:
        if disc < -1e-12:
            return None
        disc = 0.0
    base = 2.0 / lam**2
    valid = []
    for u in (base * ((lam - c * c) - np.sqrt(disc)), base * ((lam - c * c) + np.sqrt(disc))):
        if -1e-12 <= u <= 1.0 + 1e-12:
            z = np.sqrt(min(max(u, 0.0), 1.0))
            if abs(mean_field_energy(z, phi, lam) - 1.0) <= 1e-9:
                valid.append(z)
    return min(valid) if valid else None


class TestSeparatrix:
    @pytest.mark.parametrize("lam", [1.001, 1.02, 1.5, 1.9999, 2.0, 2.0001, 3.0, 10.0])
    def test_matches_per_point_roots(self, lam):
        if lam < 2.0:
            phi_lo = np.arccos(-np.sqrt(lam * (2.0 - lam)))
        else:
            phi_lo = np.pi / 2.0 if lam == 2.0 else 0.0
        roots = [(p, loop_separatrix_z(float(p), lam)) for p in np.linspace(phi_lo, np.pi, 721)]
        phi = np.array([p for p, z in roots if z is not None])
        z = np.array([z for p, z in roots if z is not None])
        z[-1] = 0.0
        start = 1 if phi[0] == 0.0 else 0
        phi = np.concatenate([-phi[::-1], phi[start:]])
        z = np.concatenate([z[::-1], z[start:]])

        curve = separatrix(lam)
        assert curve.phi.shape == phi.shape
        assert np.array_equal(curve.phi.view(np.int64), phi.view(np.int64))
        assert np.abs(curve.z - z).max() <= 2.3e-16

    def test_passes_through_fixed_point_exactly(self):
        for lam in [1.3, 2.0, 3.5]:
            curve = separatrix(lam)
            at_pi = curve.z[np.isclose(curve.phi, np.pi)]
            assert at_pi.size == 1 and at_pi[0] == 0.0
            at_minus_pi = curve.z[np.isclose(curve.phi, -np.pi)]
            assert at_minus_pi.size == 1 and at_minus_pi[0] == 0.0

    def test_touches_poles_at_lam_two(self):
        curve = separatrix(2.0)
        assert curve.z.max() == pytest.approx(1.0, abs=1e-8)

    def test_energy_residual(self):
        curve = separatrix(1.7)
        resid = np.abs(mean_field_energy(curve.z, curve.phi, 1.7) - 1.0)
        assert resid.max() < 1e-8

    @pytest.mark.parametrize("lam", [1.5, 3.0])
    def test_max_extent_against_root_finding(self, lam):
        # independent oracle: eliminate phi through the tangency condition
        # (lam < 2) or evaluate at phi = 0 (lam > 2), then root-find in z
        if lam < 2.0:
            f = lambda z: lam * z**2 / 2.0 + lam * (1.0 - z**2) - 1.0
        else:
            f = lambda z: lam * z**2 / 2.0 - np.sqrt(1.0 - z**2) - 1.0
        z_star = brentq(f, 1e-9, 1.0 - 1e-15, xtol=1e-14)
        curve = separatrix(lam)
        assert curve.z.max() == pytest.approx(z_star, abs=1e-8)

    def test_confined_domain_below_lam_two(self):
        curve = separatrix(1.5)
        # tangency angle: cos^2(phi) = lam(2 - lam)
        phi_c = np.arccos(-np.sqrt(1.5 * 0.5))
        assert curve.phi.min() == pytest.approx(-np.pi)
        inner = curve.phi[(curve.phi > 0)]
        assert inner.min() == pytest.approx(phi_c, abs=1e-12)

    def test_full_domain_above_lam_two(self):
        curve = separatrix(3.0)
        assert curve.phi.min() == pytest.approx(-np.pi)
        assert np.any(np.isclose(curve.phi, 0.0))

    def test_no_separatrix_below_critical(self):
        with pytest.raises(ValueError):
            separatrix(0.8)
        with pytest.raises(ValueError):
            separatrix(1.0)

    def test_curve_validation(self):
        with pytest.raises(ValueError, match="level set"):
            SeparatrixCurve(2.0, np.array([0.5]), np.array([0.1]))
