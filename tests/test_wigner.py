"""Multipole decomposition, Wigner grids, and the mean-field separatrix."""

import importlib

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import sph_harm_y

from bjjsim.exact_dynamics import eigendecompose, evolve, hamiltonian
from bjjsim.spin_core import ModelParams, coherent_state
from bjjsim.phase_model import omega_pi_squared
from bjjsim.wigner import (
    SeparatrixCurve,
    density_multipoles,
    mean_field_energy,
    separatrix,
    wigner,
    wigner_at,
)

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
        assert grid.solid_angle_integral() == pytest.approx(1.0, abs=1e-3)

    def test_integral_preserved_under_evolution(self):
        params = ModelParams.coupled(N, 2.0)
        spec = eigendecompose(hamiltonian(params))
        w = np.sqrt(-omega_pi_squared(2.0, N))
        grid = wigner(evolve(spec, coherent_state(N, np.pi / 2, np.pi), 2.0 / w))
        assert grid.solid_angle_integral() == pytest.approx(1.0, abs=1e-3)

    def test_unstable_regime_goes_negative(self):
        params = ModelParams.coupled(N, 2.0)
        spec = eigendecompose(hamiltonian(params))
        w = np.sqrt(-omega_pi_squared(2.0, N))
        grid = wigner(evolve(spec, coherent_state(N, np.pi / 2, np.pi), 2.0 / w))
        assert grid.values.min() < -0.05 * grid.values.max()

    def test_peak_normalized_maximum_is_one(self):
        grid = wigner(coherent_state(N, 0.3, 0.2))
        assert grid.peak_normalized().max() == pytest.approx(1.0)

    def test_under_resolved_grid_rejected(self):
        with pytest.raises(ValueError, match="band limit"):
            wigner(coherent_state(N, 0.0, 0.0), n_theta=30, n_phi=30)

    def test_rotational_covariance_about_x(self):
        # chi = 0 generates a rigid rotation about x: evolving the state and
        # rotating the sphere points give the same Wigner values
        params = ModelParams(N, chi=0.0, omega=1.0)
        spec = eigendecompose(hamiltonian(params))
        psi0 = coherent_state(N, np.pi / 2 - 0.4, 0.9)
        t = 0.7
        psi_t = evolve(spec, psi0, t)

        thetas = np.linspace(0.2, np.pi - 0.2, 11)
        phis = np.linspace(-np.pi, np.pi, 13, endpoint=False)
        tt, pp = np.meshgrid(thetas, phis, indexing="ij")
        w_evolved = wigner_at(psi_t, tt.ravel(), pp.ravel())

        # rotate the evaluation points about x by the inverse angle
        x = np.sin(tt) * np.cos(pp)
        y = np.sin(tt) * np.sin(pp)
        z = np.cos(tt)
        alpha = t  # omega * t, with the sense fixed by the Jx generator
        y_r = np.cos(alpha) * y - np.sin(alpha) * z
        z_r = np.sin(alpha) * y + np.cos(alpha) * z
        theta_r = np.arccos(np.clip(z_r, -1.0, 1.0))
        phi_r = np.arctan2(y_r, x)
        w_rotated = wigner_at(psi0, theta_r.ravel(), phi_r.ravel())

        assert np.abs(w_evolved - w_rotated).max() < 1e-6


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


class TestWignerKernel:
    def test_grid_matches_direct_sum(self):
        psi = evolved_state(10)
        grid = wigner(psi)
        ref = direct_wigner(psi, grid.theta_samples, grid.phi_samples)
        assert np.abs(grid.values - ref).max() < 1e-12

    def test_large_n_rows_match_direct_sum(self):
        psi = evolved_state(100, lam=2.5, t=1.1)
        grid = wigner(psi)
        rows = [0, 37, grid.theta_samples.size // 2, grid.theta_samples.size - 1]
        ref = direct_wigner(psi, grid.theta_samples[rows], grid.phi_samples)
        assert np.abs(grid.values[rows] - ref).max() < 1e-12

    def test_wigner_at_grid_points_equals_grid(self):
        psi = evolved_state(N)
        grid = wigner(psi)
        tt, pp = np.meshgrid(grid.theta_samples, grid.phi_samples, indexing="ij")
        assert np.abs(wigner_at(psi, tt, pp) - grid.values).max() < 1e-12

    def test_theta_chunking_does_not_change_values(self, monkeypatch):
        psi = evolved_state(N)
        whole = wigner(psi).values
        monkeypatch.setattr(importlib.import_module("bjjsim.wigner"), "TABLE_DOUBLES", 1)  # one theta per chunk
        assert np.abs(wigner(psi).values - whole).max() < 1e-12


class TestSeparatrix:
    def test_passes_through_fixed_point_exactly(self):
        for lam in [1.3, 2.0, 3.5]:
            curve = separatrix(lam, n_points=301)
            at_pi = curve.z[np.isclose(curve.phi, np.pi)]
            assert at_pi.size == 1 and at_pi[0] == 0.0
            at_minus_pi = curve.z[np.isclose(curve.phi, -np.pi)]
            assert at_minus_pi.size == 1 and at_minus_pi[0] == 0.0

    def test_touches_poles_at_lam_two(self):
        curve = separatrix(2.0, n_points=501)
        assert curve.z_max == pytest.approx(1.0, abs=1e-8)

    def test_energy_residual(self):
        curve = separatrix(1.7, n_points=401)
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
        curve = separatrix(lam, n_points=801)
        assert curve.z_max == pytest.approx(z_star, abs=1e-8)

    def test_confined_domain_below_lam_two(self):
        curve = separatrix(1.5, n_points=201)
        # tangency angle: cos^2(phi) = lam(2 - lam)
        phi_c = np.arccos(-np.sqrt(1.5 * 0.5))
        assert curve.phi.min() == pytest.approx(-np.pi)
        inner = curve.phi[(curve.phi > 0)]
        assert inner.min() == pytest.approx(phi_c, abs=1e-12)

    def test_full_domain_above_lam_two(self):
        curve = separatrix(3.0, n_points=201)
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
