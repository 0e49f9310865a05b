"""Exact diagonalization and spectral propagation: the oracle itself."""

import numpy as np
import pytest

from bjjsim.exact_dynamics import (
    Spectrum,
    eigendecompose,
    evolve,
    hamiltonian,
    trajectory,
    zeta2_of_time,
)
from bjjsim.spin_core import (
    CollectiveOperator,
    ModelParams,
    build_spin_operators,
    coherent_state,
    expectation,
)
from bjjsim.phase_model import omega_pi_squared


class TestHamiltonian:
    def test_pure_twisting_n2(self):
        h = hamiltonian(ModelParams(2, chi=1.0, omega=0.0))
        assert np.allclose(h.matrix, np.diag([1.0, 0.0, 1.0]))

    def test_pure_coupling_spectrum_n2(self):
        h = hamiltonian(ModelParams(2, chi=0.0, omega=1.0))
        w = eigendecompose(h).eigenvalues
        assert np.allclose(w, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_structure(self):
        h = hamiltonian(ModelParams.coupled(200, 2.0))
        assert h.is_tridiagonal
        mat = h.matrix
        assert np.abs(mat - mat.conj().T).max() < 1e-14
        # bandwidth 3: nothing beyond the first off-diagonals
        assert np.abs(np.triu(mat, 2)).max() == 0.0


class TestEigendecompose:
    def test_diagonal_case(self):
        n = 200
        h = hamiltonian(ModelParams.twisting(n, chi=1.0))
        spec = eigendecompose(h)
        m = np.arange(-n / 2, n / 2 + 1)
        assert np.allclose(spec.eigenvalues, np.sort(m * m), atol=1e-12)

    def test_reconstruction(self):
        h = hamiltonian(ModelParams.coupled(200, 0.5))
        spec = eigendecompose(h)
        v, w = spec.eigenvectors, spec.eigenvalues
        assert np.abs(v @ np.diag(w) @ v.T - h.matrix.real).max() < 1e-8

    def test_orthonormality(self):
        spec = eigendecompose(hamiltonian(ModelParams.coupled(120, 1.5)))
        v = spec.eigenvectors
        assert np.abs(v.T @ v - np.eye(v.shape[0])).max() < 1e-10

    def test_eigenvalue_residual(self):
        h = hamiltonian(ModelParams.coupled(150, 2.0))
        spec = eigendecompose(h)
        hnorm = np.abs(h.matrix).max()
        res = h.matrix.real @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues
        assert np.abs(res).max() < 1e-8 * hnorm


class TestEvolve:
    def test_time_zero_is_identity(self):
        params = ModelParams.coupled(20, 1.0)
        psi0 = coherent_state(20, np.pi / 2, np.pi)
        spec = eigendecompose(hamiltonian(params))
        psi = evolve(spec, psi0, 0.0)
        assert np.allclose(psi.amplitudes, psi0.amplitudes, atol=1e-14)

    @pytest.mark.parametrize("t", [0.3, 2.7, 40.0])
    def test_unitarity(self, t):
        params = ModelParams.coupled(100, 2.0)
        spec = eigendecompose(hamiltonian(params))
        psi = evolve(spec, coherent_state(100, np.pi / 2, np.pi), t)
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_twisting_mean_spin_closed_form(self):
        # frozen against this module itself at chi*t = 2*pi the evolution is
        # the identity (e^{-i 2 pi m^2} = 1 for integer m), so <Jx> returns
        # to +N/2; the closed form (N/2) cos^(N-1)(chi t) agrees.
        n, chi = 200, 1.0
        params = ModelParams.twisting(n, chi)
        spec = eigendecompose(hamiltonian(params))
        psi0 = coherent_state(n, np.pi / 2, 0.0)
        jx = build_spin_operators(n)[0]
        for t in [0.0, 0.01, 0.37, 1.0]:
            got = expectation(jx, evolve(spec, psi0, t))
            assert got == pytest.approx(n / 2 * np.cos(chi * t) ** (n - 1), abs=1e-8)
        full_turn = expectation(jx, evolve(spec, psi0, 2 * np.pi))
        assert full_turn == pytest.approx(n / 2, abs=1e-8)

    def test_dimension_mismatch(self):
        spec = eigendecompose(hamiltonian(ModelParams.coupled(10, 1.0)))
        with pytest.raises(ValueError, match="mismatch"):
            evolve(spec, coherent_state(12, 1.0, 0.0), 0.1)

    def test_energy_conservation(self):
        params = ModelParams.coupled(150, 2.0)
        h = hamiltonian(params)
        spec = eigendecompose(h)
        psi0 = coherent_state(150, np.pi / 2, np.pi)
        e0 = expectation(h, psi0)
        for t in [0.2, 1.0, 5.0]:
            et = expectation(h, evolve(spec, psi0, t))
            assert abs(et - e0) < 1e-10 * max(1.0, abs(e0))

    def test_parity_commutant(self):
        # the population-imbalance reversal m -> -m commutes with H
        h = hamiltonian(ModelParams.coupled(60, 1.7)).matrix.real
        refl = np.fliplr(np.eye(61))
        assert np.abs(h @ refl - refl @ h).max() < 1e-10


class TestTrajectory:
    def test_initial_record_is_shot_noise(self):
        params = ModelParams.coupled(80, 0.7)
        recs = trajectory(params, coherent_state(80, np.pi / 2, np.pi), [0.0, 0.1])
        assert recs.xi2_opt[0] == pytest.approx(1.0, abs=1e-10)
        assert recs.zeta2_opt[0] == pytest.approx(1.0, abs=1e-10)

    def test_stable_minimum_depth(self):
        n, lam = 200, 0.5
        params = ModelParams.coupled(n, lam)
        w = np.sqrt(omega_pi_squared(lam, n))
        times = np.linspace(0.0, np.pi / w, 400)
        recs = trajectory(params, coherent_state(n, np.pi / 2, np.pi), times)
        zmin = recs.zeta2_opt.min()
        assert zmin == pytest.approx(0.5, abs=5.0 / n)

    def test_qfi_keeps_improving_past_squeezing_minimum(self):
        n, lam = 200, 2.0
        params = ModelParams.coupled(n, lam)
        w = np.sqrt(-omega_pi_squared(lam, n))
        times = np.linspace(0.0, 2.0 / w, 120)
        recs = trajectory(params, coherent_state(n, np.pi / 2, np.pi), times)
        xi, zeta = recs.xi2_opt, recs.zeta2_opt
        i_min = int(np.argmin(xi))
        assert 0 < i_min < len(times) - 1  # squeezing rebounds inside the window
        assert np.all(np.diff(zeta[i_min:]) < 0)

    def test_time_grid_validation(self):
        params = ModelParams.coupled(10, 1.0)
        psi0 = coherent_state(10, np.pi / 2, np.pi)
        with pytest.raises(ValueError):
            trajectory(params, psi0, [0.2, 0.1])
        with pytest.raises(ValueError):
            trajectory(params, psi0, [-0.1, 0.2])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                trajectory(params, psi0, [0.0, bad])

    def test_zeta2_of_time_matches_trajectory(self):
        params = ModelParams.coupled(60, 1.5)
        psi0 = coherent_state(60, np.pi / 2, np.pi)
        f = zeta2_of_time(params, psi0)
        recs = trajectory(params, psi0, [0.0, 0.4])
        assert f(0.4) == pytest.approx(recs.zeta2_opt[1], rel=1e-12)


@pytest.mark.parametrize("which", ["jy", "dense"])
def test_eigendecompose_takes_only_real_tridiagonal_operators(which):
    n = 10
    if which == "jy":  # tridiagonal, but imaginary
        op = build_spin_operators(n)[1]
    else:  # real symmetric, not tridiagonal
        op = CollectiveOperator(n, np.ones((n + 1, n + 1)))
    with pytest.raises(ValueError, match="real symmetric tridiagonal"):
        eigendecompose(op)


def test_spectrum_shape_validation():
    with pytest.raises(ValueError):
        Spectrum(2, np.array([1.0, 2.0]), np.eye(3))
