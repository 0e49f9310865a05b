"""Operator algebra, coherent states and covariance machinery."""

import numpy as np
import pytest

from bjjsim.spin_core import (
    NORM_TOL,
    CollectiveOperator,
    CovarianceYZ,
    ModelParams,
    StateVector,
    build_spin_operators,
    check_first_moments,
    check_normalized,
    coherent_state,
    covariance_yz,
    expectation,
    ladder,
    lambda_pm,
)
from bjjsim.exact_dynamics import eigendecompose, evolve, hamiltonian
from bjjsim.phase_model import omega_pi_squared


def comm(a, b):
    return a @ b - b @ a


class TestModelParams:
    def test_lambda_identity(self):
        p = ModelParams.coupled(100, 2.5)
        assert p.lam == pytest.approx(2.5, rel=1e-15)
        assert p.lam * p.omega == pytest.approx(p.n_particles * p.chi, rel=1e-15)

    def test_twisting_has_no_lambda(self):
        assert ModelParams.twisting(10).lam is None

    @pytest.mark.parametrize("n", [0, 1, 3, -2, 7])
    def test_rejects_bad_particle_numbers(self, n):
        with pytest.raises((ValueError, TypeError)):
            ModelParams(n_particles=n, chi=1.0, omega=0.0)

    def test_rejects_attractive_interaction(self):
        with pytest.raises(ValueError):
            ModelParams(n_particles=4, chi=-1.0, omega=1.0)


class TestSpinOperators:
    def test_ladder_elements_n2(self):
        # j = 1 ladder: <m+1|Jx|m> = sqrt(2)/2 for m = -1, 0
        jx = build_spin_operators(2)[0].matrix
        assert jx[1, 0] == pytest.approx(np.sqrt(2) / 2, abs=1e-15)
        assert jx[2, 1] == pytest.approx(np.sqrt(2) / 2, abs=1e-15)

    def test_jz_diagonal(self):
        jz = build_spin_operators(6)[2].matrix
        assert np.allclose(np.diag(jz).real, np.arange(-3, 4))

    @pytest.mark.parametrize("n", [2, 10, 60, 200, 400])
    def test_commutation_relations(self, n):
        jx, jy, jz = (op.matrix for op in build_spin_operators(n))
        assert np.abs(comm(jx, jy) - 1j * jz).max() < 1e-10
        assert np.abs(comm(jy, jz) - 1j * jx).max() < 1e-10
        assert np.abs(comm(jz, jx) - 1j * jy).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 10, 200])
    def test_casimir(self, n):
        jx, jy, jz = (op.matrix for op in build_spin_operators(n))
        j = n / 2
        casimir = jx @ jx + jy @ jy + jz @ jz
        assert np.abs(casimir - j * (j + 1) * np.eye(n + 1)).max() < 1e-10

    @pytest.mark.parametrize("n", [1, 3, 0, -4])
    def test_rejects_odd_n(self, n):
        with pytest.raises((ValueError, TypeError)):
            build_spin_operators(n)

    def test_rejects_non_hermitian_matrix(self):
        mat = np.zeros((3, 3), dtype=complex)
        mat[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            CollectiveOperator(2, mat)

    def test_tridiagonal_flag_checked(self):
        # the flag is read from the matrix and cannot be set
        mat = np.eye(5, dtype=complex)
        mat[0, 4] = mat[4, 0] = 0.5
        op = CollectiveOperator(4, mat)
        assert not op.is_tridiagonal
        assert all(o.is_tridiagonal for o in build_spin_operators(4))
        with pytest.raises(AttributeError):
            op.is_tridiagonal = True
        with pytest.raises(TypeError):
            CollectiveOperator(4, np.eye(5), is_tridiagonal=True)
        with pytest.raises(ValueError, match="real symmetric tridiagonal"):
            eigendecompose(op)


class TestCoherentState:
    def test_north_pole_is_top_state(self):
        psi = coherent_state(4, 0.0, 0.0)
        expected = np.zeros(5)
        expected[-1] = 1.0
        assert np.allclose(psi.amplitudes, expected)
        jz = build_spin_operators(4)[2]
        assert expectation(jz, psi) == pytest.approx(2.0, abs=1e-14)

    def test_negative_x_polarization(self):
        psi = coherent_state(10, np.pi / 2, np.pi)
        jx = build_spin_operators(10)[0]
        assert expectation(jx, psi) == pytest.approx(-5.0, abs=1e-12)

    def test_equatorial_variances(self):
        psi = coherent_state(200, np.pi / 2, 0.0)
        _, jy, jz = build_spin_operators(200)
        jy2 = CollectiveOperator(200, jy.matrix @ jy.matrix)
        jz2 = CollectiveOperator(200, jz.matrix @ jz.matrix)
        assert expectation(jz2, psi) == pytest.approx(50.0, rel=1e-12)
        assert expectation(jy2, psi) == pytest.approx(50.0, rel=1e-12)

    @pytest.mark.parametrize(
        "theta,phi",
        [(0.3, 0.7), (np.pi / 2, np.pi), (2.1, -1.3), (np.pi, 0.0), (1.0, np.pi / 2)],
    )
    def test_mean_spin_direction(self, theta, phi):
        n = 20
        psi = coherent_state(n, theta, phi)
        jx, jy, jz = build_spin_operators(n)
        mean = np.array([expectation(jx, psi), expectation(jy, psi), expectation(jz, psi)])
        direction = np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        assert np.allclose(mean, n / 2 * direction, atol=1e-12)
        # variance along the mean spin direction vanishes for a product state
        j_along = CollectiveOperator(
            n, direction[0] * jx.matrix + direction[1] * jy.matrix + direction[2] * jz.matrix
        )
        j_along2 = CollectiveOperator(n, j_along.matrix @ j_along.matrix)
        var = expectation(j_along2, psi) - expectation(j_along, psi) ** 2
        assert abs(var) < 1e-10

    def test_angle_range_errors(self):
        with pytest.raises(ValueError):
            coherent_state(4, -0.1, 0.0)
        with pytest.raises(ValueError):
            coherent_state(4, 0.5, 4.0)

    def test_normalization_large_n(self):
        psi = coherent_state(400, 1.234, 0.56)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-13)


class TestExpectation:
    def test_jz_on_top_state(self):
        n = 8
        amp = np.zeros(n + 1)
        amp[-1] = 1.0
        psi = StateVector(n, amp)
        jz = build_spin_operators(n)[2]
        assert expectation(jz, psi) == pytest.approx(n / 2, abs=1e-14)

    def test_dimension_mismatch(self):
        psi = coherent_state(4, 1.0, 0.0)
        jz = build_spin_operators(6)[2]
        with pytest.raises(ValueError, match="mismatch"):
            expectation(jz, psi)

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(2, np.array([1.0, 1.0, 0.0]))

    def test_nan_state_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(2, np.array([1.0, np.nan, 0.0]))


@pytest.mark.parametrize("moments", [(np.nan, 0.0), (0.0, np.nan), (np.nan, np.nan)])
def test_first_moment_check_rejects_nan(moments):
    with pytest.raises(ValueError, match="symmetry"):
        check_first_moments(*moments, 10)


def test_norm_check_rejects_nan():
    with pytest.raises(ValueError, match="normalized"):
        check_normalized(np.nan)
    check_normalized(1.0 + 0.5 * NORM_TOL)


class TestCovariance:
    def test_css_is_isotropic(self):
        gamma = covariance_yz(coherent_state(40, np.pi / 2, np.pi))
        assert gamma.gzz == pytest.approx(1.0, abs=1e-12)
        assert gamma.gyy == pytest.approx(1.0, abs=1e-12)
        assert gamma.gyz == pytest.approx(0.0, abs=1e-12)

    def test_stable_minimum_moments(self):
        # half a breathing period at lam = 0.5 squeezes gyy to 1 - lam
        n, lam = 200, 0.5
        params = ModelParams.coupled(n, lam)
        w = np.sqrt(omega_pi_squared(lam, n))
        spec = eigendecompose(hamiltonian(params))
        psi = evolve(spec, coherent_state(n, np.pi / 2, np.pi), np.pi / (2 * w))
        gamma = covariance_yz(psi)
        assert gamma.gzz == pytest.approx(2.0, abs=5.0 / n * 2.0)
        assert gamma.gyy == pytest.approx(0.5, abs=5.0 / n)
        assert gamma.gyz == pytest.approx(0.0, abs=5.0 / n)

    def test_tilted_state_rejected(self):
        with pytest.raises(ValueError, match="symmetry"):
            covariance_yz(coherent_state(30, 0.4, 0.0))


class TestLambdaPm:
    @pytest.mark.parametrize(
        "gamma,expected",
        [
            (CovarianceYZ(1.0, 1.0, 0.0), (1.0, 1.0)),
            (CovarianceYZ(2.0, 0.5, 0.0), (2.0, 0.5)),
            (CovarianceYZ(2.0, 2.0, 1.0), (3.0, 1.0)),
        ],
    )
    def test_examples(self, gamma, expected):
        lp, lm = lambda_pm(gamma)
        assert lp == pytest.approx(expected[0], abs=1e-14)
        assert lm == pytest.approx(expected[1], abs=1e-14)

    @pytest.mark.parametrize("gzz,gyy,gyz", [(1.3, 0.8, 0.4), (2.0, 2.0, -1.5), (5.0, 0.1, 0.0)])
    def test_trace_and_determinant(self, gzz, gyy, gyz):
        gamma = CovarianceYZ(gzz, gyy, gyz)
        lp, lm = lambda_pm(gamma)
        assert lp + lm == pytest.approx(gzz + gyy, abs=1e-12)
        assert lp * lm == pytest.approx(gzz * gyy - gyz**2, abs=1e-12)
        assert lp >= lm


def test_m_values_ascending():
    m = ladder(6)[0]
    assert np.allclose(m, [-3, -2, -1, 0, 1, 2, 3])
