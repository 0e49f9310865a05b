"""Twisting-only closed forms against the exact propagator.

These are identities, not approximations: the closed forms and the
diagonalized dynamics describe the same finite-N evolution, and differ by
roundoff alone, which grows like N^2 (2.1e-10 relative at N = 4000 over
the fit window; see bjjsim.oat).
"""

import numpy as np
import pytest

from bjjsim.exact_dynamics import eigendecompose, evolve, hamiltonian
from bjjsim.oat import oat_covariance, oat_jx, oat_lambda_pm, oat_trajectory
from bjjsim.spin_core import (
    ModelParams,
    build_spin_operators,
    coherent_state,
    covariance_yz,
    expectation,
    lambda_pm,
)
from bjjsim.witnesses import FIT_SAMPLES, FIT_WINDOW, fit_taylor_coeffs, fit_times
from bjjsim.exact_dynamics import trajectory


def exact_oat(n, chi):
    params = ModelParams.twisting(n, chi)
    spec = eigendecompose(hamiltonian(params))
    psi0 = coherent_state(n, np.pi / 2, 0.0)
    jx = build_spin_operators(n)[0]
    return spec, psi0, jx


class TestMeanSpin:
    def test_initial_value(self):
        assert oat_jx(50, 1.0, 0.0) == pytest.approx(25.0)

    def test_full_revolution_returns(self):
        # chi t = 2 pi evolves by e^{-i 2 pi m^2} = identity for integer m,
        # so the mean spin is back at +N/2
        n = 20
        spec, psi0, jx = exact_oat(n, 1.0)
        assert expectation(jx, evolve(spec, psi0, 2 * np.pi)) == pytest.approx(n / 2, abs=1e-10)
        assert oat_jx(n, 1.0, 2 * np.pi) == pytest.approx(n / 2, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 50, 200])
    def test_matches_exact_dynamics(self, n):
        chi = 1.0
        spec, psi0, jx = exact_oat(n, chi)
        for t in np.linspace(0.0, 1.0, 21):
            assert oat_jx(n, chi, t) == pytest.approx(
                expectation(jx, evolve(spec, psi0, t)), abs=1e-8
            )

    def test_small_argument_example(self):
        n = 200
        spec, psi0, jx = exact_oat(n, 1.0)
        exact = expectation(jx, evolve(spec, psi0, 0.01))
        assert oat_jx(n, 1.0, 0.01) == pytest.approx(exact, abs=1e-8)
        # oracle-frozen: 100 cos^199(0.01)
        assert exact == pytest.approx(100 * np.cos(0.01) ** 199, abs=1e-8)


class TestCovarianceEigenvalues:
    def test_initial_isotropy(self):
        lp, lm = oat_lambda_pm(100, 1.0, 0.0)
        assert lp == pytest.approx(1.0)
        assert lm == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [4, 50, 200])
    def test_matches_exact_dynamics(self, n):
        chi = 1.0
        spec, psi0, _ = exact_oat(n, chi)
        for t in np.linspace(0.01, 1.0, 15):
            gamma = covariance_yz(evolve(spec, psi0, t))
            lp_num, lm_num = lambda_pm(gamma)
            lp, lm = oat_lambda_pm(n, chi, t)
            assert lp == pytest.approx(lp_num, abs=1e-8)
            assert lm == pytest.approx(lm_num, abs=1e-8)

    def test_covariance_components_n4(self):
        n, chi, t = 4, 1.0, 0.7
        spec, psi0, _ = exact_oat(n, chi)
        gamma_num = covariance_yz(evolve(spec, psi0, t))
        gamma = oat_covariance(n, chi, t)
        assert gamma.gzz == pytest.approx(gamma_num.gzz, abs=1e-10)
        assert gamma.gyy == pytest.approx(gamma_num.gyy, abs=1e-10)
        assert gamma.gyz == pytest.approx(gamma_num.gyz, abs=1e-10)
        lp, lm = oat_lambda_pm(n, chi, t)
        lp_num, lm_num = lambda_pm(gamma_num)
        assert lp == pytest.approx(lp_num, abs=1e-10)
        assert lm == pytest.approx(lm_num, abs=1e-10)

    def test_short_time_series_coefficients(self):
        # fitted closed-form zeta^2 reproduces (-1, 1/2, -1/8, 0) up to
        # finite-N offsets of order 1/N
        n, chi = 200, 1.0
        params = ModelParams.twisting(n, chi)
        times = np.concatenate(
            [[0.0], FIT_WINDOW * np.arange(1, FIT_SAMPLES + 1) / (FIT_SAMPLES * n * chi)]
        )
        recs = trajectory(params, coherent_state(n, np.pi / 2, 0.0), times)
        fit = fit_taylor_coeffs(recs, n, chi)
        c = fit.coeffs
        assert c.p1 == pytest.approx(-1.0, abs=2.0 / n)
        assert c.p2 == pytest.approx(0.5, abs=2.0 / n)
        assert c.p3 == pytest.approx(-0.125, abs=2.0 / n)
        assert c.p4 == pytest.approx(0.0, abs=2.0 / n)


class TestTrajectory:
    def test_shot_noise_start(self):
        recs = oat_trajectory(100, 1.0, [0.0, 0.02])
        assert recs.zeta2_opt[0] == pytest.approx(1.0)
        assert recs.xi2_opt[0] == pytest.approx(1.0)

    def test_gzz_conserved(self):
        rec = oat_trajectory(60, 1.0, np.linspace(0, 0.5, 12))
        assert np.broadcast_to(rec.gamma.gzz, rec.t.shape) == pytest.approx(np.ones(12))

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            oat_trajectory(10, 1.0, [-0.1, 0.0])

    def test_closed_form_equals_exact_records(self):
        n, chi = 50, 1.0
        params = ModelParams.twisting(n, chi)
        # stay below the <Jx> zero crossing, where xi^2 has a pole
        times = np.linspace(0.0, 0.5, 9)
        exact = trajectory(params, coherent_state(n, np.pi / 2, 0.0), times)
        closed = oat_trajectory(n, chi, times)
        assert closed.zeta2_opt == pytest.approx(exact.zeta2_opt, abs=1e-9)
        # xi^2 grows without bound near the <Jx> zero crossing: compare relatively
        assert closed.xi2_opt == pytest.approx(exact.xi2_opt, rel=1e-9)
        # the fit windows at large N, where the measured gap is 1.4e-11 (N = 1000)
        # and 2.1e-10 (N = 4000) relative
        for n in (1000, 4000):
            times = fit_times(n, chi)
            exact = trajectory(ModelParams.twisting(n, chi), coherent_state(n, np.pi / 2, 0.0), times)
            closed = oat_trajectory(n, chi, times)
            assert closed.zeta2_opt == pytest.approx(exact.zeta2_opt, rel=1e-9)
            assert closed.xi2_opt == pytest.approx(exact.xi2_opt, rel=1e-9)
