"""Phase-model analytics against the exact-diagonalization and quadrature oracles."""

import numpy as np
import pytest
from scipy.integrate import dblquad

from bjjsim import phase_model as pm
from bjjsim.exact_dynamics import eigendecompose, evolve, hamiltonian, zeta2_of_time
from bjjsim.spin_core import (
    ModelParams,
    build_spin_operators,
    coherent_state,
    covariance_yz,
    expectation,
    lambda_pm,
)
import library_reference as ref

N = 200


# --- independent quadrature oracle over the phase representation ------------

def quad_moment(a, b, n, which, tol=1e-10):
    """Double integral of the phase-operator symbols with the Gaussian kernel.

    Independent of the closed forms: the operator action on the packet is
    differentiated analytically and everything is integrated numerically.
    """
    c = a + 1j * b
    half = n / 2.0

    def psi(p):
        return np.exp(-c * p * p)

    def dpsi(p):
        return -2.0 * c * p * np.exp(-c * p * p)

    def d2psi(p):
        return (-2.0 * c + 4.0 * c * c * p * p) * np.exp(-c * p * p)

    def applied(p):
        if which == "one":
            return psi(p)
        if which == "jx":
            return np.sin(p) * dpsi(p) + (half + 1) * np.cos(p) * psi(p)
        if which == "jz2":
            return -d2psi(p)
        if which == "jy2":
            return (
                np.cos(p) ** 2 * d2psi(p)
                - (n + 3) / 2.0 * np.sin(2 * p) * dpsi(p)
                + (((half + 1) ** 2 + (half + 1)) * np.sin(p) ** 2 - (half + 1)) * psi(p)
            )
        if which == "anticomm_yz":
            return 1j * (
                2.0 * np.cos(p) * d2psi(p)
                - (n + 3) * np.sin(p) * dpsi(p)
                - (half + 1) * np.cos(p) * psi(p)
            )
        raise ValueError(which)

    def integrand(th, ph):
        return np.real(np.conj(psi(th)) * applied(ph) * np.exp(-n * (th - ph) ** 2 / 8.0))

    val = dblquad(integrand, -np.pi, np.pi, -np.pi, np.pi, epsabs=tol, epsrel=tol)[0]
    if which == "one":
        return val
    den = quad_moment(a, b, n, "one", tol)
    return val / den


class TestPotential:
    def test_value_at_origin(self):
        n, lam = 100, 2.0
        assert ref.potential(0.0, n, lam) == pytest.approx(-(n + 1) / 2 - n / (8 * lam))

    def test_even(self):
        phis = np.linspace(0, np.pi, 40)
        assert np.allclose(ref.potential(phis, 50, 1.3), ref.potential(-phis, 50, 1.3))

    def test_inverted_at_pi_when_supercritical(self):
        n, lam, h = 4000, 1.5, 1e-4
        curv = (
            ref.potential(np.pi + h, n, lam)
            - 2 * ref.potential(np.pi, n, lam)
            + ref.potential(np.pi - h, n, lam)
        ) / h**2
        assert curv < 0

    def test_confining_at_pi_when_subcritical(self):
        n, lam, h = 4000, 0.5, 1e-4
        curv = (
            ref.potential(np.pi + h, n, lam)
            - 2 * ref.potential(np.pi, n, lam)
            + ref.potential(np.pi - h, n, lam)
        ) / h**2
        assert curv > 0

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(ValueError):
            ref.potential(0.0, 10, 0.0)


class TestFrequencies:
    def test_instability_onset(self):
        n = 200
        assert pm.omega_pi_squared(n / (n + 1), n) == pytest.approx(0.0, abs=1e-14)

    def test_large_n_values(self):
        assert pm.omega_pi_squared(0.5, 10**9) == pytest.approx(0.5, abs=1e-8)
        assert pm.omega_pi_squared(2.0, 10**9) == pytest.approx(-1.0, abs=1e-8)
        assert pm.omega_pi_squared(-1.0, 10**9) == pytest.approx(2.0, abs=1e-8)

    def test_zero_well_always_confining(self):
        for lam in np.geomspace(0.1, 100, 25):
            assert pm.omega_pi_squared(-lam, 200) > 0


class TestPacketParams:
    def test_curvature_vanishes_at_start(self):
        assert ref.packet_params(0.0, 0.5, 1e-4, N, "pi").b == 0.0
        assert ref.packet_params(0.0, 1.0, 1e-4, N, "zero").b == 0.0

    @pytest.mark.parametrize("state,lam", [("pi", 0.5), ("zero", 1.0)])
    def test_initial_state_is_css(self, state, lam):
        packet = ref.packet_params(0.0, lam, 1e-5, N, state)
        gamma, jx_half = ref.moments_to_covariance(ref.gaussian_expectations(packet, N), N)
        assert gamma.gzz == pytest.approx(1.0, abs=5.0 / N)
        assert gamma.gyy == pytest.approx(1.0, abs=5.0 / N)
        assert gamma.gyz == pytest.approx(0.0, abs=5.0 / N)
        assert abs(jx_half) == pytest.approx(1.0, abs=5.0 / N)

    def test_periodicity_pi(self):
        lam, lam0 = 0.5, 1e-4
        w = np.sqrt(pm.omega_pi_squared(lam, N))
        p0 = ref.packet_params(0.0, lam, lam0, N, "pi")
        p1 = ref.packet_params(np.pi / w, lam, lam0, N, "pi")  # 2 w t = 2 pi
        assert p1.a == pytest.approx(p0.a, rel=1e-9)
        assert p1.b == pytest.approx(p0.b, abs=1e-5 * abs(p0.a))

    def test_periodicity_zero(self):
        lam, lam0 = 1.0, 1e-4
        w = np.sqrt(pm.omega_pi_squared(-lam, N))
        p0 = ref.packet_params(0.3, lam, lam0, N, "zero")
        p1 = ref.packet_params(0.3 + np.pi / w, lam, lam0, N, "zero")
        assert p1.a == pytest.approx(p0.a, rel=1e-9)
        assert p1.b == pytest.approx(p0.b, rel=1e-6)

    def test_zero_branch_half_period_moments(self):
        # maximal number squeezing of the zero branch: gamma -> (1/2, 2, 0)
        lam, lam0 = 1.0, 1e-5
        w = np.sqrt(pm.omega_pi_squared(-lam, N))
        packet = ref.packet_params(np.pi / (2 * w), lam, lam0, N, "zero")
        gamma, _ = ref.moments_to_covariance(ref.gaussian_expectations(packet, N), N)
        assert gamma.gzz == pytest.approx(0.5, abs=5.0 / N)
        assert gamma.gyy == pytest.approx(2.0, abs=5.0 / N)
        assert gamma.gyz == pytest.approx(0.0, abs=5.0 / N)

    def test_critical_point_rejected(self):
        with pytest.raises(ValueError):
            ref.packet_params(0.1, 1.0, 1e-4, N, "pi")
        with pytest.raises(ValueError):
            ref.packet_params(0.1, 0.5, -1e-4, N, "pi")

    @pytest.mark.parametrize(
        "branch,lam,t_hi,bound",
        [
            ("pi", 0.3, np.pi, 0.005),
            ("pi", 0.5, np.pi, 0.005),
            ("pi", 2.0, 1.0, 0.09),   # hyperbolic branch keeps 1/N cosh growth
            ("zero", 0.5, np.pi, 0.005),
            ("zero", 1.0, np.pi, 0.005),
        ],
    )
    def test_packet_chain_matches_closed_forms(self, branch, lam, t_hi, bound):
        lam0 = 1e-6
        if branch == "pi":
            w2 = pm.omega_pi_squared(lam, N)
            closed = pm.cov_stable_pi if w2 > 0 else pm.cov_unstable_pi
        else:
            w2 = pm.omega_pi_squared(-lam, N)
            closed = pm.cov_zero
        w = np.sqrt(abs(w2))
        worst = 0.0
        for wt in np.linspace(0.05, t_hi, 20):
            t = wt / w
            gamma_p, jx_p = ref.moments_to_covariance(
                ref.gaussian_expectations(ref.packet_params(t, lam, lam0, N, branch), N), N
            )
            gamma_c, jx_c = closed(t, lam, N)
            for p_, c_ in [
                (gamma_p.gzz, gamma_c.gzz),
                (gamma_p.gyy, gamma_c.gyy),
                (gamma_p.gyz, gamma_c.gyz),
                (jx_p, jx_c),
            ]:
                worst = max(worst, abs(p_ - c_) / max(1.0, abs(c_)))
        assert worst < bound


class TestClosedFormCovariances:
    @pytest.mark.parametrize(
        "closed,lam",
        [(pm.cov_stable_pi, 0.5), (pm.cov_unstable_pi, 2.0), (pm.cov_zero, 1.0)],
    )
    def test_initial_condition_exact(self, closed, lam):
        gamma, jx_half = closed(0.0, lam, N)
        assert (gamma.gzz, gamma.gyy, gamma.gyz) == (1.0, 1.0, 0.0)
        assert abs(jx_half) == 1.0

    def test_minimum_identities_exact(self):
        # depth 1 - lam at 2 w t = pi, independent of N
        for lam in [0.2, 0.5, 0.8]:
            w = np.sqrt(pm.omega_pi_squared(lam, N))
            gamma, _ = pm.cov_stable_pi(np.pi / (2 * w), lam, N)
            lp, _ = lambda_pm(gamma)
            assert 1.0 / lp == pytest.approx(1.0 - lam, abs=1e-12)
        for lam in [0.5, 1.0, 2.0]:
            w = np.sqrt(pm.omega_pi_squared(-lam, N))
            gamma, _ = pm.cov_zero(np.pi / (2 * w), lam, N)
            lp, _ = lambda_pm(gamma)
            assert 1.0 / lp == pytest.approx(1.0 / (1.0 + lam), abs=1e-12)

    def test_periodicity_exact(self):
        lam = 0.5
        w = np.sqrt(pm.omega_pi_squared(lam, N))
        g0, j0 = pm.cov_stable_pi(0.123, lam, N)
        g1, j1 = pm.cov_stable_pi(0.123 + np.pi / w, lam, N)
        assert g1.gzz == pytest.approx(g0.gzz, rel=1e-12)
        assert g1.gyy == pytest.approx(g0.gyy, rel=1e-12)
        assert g1.gyz == pytest.approx(g0.gyz, rel=1e-9, abs=1e-12)
        assert j1 == pytest.approx(j0, rel=1e-12)

    @pytest.mark.parametrize(
        "closed,lam,t_hi",
        [
            (pm.cov_stable_pi, 0.3, 8.0),
            (pm.cov_stable_pi, 0.7, 6.0),
            (pm.cov_unstable_pi, 1.5, 1.5),
            (pm.cov_unstable_pi, 3.0, 0.8),
            (pm.cov_zero, 0.5, 5.0),
            (pm.cov_zero, 2.0, 3.0),
        ],
    )
    def test_unit_determinant(self, closed, lam, t_hi):
        # pure Gaussian evolution keeps det(gamma) = 1; this also pins the
        # off-diagonal prefactor at lam/2 (four times smaller and opposite in
        # normalization to a naive reading)
        for t in np.linspace(0.0, t_hi, 30):
            gamma, _ = closed(t, lam, N)
            det = gamma.gzz * gamma.gyy - gamma.gyz**2
            assert det == pytest.approx(1.0, rel=1e-10)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            pm.cov_stable_pi(0.1, 1.2, N)
        with pytest.raises(ValueError):
            pm.cov_stable_pi(0.1, 0.999, N)  # confining only below N/(N+1)
        with pytest.raises(ValueError):
            pm.cov_unstable_pi(0.1, 0.8, N)
        with pytest.raises(ValueError):
            pm.cov_zero(0.1, -0.5, N)


    @pytest.mark.parametrize("n", [2, N, 4000])
    def test_regime_is_the_closed_forms_domain(self, n):
        # "stable_pi" exactly where cov_stable_pi accepts lam, "unstable_pi" where
        # cov_unstable_pi does, None in the window N/(N+1) <= lam <= 1 + 1e-6
        edge = n / (n + 1)
        lams = [0.0, 0.3, 0.99 * edge, edge - 1e-9, edge, edge + 1e-9, 0.996, 0.9999,
                1.0, 1.0 + 5e-7, 1.0 + pm.CRITICAL_MARGIN, 1.0 + 2e-6, 1.01, 3.0]
        for lam in lams:
            accepts = []
            for closed in (pm.cov_stable_pi, pm.cov_unstable_pi):
                try:
                    closed(0.1, lam, n)
                    accepts.append(True)
                except ValueError:
                    accepts.append(False)
            want = {(True, False): "stable_pi", (False, True): "unstable_pi", (False, False): None}
            assert pm.regime("pi", lam, n) == want[tuple(accepts)], lam
            # the zero state has one closed form at every lam > 0
            assert pm.regime("zero", lam, n) == ("zero" if lam > 0 else None), lam
        assert pm.regime("pi", 0.996, N) is None and pm.regime("pi", 0.99, N) == "stable_pi"

    @pytest.mark.parametrize("lam", [0.0, -0.5])
    def test_no_regime_without_positive_lam(self, lam):
        # lam <= 0 is outside every closed form, for both states
        assert pm.regime("zero", lam, N) is None
        assert pm.regime("pi", lam, N) is None
        with pytest.raises(ValueError, match="outside the zero regime"):
            pm.cov_zero(0.1, lam, N)

    def test_regime_rejects_unknown_state(self):
        with pytest.raises(ValueError, match="unknown initial state"):
            pm.regime("custom", 0.5, N)


def exact_gamma(params, psi0, t, spec=None, jx_op=None):
    spec = spec or eigendecompose(hamiltonian(params))
    psi_t = evolve(spec, psi0, t)
    jx_op = jx_op or build_spin_operators(params.n_particles)[0]
    return covariance_yz(psi_t), expectation(jx_op, psi_t)


class TestOracleAgreement:
    """Closed forms against exact diagonalization at N = 200.

    Tolerances are the measured behavior of the harmonic approximation: 5/N
    away from criticality, degrading near lam = 1 and with the hyperbolic
    growth (deviations scale like cosh(2 w t)/N).
    """

    @pytest.mark.parametrize("lam,bound", [(0.3, 0.025), (0.5, 0.025), (0.8, 0.45)])
    def test_stable_pi_window(self, lam, bound):
        params = ModelParams.coupled(N, lam)
        spec = eigendecompose(hamiltonian(params))
        jx_op = build_spin_operators(N)[0]
        psi0 = coherent_state(N, np.pi / 2, np.pi)
        w = np.sqrt(pm.omega_pi_squared(lam, N))
        worst = 0.0
        for t in np.linspace(1e-9, np.pi / w, 60):
            gamma_n, jx_n = exact_gamma(params, psi0, t, spec, jx_op)
            gamma_a, jx_half = pm.cov_stable_pi(t, lam, N)
            for a_, n_ in [
                (gamma_a.gzz, gamma_n.gzz),
                (gamma_a.gyy, gamma_n.gyy),
                (gamma_a.gyz, gamma_n.gyz),
                (jx_half * N / 2, jx_n),
            ]:
                worst = max(worst, abs(a_ - n_) / max(1.0, abs(n_)))
        assert worst < bound

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_zero_window(self, lam):
        params = ModelParams.coupled(N, lam)
        spec = eigendecompose(hamiltonian(params))
        jx_op = build_spin_operators(N)[0]
        psi0 = coherent_state(N, np.pi / 2, 0.0)
        w = np.sqrt(pm.omega_pi_squared(-lam, N))
        worst = 0.0
        for t in np.linspace(1e-9, np.pi / w, 60):
            gamma_n, jx_n = exact_gamma(params, psi0, t, spec, jx_op)
            gamma_a, jx_half = pm.cov_zero(t, lam, N)
            for a_, n_ in [
                (gamma_a.gzz, gamma_n.gzz),
                (gamma_a.gyy, gamma_n.gyy),
                (gamma_a.gyz, gamma_n.gyz),
                (jx_half * N / 2, jx_n),
            ]:
                worst = max(worst, abs(a_ - n_) / max(1.0, abs(n_)))
        assert worst < 5.0 / N

    def test_unstable_point(self):
        # frozen example point: lam = 2 at w t = 0.5 agrees within 5/N
        lam = 2.0
        params = ModelParams.coupled(N, lam)
        psi0 = coherent_state(N, np.pi / 2, np.pi)
        w = np.sqrt(-pm.omega_pi_squared(lam, N))
        gamma_n, jx_n = exact_gamma(params, psi0, 0.5 / w)
        gamma_a, jx_half = pm.cov_unstable_pi(0.5 / w, lam, N)
        assert gamma_a.gzz == pytest.approx(gamma_n.gzz, rel=5.0 / N)
        assert gamma_a.gyy == pytest.approx(gamma_n.gyy, rel=5.0 / N)
        assert gamma_a.gyz == pytest.approx(gamma_n.gyz, rel=5.0 / N)
        assert jx_half * N / 2 == pytest.approx(jx_n, rel=5.0 / N)

    @pytest.mark.parametrize("lam", [1.5, 2.0, 3.0])
    def test_unstable_zeta2_windows(self, lam):
        params = ModelParams.coupled(N, lam)
        zeta2 = zeta2_of_time(params, coherent_state(N, np.pi / 2, np.pi))
        w = np.sqrt(-pm.omega_pi_squared(lam, N))
        worst_half, worst_full = 0.0, 0.0
        for wt in np.linspace(1e-6, 1.0, 40):
            gamma_a, _ = pm.cov_unstable_pi(wt / w, lam, N)
            lp, _ = lambda_pm(gamma_a)
            rel = abs(1.0 / lp - zeta2(wt / w)) / zeta2(wt / w)
            worst_full = max(worst_full, rel)
            if wt <= 0.5:
                worst_half = max(worst_half, rel)
        assert worst_half < 5.0 / N
        # the longer window degrades with the hyperbolic stretch (measured ~6%)
        assert worst_full < 0.08

    def test_offdiagonal_sign_and_magnitude_small_t(self):
        # the resolved off-diagonal convention: -lam sin(2wt)/(2 sqrt(1-lam))
        # around pi, +lam sin(2wt)/(2 sqrt(1+lam)) around zero
        lam = 0.5
        params = ModelParams.coupled(N, lam)
        w = np.sqrt(pm.omega_pi_squared(lam, N))
        t = 0.15 / w
        gamma_n, _ = exact_gamma(params, coherent_state(N, np.pi / 2, np.pi), t)
        gamma_a, _ = pm.cov_stable_pi(t, lam, N)
        assert gamma_n.gyz < 0
        assert gamma_a.gyz == pytest.approx(gamma_n.gyz, rel=0.02)

        gamma_n0, _ = exact_gamma(params, coherent_state(N, np.pi / 2, 0.0), t)
        gamma_a0, _ = pm.cov_zero(t, lam, N)
        assert gamma_n0.gyz > 0
        assert gamma_a0.gyz == pytest.approx(gamma_n0.gyz, rel=0.02)


class TestBargmannOverlap:
    def test_coincident_angles(self):
        import math

        n = 10
        assert ref.bargmann_overlap(0.3, 0.3, n) == pytest.approx(2**n / math.factorial(n))

    def test_orthogonal_at_pi(self):
        # cos(pi/2) is 6e-17 in floats, so "zero" means below any physical scale
        assert abs(ref.bargmann_overlap(0.0, np.pi, 8)) < 1e-100

    def test_gaussian_approximation_window(self):
        n = 200
        for d in np.linspace(-4 / np.sqrt(n), 4 / np.sqrt(n), 17):
            ratio = ref.bargmann_overlap(d, 0.0, n) / ref.bargmann_overlap(0.0, 0.0, n)
            gauss = np.exp(-n * d**2 / 8.0)
            assert ratio == pytest.approx(gauss, rel=1e-2)


class TestNormalization:
    def test_wide_packet_asymptote(self):
        a = 1e7
        assert ref.normalization(a, 0.0, 200) == pytest.approx(np.pi / a, rel=1e-5)

    def test_against_quadrature(self):
        a, b = N / 4.0, 0.0
        val = ref.normalization(a, b, N)
        quad = quad_moment(a, b, N, "one", tol=1e-11)
        assert val == pytest.approx(quad, rel=1e-2)

    def test_non_normalizable_rejected(self):
        # 4(a^2+b^2) + aN = 0 boundary
        with pytest.raises(ValueError):
            ref.normalization(-10.0, np.sqrt(10.0 * N / 4.0 - 100.0), N)


class TestGaussianExpectations:
    def test_narrow_packet_is_css(self):
        moments = ref.gaussian_expectations(ref.GaussianPacket(1e8, 0.0, "zero"), N)
        assert moments.jz2_mean == pytest.approx(N / 4.0, rel=1e-6)
        assert moments.jx_mean == pytest.approx(N / 2.0, rel=1e-6)
        assert moments.jy2_mean == pytest.approx(N / 4.0, rel=1e-4)
        assert moments.anticomm_yz_mean == pytest.approx(0.0, abs=1e-6)

    def test_pi_center_flips_odd_moments(self):
        pz = ref.GaussianPacket(37.0, 9.0, "zero")
        pp = ref.GaussianPacket(37.0, 9.0, "pi")
        mz = ref.gaussian_expectations(pz, N)
        mp = ref.gaussian_expectations(pp, N)
        assert mp.jx_mean == pytest.approx(-mz.jx_mean, rel=1e-14)
        assert mp.anticomm_yz_mean == pytest.approx(-mz.anticomm_yz_mean, rel=1e-14)
        assert mp.jz2_mean == mz.jz2_mean
        assert mp.jy2_mean == mz.jy2_mean

    def test_against_quadrature_example(self):
        a, b = 60.0, 10.0
        moments = ref.gaussian_expectations(ref.GaussianPacket(a, b, "zero"), N)
        for name, value in [
            ("jx", moments.jx_mean),
            ("jz2", moments.jz2_mean),
            ("jy2", moments.jy2_mean),
            ("anticomm_yz", moments.anticomm_yz_mean),
        ]:
            assert value == pytest.approx(quad_moment(a, b, N, name), rel=1e-2), name

    def test_non_normalizable_rejected(self):
        with pytest.raises(ValueError):
            ref.gaussian_expectations(ref.GaussianPacket(-40.0, 1.0, "zero"), N)


class TestPhaseOperatorQuadrature:
    def test_matches_closed_forms_on_gaussian(self):
        a, b = 55.0, -7.0
        moments = ref.gaussian_expectations(ref.GaussianPacket(a, b, "zero"), N)
        table = ref.spin_phase_operators_check(
            lambda p: np.exp(-(a + 1j * b) * p**2), N
        )
        assert table["jx"] == pytest.approx(moments.jx_mean, rel=1e-2)
        assert table["jz2"] == pytest.approx(moments.jz2_mean, rel=1e-2)
        assert table["jy2"] == pytest.approx(moments.jy2_mean, rel=1e-2)
        assert table["anticomm_yz"] == pytest.approx(moments.anticomm_yz_mean, rel=1e-2)

    def test_even_real_packet_has_zero_jz(self):
        table = ref.spin_phase_operators_check(lambda p: np.exp(-40.0 * p**2), N)
        assert table["jz"] == pytest.approx(0.0, abs=1e-10)
        assert table["jy"] == pytest.approx(0.0, abs=1e-8)

    def test_narrow_packet_polarized(self):
        table = ref.spin_phase_operators_check(lambda p: np.exp(-200.0 * p**2), N)
        assert table["jx"] == pytest.approx(N / 2.0, rel=1e-2)

    def test_casimir_consistency(self):
        # jx2 + jy2 + jz2 = j(j+1) holds for the composition forms
        table = ref.spin_phase_operators_check(lambda p: np.exp(-60.0 * p**2), N)
        j = N / 2.0
        total = table["jx2"] + table["jy2"] + table["jz2"]
        assert total == pytest.approx(j * (j + 1.0), rel=1e-3)

    def test_boundary_mass_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            ref.spin_phase_operators_check(lambda p: np.exp(-0.05 * p**2), N)

    def test_exact_kernel_close_to_gaussian_kernel(self):
        a = 60.0
        g = ref.spin_phase_operators_check(lambda p: np.exp(-a * p**2), N, kernel="gaussian")
        e = ref.spin_phase_operators_check(lambda p: np.exp(-a * p**2), N, kernel="exact")
        assert e["jz2"] == pytest.approx(g["jz2"], rel=2e-2)
