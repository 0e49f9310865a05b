"""Witness formulas, series coefficients, and the fit protocol."""

from dataclasses import astuple

import numpy as np
import pytest

from bjjsim.exact_dynamics import trajectory
from bjjsim.spin_core import CovarianceYZ, ModelParams, coherent_state
from bjjsim.witnesses import (
    FIT_SAMPLES,
    FIT_WINDOW,
    TaylorCoeffs,
    WitnessRecord,
    fit_taylor_coeffs,
    golden_section_min,
    make_record,
    minimize_zeta2,
    taylor_zeta2,
    xi2_opt,
    zeta2_min,
    zeta2_opt,
)


class TestWitnessFormulas:
    def test_css_reference_values(self):
        assert xi2_opt(jx_mean=100.0, lambda_minus=1.0, n_particles=200) == pytest.approx(1.0)
        assert zeta2_opt(1.0) == pytest.approx(1.0)

    def test_stable_minimum_value(self):
        # lam = 0.5 minimum: lambda_+ = 2 at nearly full polarization
        assert zeta2_opt(2.0) == pytest.approx(0.5)
        assert xi2_opt(-100.0, 0.5, 200) == pytest.approx(0.5)

    def test_heisenberg_floor(self):
        assert zeta2_opt(200.0) == pytest.approx(1.0 / 200)

    def test_depolarized_rejected(self):
        with pytest.raises(ValueError, match="depolarized"):
            xi2_opt(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            zeta2_opt(0.0)

    def test_record_assembly(self):
        rec = make_record(0.0, 10.0, CovarianceYZ(1.0, 1.0, 0.0), 20)
        assert rec.lambda_plus == pytest.approx(1.0)
        assert rec.xi2_opt == pytest.approx(1.0)
        assert rec.zeta2_opt <= rec.xi2_opt + 1e-10

    @pytest.mark.parametrize("source", ["trajectory", "random"])
    def test_record_of_arrays_matches_records_of_floats(self, source):
        # the one reduction, elementwise: every field bitwise, except xi^2,
        # where a float squares <Jx> through pow and an array multiplies (1 ulp)
        n = 200
        if source == "trajectory":
            rec = trajectory(ModelParams.coupled(n, 2.0), coherent_state(n, np.pi / 2, np.pi),
                             np.linspace(0.0, 3.0, 50))
            t, jx, g = rec.t, rec.jx_mean, rec.gamma
        else:
            rng = np.random.default_rng(7)
            t, jx = np.sort(rng.uniform(0.0, 5.0, 200)), rng.uniform(-n / 2, n / 2, 200)
            g = CovarianceYZ(rng.uniform(0.0, 9.0, 200), rng.uniform(0.0, 9.0, 200),
                             rng.uniform(-3.0, 3.0, 200))
        arrays = make_record(t, jx, g, n)
        names, cov = ("t", "jx_mean", "lambda_plus", "lambda_minus", "zeta2_opt"), ("gzz", "gyy", "gyz")
        for i in range(t.size):
            one = make_record(t[i].item(), jx[i].item(),
                              CovarianceYZ(g.gzz[i].item(), g.gyy[i].item(), g.gyz[i].item()), n)
            got = [getattr(arrays, k)[i] for k in names] + [getattr(arrays.gamma, k)[i] for k in cov]
            want = [getattr(one, k) for k in names] + [getattr(one.gamma, k) for k in cov]
            assert np.array(got).tobytes() == np.array(want, dtype=float).tobytes()
            assert abs(arrays.xi2_opt[i] - one.xi2_opt) <= np.spacing(abs(one.xi2_opt))

    def test_record_of_arrays_iterates_by_time(self):
        gamma = CovarianceYZ(np.array([1.0, 2.0]), np.array([1.0, 0.5]), np.array([0.0, 0.1]))
        times = list(make_record(np.array([0.0, 0.5]), np.array([10.0, 8.0]), gamma, 20))
        assert [r.t for r in times] == [0.0, 0.5]
        one = make_record(0.5, 8.0, CovarianceYZ(2.0, 0.5, 0.1), 20)
        assert (times[1].gamma, times[1].zeta2_opt) == (one.gamma, one.zeta2_opt)
        assert times[1].xi2_opt == pytest.approx(one.xi2_opt, rel=1e-15)

    def test_checks_name_the_earliest_failing_time(self):
        with pytest.raises(ValueError, match=r"CovarianceYZ\(gzz=1.0, gyy=-1.0, gyz=0.5\)"):
            CovarianceYZ(np.array([1.0, 1.0, 1.0]), np.array([1.0, -1.0, -2.0]), np.array([0.0, 0.5, 0.0]))
        with pytest.raises(ValueError, match="got 0.0$"):
            zeta2_opt(np.array([1.0, 0.0, -1.0]))
        with pytest.raises(ValueError, match="depolarized"):
            xi2_opt(np.array([1.0, 0.0]), np.array([1.0, 1.0]), 10)
        # NaN passes the covariance and lambda_plus checks, as for floats
        assert np.isnan(zeta2_opt(np.array([1.0, np.nan]))[1])


class TestTaylorCoefficients:
    def test_twisting_series(self):
        assert astuple(taylor_zeta2("oat")) == pytest.approx((-1.0, 0.5, -0.125, 0.0))

    def test_pi_series_in_omega_units(self):
        # lam = 2 in the omega*t normalization: (p2, p3, p4) = (2, -4/3, 2/3)
        c = taylor_zeta2("pi", 2.0).in_omega_time(2.0)
        assert c.p1 == pytest.approx(-2.0)
        assert c.p2 == pytest.approx(2.0)
        assert c.p3 == pytest.approx(-4.0 / 3.0)
        assert c.p4 == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("lam", [0.4, 0.9, 1.2, 2.0, 3.5])
    def test_pi_series_formulas(self, lam):
        # one series for the pi state, below lam = 1 (stable_pi) as above (unstable_pi)
        c = taylor_zeta2("pi", lam).in_omega_time(lam)
        assert c.p2 == pytest.approx(lam**2 / 2)
        assert c.p3 == pytest.approx(-lam**3 / 8 - lam**2 / 6 + lam / 6)
        assert c.p4 == pytest.approx((lam**3 - lam**2) / 6)

    @pytest.mark.parametrize("lam", [0.7, 1.0, 2.0])
    def test_third_order_model_differences(self, lam):
        pi = taylor_zeta2("pi", lam)
        zero = taylor_zeta2("zero", lam)
        oat = taylor_zeta2("oat")
        assert pi.p1 == zero.p1 == oat.p1 == -1.0
        assert pi.p2 == zero.p2 == oat.p2 == 0.5
        # zero minus pi at third order is 2 lam^2 / 6 in omega*t units
        assert (zero.p3 - pi.p3) * lam**3 == pytest.approx(2 * lam**2 / 6)
        # twisting minus pi is (lam^2 - lam)/6, positive for lam > 1
        d = (oat.p3 - pi.p3) * lam**3
        assert d == pytest.approx((lam**2 - lam) / 6)
        if lam > 1:
            assert d > 0

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            taylor_zeta2("two_axis", 1.0)
        with pytest.raises(ValueError, match="unknown model"):
            taylor_zeta2("pi_" + "unstable", 2.0)  # the former key; the series is keyed by the state
        with pytest.raises(ValueError):
            taylor_zeta2("zero")  # lam required


def ratio_R(lam):
    """The third-order ratio R(lam): the pi series' p3 over the twisting p3."""
    return taylor_zeta2("pi", lam).p3 / taylor_zeta2("oat").p3


class TestRatio:
    def test_fixed_points(self):
        assert ratio_R(1.0) == pytest.approx(1.0)
        assert ratio_R(2.0) == pytest.approx(4.0 / 3.0)
        assert ratio_R(1e9) == pytest.approx(1.0, abs=2e-9)

    def test_maximum_at_two(self):
        eps = 1e-6
        deriv = (ratio_R(2.0 + eps) - ratio_R(2.0 - eps)) / (2 * eps)
        assert abs(deriv) < 1e-6
        assert ratio_R(2.0) > ratio_R(1.5)
        assert ratio_R(2.0) > ratio_R(2.5)


class TestMinimumDepths:
    def test_values(self):
        assert zeta2_min("stable_pi", 0.5, 200) == pytest.approx(0.5)
        assert zeta2_min("zero", 1.0, 200) == pytest.approx(0.5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            zeta2_min("stable_pi", 1.5, 200)
        # the domain of phase_model.regime, which has no closed form at lam <= 0
        for lam in (0.0, -0.5):
            with pytest.raises(ValueError, match="lam > 0"):
                zeta2_min("zero", lam, 200)
        with pytest.raises(ValueError):
            zeta2_min("spiral", 0.5, 200)
        # no stable pi well in the window N/(N+1) <= lam <= 1 + CRITICAL_MARGIN,
        # where regime("pi", lam, N) is None; at N = 200 the window starts at 0.995
        with pytest.raises(ValueError, match="outside the stable_pi regime"):
            zeta2_min("stable_pi", 0.999, 200)
        assert zeta2_min("stable_pi", 0.999, 2000) == pytest.approx(0.001)


def synthetic_records(coeffs, n, chi, xs, start=True):
    """One record of arrays: t = 0 (unless start is False), then zeta^2 = 1 + sum c_k x^k at xs."""
    xs = np.asarray(xs, dtype=float)
    z = 1.0 + sum(c * xs**k for k, c in enumerate(coeffs, start=1))
    t = xs / (n * chi)
    if start:
        t, z = np.concatenate([[0.0], t]), np.concatenate([[1.0], z])
    ones = np.ones_like(t)
    return WitnessRecord(
        t=t, jx_mean=n / 2.0 * ones, gamma=CovarianceYZ(ones, ones, 0.0 * ones),
        lambda_plus=1.0 / z, lambda_minus=z, xi2_opt=z, zeta2_opt=z,
    )


class TestFit:
    def test_exact_polynomial_recovery(self):
        n, chi = 100, 0.01
        coeffs = [-1.0, 0.45, -0.21, 0.08, 0.0, 0.0]
        xs = FIT_WINDOW * np.arange(1, FIT_SAMPLES + 1) / FIT_SAMPLES
        fit = fit_taylor_coeffs(synthetic_records(coeffs, n, chi, xs), n, chi)
        assert astuple(fit.coeffs) == pytest.approx(tuple(coeffs[:4]), abs=1e-10)
        assert fit.residual_norm < 1e-12

    def test_requires_time_zero_start(self):
        n, chi = 100, 0.01
        xs = FIT_WINDOW * np.arange(1, FIT_SAMPLES + 1) / FIT_SAMPLES
        recs = synthetic_records([-1.0, 0.5, 0, 0, 0, 0], n, chi, xs, start=False)
        with pytest.raises(ValueError, match="t = 0"):
            fit_taylor_coeffs(recs, n, chi)

    def test_requires_enough_samples(self):
        n, chi = 100, 0.01
        recs = synthetic_records([-1.0, 0.5, 0, 0, 0, 0], n, chi, [0.05, 0.1])
        with pytest.raises(ValueError, match="samples"):
            fit_taylor_coeffs(recs, n, chi)

    def test_exact_trajectory_fit_frozen(self):
        # oracle regression values, N = 200, lam = 2, protocol fit in omega*t
        n, lam = 200, 2.0
        params = ModelParams.coupled(n, lam)
        times = np.concatenate(
            [[0.0], FIT_WINDOW * np.arange(1, FIT_SAMPLES + 1) / (FIT_SAMPLES * n * params.chi)]
        )
        recs = trajectory(params, coherent_state(n, np.pi / 2, np.pi), times)
        fit = fit_taylor_coeffs(recs, n, params.chi)
        c = fit.coeffs.in_omega_time(lam)
        assert c.p2 == pytest.approx(1.9899999731, abs=1e-6)
        assert c.p3 == pytest.approx(-1.3200979991, abs=1e-6)
        assert c.p4 == pytest.approx(0.6499537402, abs=1e-6)
        # against the asymptotic coefficients: p2, p3 within 5/N; the fourth
        # coefficient carries a 5.0/N finite-size offset (measured 0.02507)
        assert c.p2 == pytest.approx(2.0, rel=5.0 / n)
        assert c.p3 == pytest.approx(-4.0 / 3.0, rel=5.0 / n)
        assert c.p4 == pytest.approx(2.0 / 3.0, rel=0.026)

    def test_unit_rescaling_invariance(self):
        # the regressor is N chi t: scaling chi and t oppositely changes nothing
        n = 80
        xs = FIT_WINDOW * np.arange(1, FIT_SAMPLES + 1) / FIT_SAMPLES
        coeffs = [-1.0, 0.5, -0.1, 0.02, 0.0, 0.0]
        fit_a = fit_taylor_coeffs(synthetic_records(coeffs, n, 1.0, xs), n, 1.0)
        fit_b = fit_taylor_coeffs(synthetic_records(coeffs, n, 0.01, xs), n, 0.01)
        # identical up to the t = x/(N chi) float round trip through the records
        assert astuple(fit_a.coeffs) == pytest.approx(astuple(fit_b.coeffs), rel=1e-8)


class TestMinimizers:
    def test_golden_section_quadratic(self):
        t, f = golden_section_min(lambda x: (x - 1.3) ** 2 + 0.2, 0.0, 3.0, tol=1e-8)
        assert t == pytest.approx(1.3, abs=1e-6)
        assert f == pytest.approx(0.2, abs=1e-12)

    def test_minimize_zeta2_on_smooth_function(self):
        t, f = minimize_zeta2(lambda x: np.cos(x) + 1.5, 6.0, n_grid=100, tol=1e-6)
        assert t == pytest.approx(np.pi, abs=1e-4)
        assert f == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_golden_section_rejects_bad_tol_before_evaluating(self, tol):
        def never(x):
            raise AssertionError("evaluated")

        with pytest.raises(ValueError, match="tol must be positive and finite"):
            golden_section_min(never, 0.0, 3.0, tol=tol)

    @pytest.mark.parametrize("lo, hi", [
        (1.0, 1.0), (2.0, 1.0), (float("nan"), 1.0), (0.0, float("inf"))])
    def test_golden_section_rejects_bad_bracket(self, lo, hi):
        with pytest.raises(ValueError, match="need finite lo < hi"):
            golden_section_min(lambda x: x, lo, hi)

    def test_golden_section_ends_when_the_bracket_stops_shrinking(self):
        # 1e-17 is below the float spacing near the minimum at 1: the bracket
        # stops shrinking at about 4e-16, about 76 steps down from width 3
        calls = []

        def f(x):
            calls.append(x)
            assert len(calls) <= 200, "the bracket no longer shrinks"
            return (x - 1.0) ** 2

        t, fmin = golden_section_min(f, 0.0, 3.0, tol=1e-17)
        assert t == pytest.approx(1.0, abs=1e-7)
        assert fmin <= 1e-14

    @pytest.mark.parametrize("kwargs, message", [
        ({"t_hi": float("nan")}, "t_hi must be positive and finite"),
        ({"t_hi": float("inf")}, "t_hi must be positive and finite"),
        ({"t_hi": 0.0}, "t_hi must be positive and finite"),
        ({"t_hi": -1.0}, "t_hi must be positive and finite"),
        ({"t_hi": 6.0, "tol": 0.0}, "tol must be positive and finite"),
        ({"t_hi": 6.0, "tol": float("nan")}, "tol must be positive and finite"),
        ({"t_hi": 6.0, "n_grid": 0}, "n_grid must be at least 1"),
    ])
    def test_minimize_zeta2_rejects_bad_input_before_evaluating(self, kwargs, message):
        def never(ts):
            raise AssertionError("evaluated")

        with pytest.raises(ValueError, match=message):
            minimize_zeta2(never, **kwargs)

    def test_minimize_zeta2_sends_the_grid_in_one_call(self):
        calls = []

        def f(ts):
            calls.append(np.shape(ts))
            return np.cos(ts) + 1.5

        t, _ = minimize_zeta2(f, 6.0, n_grid=100, tol=1e-6)
        assert t == pytest.approx(np.pi, abs=1e-4)
        assert calls[0] == (100,) and set(calls[1:]) == {()}

    def test_minimize_zeta2_single_grid_point(self):
        t, f = minimize_zeta2(lambda x: (x - 2.0) ** 2, 3.0, n_grid=1, tol=1e-8)
        assert t == pytest.approx(2.0, abs=1e-4)
