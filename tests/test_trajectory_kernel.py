"""The band propagation kernel against the dense scalar per-time path.

`trajectory` and the callable of `zeta2_of_time` propagate with real
matrix products and reduce the moments with band arithmetic, through one
kernel; `witness_of_time` runs evolve, covariance_yz and expectation on
dense operators, one time per call.  The two sum in different orders, so
values agree to a tolerance fixed from the dtype: 1e-12 relative with a
floor of 1 (natural units: hbar, shot noise).  The kernel's spectrum
(parity_spectrum) is checked as a spectrum of H on its own, and at
N = 1000 the kernel is checked against scipy's expm_multiply.
"""

import math
import re

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import expm_multiply

import bjjsim.exact_dynamics as exact_dynamics
from bjjsim.cli import RunConfig, dimensionless_frequency
from bjjsim.exact_dynamics import (
    band_spectrum,
    eigendecompose,
    hamiltonian,
    hamiltonian_bands,
    parity_spectrum,
    trajectory,
    witness_of_time,
    zeta2_of_time,
)
from bjjsim.spin_core import (
    ModelParams,
    StateVector,
    band_moments,
    build_spin_operators,
    coherent_state,
    covariance_yz,
    expectation,
)
from bjjsim.witnesses import minimize_zeta2

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

even_n = st.integers(1, 60).map(lambda k: 2 * k)
# the analytic pi branches exclude |lam - 1| < 0.2; keep the same range
lams = st.one_of(st.floats(0.2, 0.8, exclude_min=True), st.floats(1.2, 3.0, exclude_max=True))
phis = st.sampled_from((math.pi, 0.0))
time_grids = st.lists(st.floats(0.0, 12.0), min_size=1, max_size=12).map(sorted)


def fields(rec):
    return (rec.t, rec.jx_mean, rec.gamma.gzz, rec.gamma.gyy, rec.gamma.gyz,
            rec.lambda_plus, rec.lambda_minus, rec.xi2_opt, rec.zeta2_opt)


def assert_records_close(got, want, rtol):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        a, b = np.array(fields(g)), np.array(fields(w))
        assert np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))), (a, b)


@PROPERTY
@given(n=even_n, lam=lams, phi=phis, times=time_grids)
def test_records_match_scalar_path(n, lam, phi, times):
    params = ModelParams.coupled(n, lam)
    psi0 = coherent_state(n, math.pi / 2, phi)
    record = witness_of_time(params, psi0)
    assert_records_close(trajectory(params, psi0, times), [record(float(t)) for t in times], 1e-12)


@PROPERTY
@given(n=even_n, lam=lams, phi=phis, t=st.floats(0.0, 12.0))
def test_single_time_path_matches_scalar_path(n, lam, phi, t):
    params = ModelParams.coupled(n, lam)
    psi0 = coherent_state(n, math.pi / 2, phi)
    want = witness_of_time(params, psi0)(t).zeta2_opt
    assert abs(zeta2_of_time(params, psi0)(t) - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("state", ["pi", "zero"])
@pytest.mark.parametrize("lam", [1.5, 2.0])
def test_minimum_search_matches_scalar_path(lam, state):
    # the sweep's search window and tolerance, over the kernel and the dense callable
    cfg = RunConfig(params=ModelParams.coupled(200, lam), initial_state=state)
    psi0 = coherent_state(200, math.pi / 2, math.pi if state == "pi" else 0.0)
    freq = dimensionless_frequency(cfg)
    t_hi = (1.5 if state == "pi" else 1.25 * math.pi) / freq
    tol = 1e-4 / freq
    record = witness_of_time(cfg.params, psi0)
    t_dense, z_dense = minimize_zeta2(lambda t: record(t).zeta2_opt, t_hi, tol=tol)
    t_kernel, z_kernel = minimize_zeta2(zeta2_of_time(cfg.params, psi0), t_hi, tol=tol)
    assert abs(t_kernel - t_dense) <= tol
    assert z_kernel == pytest.approx(z_dense, rel=1e-12)


@PROPERTY
@given(n=even_n, lam=lams, phi=phis, times=time_grids)
def test_witness_hierarchy(n, lam, phi, times):
    # criterion 7 at random points: zeta^2 <= xi^2 and the Heisenberg floor 1/N
    for rec in trajectory(ModelParams.coupled(n, lam), coherent_state(n, math.pi / 2, phi), times):
        assert rec.zeta2_opt <= rec.xi2_opt + 1e-10
        assert rec.zeta2_opt >= 1.0 / n - 1e-12


@PROPERTY
@given(n=even_n, lam=lams, phi=phis, times=time_grids)
def test_uncertainty_bound(n, lam, phi, times):
    # Schroedinger-Robertson in the y-z plane: det gamma >= (2 <Jx> / N)^2,
    # with equality for the coherent state at t = 0
    for rec in trajectory(ModelParams.coupled(n, lam), coherent_state(n, math.pi / 2, phi), times):
        g = rec.gamma
        det = g.gzz * g.gyy - g.gyz**2
        slack = 1e-12 * (g.gzz * g.gyy + g.gyz**2)
        assert det >= (2.0 * rec.jx_mean / n) ** 2 - slack


@pytest.mark.parametrize("per_chunk", [1, 3, 7])
def test_chunks_match_one_block(monkeypatch, per_chunk):
    n = 80
    params = ModelParams.coupled(n, 2.0)
    psi0 = coherent_state(n, math.pi / 2, math.pi)
    times = np.linspace(0.0, 6.0, 25)
    whole = trajectory(params, psi0, times)
    monkeypatch.setattr(exact_dynamics, "PROPAGATION_DOUBLES", 2 * (n + 1) * per_chunk)
    assert_records_close(trajectory(params, psi0, times), whole, 1e-13)


@PROPERTY
@given(n=even_n, lam=st.one_of(st.just(0.0), st.floats(0.05, 5.0)))
def test_band_spectrum_is_bitwise_dense_spectrum(n, lam):
    params = ModelParams.twisting(n) if lam == 0.0 else ModelParams.coupled(n, lam)
    dense = eigendecompose(hamiltonian(params))
    banded = band_spectrum(params)
    assert np.array_equal(banded.eigenvalues, dense.eigenvalues)
    assert np.array_equal(banded.eigenvectors, dense.eigenvectors)


@PROPERTY
@given(n=even_n, lam=st.one_of(st.just(0.0), st.floats(0.05, 5.0)))
@example(n=2, lam=0.0)
@example(n=2, lam=1.5)
def test_parity_spectrum_is_a_spectrum_of_h(n, lam):
    # the twisting limit (lam = 0) has degenerate +-m levels
    params = ModelParams.twisting(n) if lam == 0.0 else ModelParams.coupled(n, lam)
    spec = parity_spectrum(params)
    w, v = spec.eigenvalues, spec.eigenvectors
    assert np.all(np.diff(w) >= 0.0)
    full = band_spectrum(params).eigenvalues
    assert np.abs(w - full).max() <= 1e-13 * max(1.0, np.abs(full).max())
    assert np.abs(v.T @ v - np.eye(n + 1)).max() <= 1e-13
    # H V - V diag(w) from the bands alone; |H| is the largest |eigenvalue|
    diag, off = hamiltonian_bands(params)
    hv = diag[:, None] * v
    hv[1:] += off[:, None] * v[:-1]
    hv[:-1] += off[:, None] * v[1:]
    assert np.linalg.norm(hv - v * w, 2) <= 1e-13 * np.abs(w).max()
    # every column is exactly even or exactly odd under m -> -m
    even = np.all(v[::-1] == v, axis=0)
    odd = np.all(v[::-1] == -v, axis=0)
    assert np.all(even | odd)
    assert even.sum() == n // 2 + 1


def test_trajectory_matches_expm_multiply_at_large_n():
    # lam = 3 pi state: self-trapped, near-degenerate doublets in the full spectrum
    n, times = 1000, [0.5, 2.0, 5.0, 10.0]
    params = ModelParams.coupled(n, 3.0)
    psi0 = coherent_state(n, math.pi / 2, math.pi)
    diag, off = hamiltonian_bands(params)
    h = scipy.sparse.diags([off, diag, off], [-1, 0, 1], format="csr")
    states = np.array([expm_multiply(-1j * t * h, psi0.amplitudes) for t in times])
    mom = band_moments(n, states.real, states.imag)
    want = np.stack([mom.jx, mom.gzz, mom.gyy, mom.gyz], axis=1)
    got = np.array([(r.jx_mean, r.gamma.gzz, r.gamma.gyy, r.gamma.gyz)
                    for r in trajectory(params, psi0, times)])
    assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


@PROPERTY
@given(n=even_n, seed=st.integers(0, 2**32 - 1))
def test_band_moments_match_dense_operators(n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    psi = StateVector(n, amp / np.linalg.norm(amp))
    jx, jy, jz = build_spin_operators(n)
    mom = band_moments(n, psi.amplitudes.real, psi.amplitudes.imag)
    # raw second moments, as covariance_yz forms them but without its first-moment check
    jy_psi, jz_psi = jy.matrix @ psi.amplitudes, jz.matrix @ psi.amplitudes
    want = {
        "norm": 1.0,
        "jx": expectation(jx, psi),
        "jy": expectation(jy, psi),
        "jz": expectation(jz, psi),
        "gzz": 4.0 * np.vdot(jz_psi, jz_psi).real / n,
        "gyy": 4.0 * np.vdot(jy_psi, jy_psi).real / n,
        "gyz": 4.0 * np.vdot(jy_psi, jz_psi).real / n,
    }
    for name, value in want.items():
        assert getattr(mom, name) == pytest.approx(value, rel=1e-12, abs=1e-12), name


@pytest.mark.parametrize("theta, phi", [(1.0, math.pi), (math.pi / 2, 0.4), (2.5, -1.0)])
def test_off_equatorial_state_raises_like_scalar_path(theta, phi):
    n = 40
    psi0 = coherent_state(n, theta, phi)
    with pytest.raises(ValueError, match="outside the supported symmetry class") as scalar:
        covariance_yz(psi0)
    with pytest.raises(ValueError, match="outside the supported symmetry class") as kernel:
        trajectory(ModelParams.coupled(n, 2.0), psi0, [0.0, 0.5])
    with pytest.raises(ValueError, match="outside the supported symmetry class") as single:
        zeta2_of_time(ModelParams.coupled(n, 2.0), psi0)(0.0)
    # same text; the printed moments agree up to summation order
    number = r"-?\d\.\d{3}e[+-]\d+"
    want = [float(x) for x in re.findall(number, str(scalar.value))]
    for err in (kernel.value, single.value):
        assert re.sub(number, "#", str(err)) == re.sub(number, "#", str(scalar.value))
        got = [float(x) for x in re.findall(number, str(err))]
        assert got == pytest.approx(want, rel=1e-2, abs=1e-12 * n)


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        trajectory(ModelParams.coupled(10, 1.5), coherent_state(12, math.pi / 2, math.pi), [0.0])


SPOILS = [
    ({"norm": 1.0 + 1e-9}, "state is not normalized"),
    ({"jz": 1.0}, "outside the supported symmetry class"),
    ({"gyy": -1.0}, "diagonal covariance entries must be nonnegative"),
    ({"jx": 0.0}, "fully depolarized"),
    ({"gzz": 0.0, "gyy": 0.0, "gyz": 0.0}, "lambda_plus must be positive"),
    ({"norm": math.nan}, "state is not normalized"),
    ({"jy": math.nan}, "outside the supported symmetry class"),
]


def spoil_band_moments(monkeypatch, spoil, rows):
    reduce = exact_dynamics.band_moments

    def spoiled(*args):
        mom = reduce(*args)
        changed = {}
        for name, value in spoil.items():
            column = getattr(mom, name).copy()
            column[rows] = value
            changed[name] = column
        return mom._replace(**changed)

    monkeypatch.setattr(exact_dynamics, "band_moments", spoiled)


@pytest.mark.parametrize("spoil, message", SPOILS)
def test_every_check_applies_per_time(monkeypatch, spoil, message):
    # spoil the second time only: the checks run on every time, not just the first
    spoil_band_moments(monkeypatch, spoil, 1)
    with pytest.raises(ValueError, match=message):
        trajectory(ModelParams.coupled(20, 2.0), coherent_state(20, math.pi / 2, math.pi), [0.0, 0.5, 1.0])


@pytest.mark.parametrize("spoil, message", SPOILS)
def test_single_time_path_raises_like_trajectory(monkeypatch, spoil, message):
    params, psi0 = ModelParams.coupled(20, 2.0), coherent_state(20, math.pi / 2, math.pi)
    spoil_band_moments(monkeypatch, spoil, slice(None))
    with pytest.raises(ValueError, match=message) as batched:
        trajectory(params, psi0, [0.5])
    with pytest.raises(ValueError, match=message) as single:
        zeta2_of_time(params, psi0)(0.5)
    assert str(single.value) == str(batched.value)
