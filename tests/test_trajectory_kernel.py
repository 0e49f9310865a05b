"""The band propagation kernel against a dense per-time reference.

`trajectory`, the callable of `zeta2_of_time` and the short-time fit
samples propagate with real matrix products and reduce the moments with
band arithmetic, through one kernel, whose Dicke-basis states also give
the Wigner snapshots; no run path builds the dense operators or calls
evolve.  The reference `dense_witness_of_time`, built here from the
public dense functions, runs evolve, covariance_yz and expectation on
band_spectrum, one time per call.  The two sum in different orders and
propagate with different eigensolves, so records agree to a tolerance
fixed from the dtype, 1e-12 relative with a floor of 1 (natural units:
hbar, shot noise), plus the phase error the two solves' backward errors
accumulate over t (propagation_rtol); fitted coefficients agree to a
bound set from the measured gap.  The full even block
(library_reference.even_block_spectrum) is checked as a spectrum of H
on its own, and the kernel's certified window of it as eigenpairs of a
contiguous run of that spectrum which holds psi0 to WINDOW_TOL, also at
MAX_N.  The kernel in
the window is checked against the kernel on the full band_spectrum,
with its eigensolves counted, its states against evolve, and at
N = 1000 against scipy's expm_multiply; a state with an odd part, which
the kernel propagates on the full band_spectrum, against the dense
reference.  The moments of the
even block, reduced in its own coordinates, are checked against the
Dicke reduction of the mirrored state, and the kernel's row slices
against the default ones, bit for bit.
"""

import csv
import math
import re
import sys
from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import expm_multiply

import bjjsim.exact_dynamics as exact_dynamics
from bjjsim.cli import (
    MAX_N,
    RunConfig,
    SweepConfig,
    _protocol_fit,
    dimensionless_frequency,
    run_evolve,
    run_fit,
    run_oat_compare,
    run_sweep,
    run_wigner,
)
from bjjsim.exact_dynamics import (
    _witness_kernel,
    band_spectrum,
    eigendecompose,
    evolve,
    hamiltonian,
    hamiltonian_bands,
    trajectory,
    zeta2_of_time,
)
from bjjsim.spin_core import (
    _from_even,
    _parity_coords,
    CovarianceYZ,
    ModelParams,
    StateVector,
    band_moments,
    build_spin_operators,
    coherent_state,
    covariance_yz,
    expectation,
)
from bjjsim.witnesses import WitnessRecord, fit_taylor_coeffs, fit_times, make_record, minimize_zeta2
from library_reference import even_block_spectrum

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

even_n = st.integers(1, 60).map(lambda k: 2 * k)
# the analytic pi branches exclude |lam - 1| < 0.2; keep the same range
lams = st.one_of(st.floats(0.2, 0.8, exclude_min=True), st.floats(1.2, 3.0, exclude_max=True))
phis = st.sampled_from((math.pi, 0.0))
time_grids = st.lists(st.floats(0.0, 12.0), min_size=1, max_size=12).map(sorted)


def fields(rec):
    return (rec.t, rec.jx_mean, rec.gamma.gzz, rec.gamma.gyy, rec.gamma.gyz,
            rec.lambda_plus, rec.lambda_minus, rec.xi2_opt, rec.zeta2_opt)


def dense_witness_of_time(params, psi0):
    """Reference t -> record: evolve, covariance_yz and expectation on dense operators."""
    spec = band_spectrum(params)
    jx_op = build_spin_operators(params.n_particles)[0]

    def record(t):
        psi_t = evolve(spec, psi0, t)
        return make_record(t, expectation(jx_op, psi_t), covariance_yz(psi_t), params.n_particles)

    return record


def stacked(records):
    """One-time records (floats) as one record of arrays over their times."""
    t, jx, gzz, gyy, gyz, lp, lm, xi2, zeta2 = np.array([fields(r) for r in records]).T
    return WitnessRecord(t, jx, CovarianceYZ(gzz, gyy, gyz), lp, lm, xi2, zeta2)


def assert_records_close(got, want, rtol):
    # records of arrays; one row of fields per time
    a, b = np.column_stack(fields(got)), np.column_stack(fields(want))
    assert a.shape == b.shape
    for g, w, tol in zip(a, b, np.broadcast_to(rtol, len(a))):
        assert np.all(np.abs(g - w) <= tol * np.maximum(1.0, np.abs(w))), (g, w)


def band_residual(params, w, v):
    """||H V - V diag(w)||_2 from the bands of H alone."""
    diag, off = hamiltonian_bands(params)
    hv = diag[:, None] * v
    hv[1:] += off[:, None] * v[:-1]
    hv[:-1] += off[:, None] * v[1:]
    return np.linalg.norm(hv - v * w, 2)


def even_vectors(even):
    """The even block's eigenvectors mirrored into the Dicke basis, one column each."""
    return _from_even(even.eigenvectors.T).T


def propagation_rtol(params, t):
    """Relative tolerance (floor 1) between kernel and dense records at time t.

    Each eigensolve is backward stable: its V and w diagonalize H + E
    exactly, with |E| about its residual rho = |H V - V diag(w)|, measured
    here (the two together up to 17 eps |H| on this domain).  Propagating
    with it is the exact propagator of H + E, which moves psi(t) by at most
    t |E| from exp(-iHt) psi0; so the kernel (even solve) and the
    reference (band solve) differ by at most t (rho_even + rho_band) in
    psi(t), and a moment <A>, quadratic in psi, by 2 |A psi| times that.  The factor 4
    takes |A psi| up to 2 max(1, |<A>|): over 7,900 points of the domain
    the largest (gap - 1e-12) / (t rho) measured is 1.26 (N = 118,
    lam = 2.94, pi state, t = 10.8).  The 1e-12 covers the different
    summation orders, the whole gap at t = 0.
    """
    band, even = band_spectrum(params), even_block_spectrum(params)
    rho = (band_residual(params, band.eigenvalues, band.eigenvectors)
           + band_residual(params, even.eigenvalues, even_vectors(even)))
    return 1e-12 + 4.0 * np.asarray(t, dtype=float) * rho


# The records differ by 2.7e-12 relative (gyz) at N = 96, lam = 2.9, pi
# state, t = 10.9, past a flat 1e-12 and inside propagation_rtol.
@PROPERTY
@given(n=even_n, lam=lams, phi=phis, times=time_grids)
@example(n=96, lam=2.9, phi=math.pi, times=[10.85, 10.9])
def test_records_match_scalar_path(n, lam, phi, times):
    params = ModelParams.coupled(n, lam)
    psi0 = coherent_state(n, math.pi / 2, phi)
    record = dense_witness_of_time(params, psi0)
    assert_records_close(trajectory(params, psi0, times), stacked([record(float(t)) for t in times]),
                         propagation_rtol(params, times))


@PROPERTY
@given(n=even_n, lam=lams, phi=phis, t=st.floats(0.0, 12.0))
@example(n=96, lam=2.9, phi=math.pi, t=10.9)
def test_single_time_path_matches_scalar_path(n, lam, phi, t):
    params = ModelParams.coupled(n, lam)
    psi0 = coherent_state(n, math.pi / 2, phi)
    want = dense_witness_of_time(params, psi0)(t).zeta2_opt
    got = zeta2_of_time(params, psi0)(t)
    assert abs(got - want) <= propagation_rtol(params, t) * max(1.0, abs(want))


@pytest.mark.parametrize("state", ["pi", "zero"])
@pytest.mark.parametrize("lam", [1.5, 2.0])
def test_minimum_search_matches_scalar_path(lam, state):
    # the sweep's search window and tolerance, over the kernel and the dense callable
    cfg = RunConfig(params=ModelParams.coupled(200, lam), initial_state=state)
    psi0 = coherent_state(200, math.pi / 2, math.pi if state == "pi" else 0.0)
    freq = dimensionless_frequency(cfg)
    t_hi = (1.5 if state == "pi" else 1.25 * math.pi) / freq
    tol = 1e-4 / freq
    record = dense_witness_of_time(cfg.params, psi0)
    # the dense reference takes one time per call; the grid goes through it elementwise
    dense = np.vectorize(lambda t: record(float(t)).zeta2_opt, otypes=[float])
    t_dense, z_dense = minimize_zeta2(dense, t_hi, tol=tol)
    t_kernel, z_kernel = minimize_zeta2(zeta2_of_time(cfg.params, psi0), t_hi, tol=tol)
    assert abs(t_kernel - t_dense) <= tol
    assert z_kernel == pytest.approx(z_dense, rel=1e-12)


@pytest.mark.parametrize("model, lam", [("pi", 1.5), ("pi", 2.0), ("zero", 1.5), ("zero", 2.0), ("oat", None)])
def test_fit_on_kernel_matches_dense_fit(model, lam):
    # the protocol fit amplifies sample roundoff most in p4; the worst
    # measured gap over these cases is 5.7e-10 (zero state, lam = 2)
    n = 200
    if model == "oat":
        params, phi = ModelParams.twisting(n, chi=1.0), 0.0
    else:
        params, phi = ModelParams.coupled(n, lam), math.pi if model == "pi" else 0.0
    psi0 = coherent_state(n, math.pi / 2, phi)
    record = dense_witness_of_time(params, psi0)
    records = stacked([record(float(t)) for t in fit_times(n, params.chi)])
    want = np.array(astuple(fit_taylor_coeffs(records, n, params.chi).coeffs))
    got = np.array(astuple(_protocol_fit(params, psi0).coeffs))
    assert np.all(np.abs(got - want) <= 2e-9 * np.maximum(1.0, np.abs(want))), (got, want)


def test_run_paths_build_no_dense_operators(monkeypatch, tmp_path):
    # the trajectory, fit and sweep commands run on the band kernel alone
    # (wigner: test_wigner_snapshots_come_from_one_even_block_solve)
    def refuse(*args, **kwargs):
        raise AssertionError("a dense operator path ran")

    for name, module in list(sys.modules.items()):
        if name == "bjjsim" or name.startswith("bjjsim."):
            for attr in ("build_spin_operators", "covariance_yz", "expectation", "evolve"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    cfg = RunConfig(params=ModelParams.coupled(40, 2.0), t_max=2.0, n_steps=30,
                    out_dir=tmp_path, compare=("analytic", "oat"))
    run_evolve(cfg)
    run_oat_compare(cfg)
    run_fit(RunConfig(params=ModelParams.coupled(60, 1.5), initial_state="zero", out_dir=tmp_path))
    run_sweep(SweepConfig(lambda_grid=(0.5, 2.0), base=RunConfig(params=ModelParams.coupled(20, 2.0),
                                                                 out_dir=tmp_path)))
    with open(tmp_path / "sweep.csv", newline="") as fh:
        fh.readline()
        assert [row["status"] for row in csv.DictReader(fh)] == ["ok", "ok"]  # rows catch errors
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "evolve.csv", "fit.csv", "oat_compare.csv", "sweep.csv"]


@PROPERTY
@given(n=even_n, lam=lams, phi=phis, times=time_grids)
def test_witness_hierarchy(n, lam, phi, times):
    # criterion 7 at random points: zeta^2 <= xi^2 and the Heisenberg floor 1/N
    rec = trajectory(ModelParams.coupled(n, lam), coherent_state(n, math.pi / 2, phi), times)
    assert np.all(rec.zeta2_opt <= rec.xi2_opt + 1e-10)
    assert np.all(rec.zeta2_opt >= 1.0 / n - 1e-12)


@PROPERTY
@given(n=even_n, lam=lams, phi=phis, times=time_grids)
def test_uncertainty_bound(n, lam, phi, times):
    # Schroedinger-Robertson in the y-z plane: det gamma >= (2 <Jx> / N)^2,
    # with equality for the coherent state at t = 0
    rec = trajectory(ModelParams.coupled(n, lam), coherent_state(n, math.pi / 2, phi), times)
    g = rec.gamma
    det = g.gzz * g.gyy - g.gyz**2
    slack = 1e-12 * (g.gzz * g.gyy + g.gyz**2)
    assert np.all(det >= (2.0 * rec.jx_mean / n) ** 2 - slack)


@pytest.mark.parametrize("per_chunk", [1, 3, 7])
def test_chunks_match_one_block(monkeypatch, per_chunk):
    n = 80
    params = ModelParams.coupled(n, 2.0)
    psi0 = coherent_state(n, math.pi / 2, math.pi)
    times = np.linspace(0.0, 6.0, 25)
    whole = trajectory(params, psi0, times)
    monkeypatch.setattr(exact_dynamics, "PROPAGATION_DOUBLES", 2 * (n + 1) * per_chunk)
    assert_records_close(trajectory(params, psi0, times), whole, 1e-13)


@pytest.mark.parametrize("phi", [math.pi, 0.0])
def test_row_slices_move_no_bits(monkeypatch, phi):
    # one row per slice gives the records of the default slices bit for bit:
    # a trajectory, the search's 600-time grid and the fit's samples on the full solve
    n = 200
    params, psi0 = ModelParams.coupled(n, 2.0), coherent_state(n, math.pi / 2, phi)
    grid = np.linspace(0.0, 3.0, 601)[1:]

    def run():
        return (trajectory(params, psi0, np.linspace(0.0, 6.0, 40)),
                _witness_kernel(params, psi0).records(grid),
                _witness_kernel(params, psi0, full=True).records(fit_times(n, params.chi)))

    default = run()
    monkeypatch.setattr(exact_dynamics, "SLICE_DOUBLES", 1)
    reduce, rows = exact_dynamics.band_moments, []

    def counted(*args):
        rows.append(len(args[1]))
        return reduce(*args)

    monkeypatch.setattr(exact_dynamics, "band_moments", counted)
    sliced = run()
    assert rows == [1] * (40 + 600 + len(fit_times(n, params.chi)))
    for got, want in zip(sliced, default):
        for a, b in zip(fields(got), fields(want)):
            assert np.array_equal(a, b)


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
def test_even_spectrum_is_a_spectrum_of_h(n, lam):
    # the twisting limit (lam = 0) has degenerate +-m levels
    params = ModelParams.twisting(n) if lam == 0.0 else ModelParams.coupled(n, lam)
    even = even_block_spectrum(params)
    assert even.eigenvalues.size == n // 2 + 1
    assert np.all(np.diff(even.eigenvalues) >= 0.0)
    u = even.eigenvectors
    assert np.abs(u.T @ u - np.eye(even.eigenvalues.size)).max() <= 1e-13
    # |H| is the largest |eigenvalue| of the full spectrum
    full = band_spectrum(params).eigenvalues
    norm_h = max(1.0, np.abs(full).max())
    w = even.eigenvalues
    assert np.abs(w[:, None] - full).min(axis=1).max() <= 1e-13 * norm_h
    v = even_vectors(even)
    assert v.shape == (n + 1, even.eigenvalues.size)
    assert np.abs(v.T @ v - np.eye(even.eigenvalues.size)).max() <= 1e-13
    assert band_residual(params, w, v) <= 1e-13 * norm_h
    # every column is exactly even under m -> -m
    assert np.array_equal(v[::-1], v)


def kernel_fields(rec):
    # xi^2 = N^2 lambda_- / (4 <Jx>^2) is ill-conditioned where <Jx> passes
    # through zero; it is compared through lambda_- and <Jx>
    return fields(rec)[:7] + fields(rec)[8:]


def assert_kernels_close(params, psi0, times):
    got = _witness_kernel(params, psi0).records(times)
    want = _witness_kernel(params, psi0, full=True).records(times)
    a = np.column_stack(kernel_fields(got))
    b = np.column_stack(kernel_fields(want))
    assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b))), (a, b)


@PROPERTY
@given(n=even_n, lam=st.one_of(st.just(0.0), st.floats(0.05, 5.0)), phi=phis,
       times=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).map(sorted))
def test_sector_kernel_matches_band_kernel(n, lam, phi, times):
    # the two spectra differ by roundoff, which the propagation amplifies in
    # proportion to t |H|; up to t = 1 the measured worst gap is 8e-14.
    # lam = 0 is the twisting limit with chi = 1/N, degenerate in +-m
    params = ModelParams.twisting(n, chi=1.0 / n) if lam == 0.0 else ModelParams.coupled(n, lam)
    assert_kernels_close(params, coherent_state(n, math.pi / 2, phi), np.array(times))


def count_eigensolves(monkeypatch):
    """Eigensolves made from here on, in order.

    ("full", size) for each eigh_tridiagonal call, ("values", size) for each
    eigenvalue solve (LAPACK sterf) and ("vectors", count) for the
    eigenvectors LAPACK stein computes, consecutive stein calls summed.
    """
    events = []

    def count(module, name, kind, size):
        solve = getattr(module, name)

        def counted(*args, **kwargs):
            if kind == "vectors" and events and events[-1][0] == kind:
                events[-1] = (kind, events[-1][1] + size(*args))
            else:
                events.append((kind, size(*args)))
            return solve(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(scipy.linalg, "eigh_tridiagonal", "full", lambda d, *rest: len(d))
    count(scipy.linalg.lapack, "dsterf", "values", lambda d, *rest: len(d))
    count(scipy.linalg.lapack, "dstein", "vectors", lambda d, e, w, *rest: len(w))
    return events


def even_window_solve(params, psi0):
    """One equatorial kernel's eigensolves: the even block's N/2+1 eigenvalues, its window's k eigenvectors."""
    return [("values", params.n_particles // 2 + 1), ("vectors", _witness_kernel(params, psi0).energies.size)]


@pytest.mark.parametrize("phi", [math.pi, 0.0])
@pytest.mark.parametrize("n", [2, 40, 1000])
def test_equatorial_trajectory_solves_the_even_block_once(monkeypatch, n, phi):
    params, psi0 = ModelParams.coupled(n, 2.0), coherent_state(n, math.pi / 2, phi)
    solve = even_window_solve(params, psi0)
    sizes = count_eigensolves(monkeypatch)
    trajectory(params, psi0, [0.0, 0.5, 1.0])
    assert sizes == solve
    zeta2 = zeta2_of_time(params, psi0)
    zeta2(0.5), zeta2(1.0)
    assert sizes == solve * 2


@pytest.mark.parametrize("state", ["pi", "zero"])
def test_minimum_search_sends_its_grid_in_one_kernel_call(monkeypatch, state):
    # the sweep's search: one even-block window, the whole grid in one kernel
    # call, then the golden-section refinement one time per call
    n = 200
    cfg = RunConfig(params=ModelParams.coupled(n, 2.0), initial_state=state)
    psi0 = coherent_state(n, math.pi / 2, math.pi if state == "pi" else 0.0)
    freq = dimensionless_frequency(cfg)
    t_hi = (1.5 if state == "pi" else 1.25 * math.pi) / freq
    tol = 1e-4 / freq
    calls = []
    kernel = exact_dynamics._witness_kernel
    solve = even_window_solve(cfg.params, psi0)

    def counted_kernel(params, psi):
        records = kernel(params, psi).records

        def counted(times):
            calls.append(np.array(times))
            return records(times)

        return SimpleNamespace(records=counted)

    monkeypatch.setattr(exact_dynamics, "_witness_kernel", counted_kernel)
    sizes = count_eigensolves(monkeypatch)
    minimize_zeta2(zeta2_of_time(cfg.params, psi0), t_hi, tol=tol)
    assert sizes == solve
    assert np.array_equal(calls[0], np.linspace(0.0, t_hi, 601)[1:])
    assert [len(ts) for ts in calls[1:]] == [1] * (len(calls) - 1)
    # two probes, then one per step shrinking the grid bracket (at most two
    # grid spacings wide) by the golden ratio down to tol
    steps = math.ceil(math.log(2.0 * t_hi / 600 / tol) / math.log((1.0 + math.sqrt(5.0)) / 2.0))
    assert len(calls) - 1 <= 2 + steps


@pytest.mark.parametrize("phi", [math.pi, 0.0])
def test_batched_zeta2_matches_single_times(phi):
    n = 200
    zeta2 = zeta2_of_time(ModelParams.coupled(n, 2.0), coherent_state(n, math.pi / 2, phi))
    ts = np.linspace(0.0, 3.0, 600)
    want = np.array([zeta2(float(t)) for t in ts])
    assert all(isinstance(zeta2(float(t)), float) for t in ts[:3])
    assert zeta2(np.array([])).shape == (0,)
    # any order and shape, elementwise
    grid = ts.reshape(20, 30)
    for got, shape in ((zeta2(ts), ts.shape), (zeta2(ts[::-1])[::-1], ts.shape),
                       (zeta2(grid), grid.shape)):
        assert got.shape == shape
        assert np.all(np.abs(got.ravel() - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


@PROPERTY
@given(n=even_n, lam=lams, phi=phis, times=time_grids)
@example(n=96, lam=2.9, phi=math.pi, times=[10.85, 10.9])
def test_kernel_states_match_dense_evolve(n, lam, phi, times):
    # the kernel's mirrored Dicke-basis states against evolve on the full solve
    params = ModelParams.coupled(n, lam)
    psi0 = coherent_state(n, math.pi / 2, phi)
    blocks = list(_witness_kernel(params, psi0).states(np.array(times)))
    ts = np.concatenate([b[0] for b in blocks])
    got = np.concatenate([re + 1j * im for _, re, im in blocks])
    assert np.array_equal(ts, times) and got.shape == (len(times), n + 1)
    spec = band_spectrum(params)
    for t, amp, tol in zip(times, got, np.broadcast_to(propagation_rtol(params, times), len(times))):
        assert np.linalg.norm(amp - evolve(spec, psi0, t).amplitudes) <= tol


@pytest.mark.parametrize("state", ["pi", "zero"])
def test_wigner_snapshots_come_from_one_even_block_solve(monkeypatch, tmp_path, state):
    # all snapshots from one kernel call: the even block's eigenvalues and its
    # window's eigenvectors, no full solve (the size list) and no dense
    # evolve; then one multipole pass for both snapshots, one tensor block
    # (eigh_tridiagonal) of each size 1 ... N+1
    n = 40
    solve = even_window_solve(ModelParams.coupled(n, 2.0),
                              coherent_state(n, math.pi / 2, math.pi if state == "pi" else 0.0))

    def refuse(*args, **kwargs):
        raise AssertionError("dense evolve ran")

    for name, module in list(sys.modules.items()):
        if (name == "bjjsim" or name.startswith("bjjsim.")) and hasattr(module, "evolve"):
            monkeypatch.setattr(module, "evolve", refuse)
    sizes = count_eigensolves(monkeypatch)
    cfg = RunConfig(params=ModelParams.coupled(n, 2.0), initial_state=state, out_dir=tmp_path)
    paths = run_wigner(cfg, [0.5, 1.5])
    assert sizes == solve + [("full", size) for size in range(1, n + 2)]
    assert sorted(p.name for p in paths) == ["separatrix.csv", "wigner_t00.csv", "wigner_t01.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["separatrix.csv", "wigner_t00.csv",
                                                           "wigner_t01.csv"]


@pytest.mark.parametrize("state", ["pi", "zero"])
def test_trajectory_commands_solve_the_even_block_once(monkeypatch, tmp_path, state):
    n = 40
    cfg = RunConfig(params=ModelParams.coupled(n, 2.0), initial_state=state, t_max=2.0,
                    n_steps=10, out_dir=tmp_path, compare=("analytic", "oat"))
    solve = even_window_solve(cfg.params, coherent_state(n, math.pi / 2, math.pi if state == "pi" else 0.0))
    sizes = count_eigensolves(monkeypatch)
    run_evolve(cfg)
    assert sizes == solve
    run_oat_compare(cfg)
    assert sizes == solve * 2


@pytest.mark.parametrize("state", ["pi", "zero"])
def test_sweep_solve_sizes(monkeypatch, tmp_path, state):
    # the OAT reference fit on the full solve, then per row the fit on the
    # full solve and the minimum search in the even block's window
    n = 40
    psi0 = coherent_state(n, math.pi / 2, math.pi if state == "pi" else 0.0)
    rows = [[("full", n + 1)] + even_window_solve(ModelParams.coupled(n, lam), psi0) for lam in (0.5, 2.0)]
    sizes = count_eigensolves(monkeypatch)
    run_sweep(SweepConfig(lambda_grid=(0.5, 2.0), base=RunConfig(
        params=ModelParams.coupled(n, 2.0), initial_state=state, out_dir=tmp_path)))
    assert sizes == [("full", n + 1)] + rows[0] + rows[1]
    with open(tmp_path / "sweep.csv", newline="") as fh:
        fh.readline()
        assert [row["status"] for row in csv.DictReader(fh)] == ["ok", "ok"]


@pytest.mark.parametrize("phi", [math.pi, 0.0])
def test_equatorial_odd_part_is_far_below_the_bound(phi):
    # roundoff leaves an odd part in the even coherent states; at the largest
    # N it must stay at least 10x below the bound that skips the odd block
    odd = _parity_coords(coherent_state(MAX_N, math.pi / 2, phi).amplitudes)[1]
    assert 10.0 * np.linalg.norm(odd) <= exact_dynamics.EMPTY_SECTOR_NORM


def assert_kernel_matches_dense(kernel, params, psi0):
    # records over t = 0 ... 1 against the dense per-time reference, at propagation_rtol
    times = np.linspace(0.0, 1.0, 11)
    record = dense_witness_of_time(params, psi0)
    got, want = kernel.records(times), stacked([record(float(t)) for t in times])
    a, b = np.column_stack(kernel_fields(got)), np.column_stack(kernel_fields(want))
    tol = propagation_rtol(params, times)[:, None]
    assert np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))), (a, b)


def parity_state(n, even_part, odd_part):
    # an equatorial coherent state (even) plus a multiple of a fixed odd vector
    even = coherent_state(n, math.pi / 2, math.pi).amplitudes
    odd = np.sin(np.arange(n + 1) - n / 2) * np.linspace(1.0, 2.0, n + 1)
    odd = (odd - odd[::-1]) / np.linalg.norm(odd - odd[::-1])
    amp = even_part * even + odd_part * odd
    return StateVector(n, amp / np.linalg.norm(amp))


@pytest.mark.parametrize("even_part, odd_part, solved", [
    (1.0, 0.5 * exact_dynamics.EMPTY_SECTOR_NORM, "even"),
    (1.0, 2.0 * exact_dynamics.EMPTY_SECTOR_NORM, "both"),
    (1.0, 1e-9, "both"),
    (0.0, 1.0, "odd"),
])
def test_occupied_sectors_are_solved_and_propagated(monkeypatch, even_part, odd_part, solved):
    # the even block's window when the odd part is empty: every eigenvalue of
    # the block and the window's eigenvectors; else the full solve of the
    # whole H; either way the records of the dense per-time reference
    n = 60
    params, psi0 = ModelParams.coupled(n, 2.0), parity_state(n, even_part, odd_part)
    sizes = count_eigensolves(monkeypatch)
    kernel = _witness_kernel(params, psi0)
    assert sizes == ([("values", n // 2 + 1), ("vectors", kernel.energies.size)] if solved == "even"
                     else [("full", n + 1)])
    assert_kernel_matches_dense(kernel, params, psi0)


def assert_certified_window(params, psi0):
    """The kernel's window: eigenpairs of a contiguous run of the even block's spectrum, holding psi0 to WINDOW_TOL.

    Returns the window's eigenvalues, the block's whole spectrum and the
    tolerance on eigenvalues.
    """
    kernel = _witness_kernel(params, psi0)
    x = _parity_coords(psi0.amplitudes)[0]
    w, u, certificate = exact_dynamics._window(params, x)
    assert (kernel.energies.size, kernel.certificate) == (w.size, certificate)
    assert certificate <= exact_dynamics.WINDOW_TOL
    assert np.linalg.norm(x - u @ (u.T @ x)) <= exact_dynamics.WINDOW_TOL * np.linalg.norm(x)
    assert np.abs(u.T @ u - np.eye(w.size)).max() <= 1e-13
    # the bounds of test_even_spectrum_is_a_spectrum_of_h, on the window
    norm_h = max(1.0, np.abs(band_spectrum(params).eigenvalues).max())
    tol = 1e-13 * norm_h
    sector = even_block_spectrum(params).eigenvalues
    assert np.all(np.diff(w) >= 0.0)
    assert np.abs(w[:, None] - sector).min(axis=1).max() <= tol
    # a contiguous run: no other eigenvalue of the block lies between the window's
    inside = np.count_nonzero((sector >= w[0] - tol) & (sector <= w[-1] + tol))
    assert inside == w.size
    assert band_residual(params, w, _from_even(u.T).T) <= tol
    return w, sector, tol


@PROPERTY
@given(n=even_n, lam=st.one_of(st.just(0.0), st.floats(0.05, 5.0)), phi=phis)
@example(n=2, lam=1.5, phi=math.pi)
@example(n=2, lam=0.0, phi=0.0)
@example(n=60, lam=0.0, phi=math.pi)
def test_window_is_certified(n, lam, phi):
    # lam = 0 is omega = 0: every off-diagonal is -0.0 and H splits into 1 x 1 blocks
    params = ModelParams.twisting(n) if lam == 0.0 else ModelParams.coupled(n, lam)
    assert_certified_window(params, coherent_state(n, math.pi / 2, phi))


@pytest.mark.parametrize("phi", [math.pi, 0.0])
def test_window_hands_lapack_one_block_at_omega_zero(monkeypatch, phi):
    # at omega = 0 every off-diagonal is -0.0, yet sterf gets the whole even
    # block and splits it itself, and stein gets it as one block too
    n = 60
    sizes = count_eigensolves(monkeypatch)
    _witness_kernel(ModelParams.twisting(n), coherent_state(n, math.pi / 2, phi))
    assert sizes == [("values", n // 2 + 1), ("vectors", n // 2 + 1)]


@pytest.mark.parametrize("phi, lam, where", [
    (0.0, 2.0, "bottom"),
    (math.pi, 0.5, "top"),
    (math.pi, 2.0, "interior"),
])
def test_window_at_the_edges_and_inside(phi, lam, where):
    # the zero state sits at the bottom of the spectrum, the pi state at its
    # top below the bifurcation and inside it above; at N = 1000 each takes
    # at most 100 of the 501 eigenvectors of the even block
    n = 1000
    params, psi0 = ModelParams.coupled(n, lam), coherent_state(n, math.pi / 2, phi)
    w, sector, tol = assert_certified_window(params, psi0)
    assert w.size <= 100 and sector.size == n // 2 + 1
    edges = abs(w[0] - sector[0]) <= tol, abs(w[-1] - sector[-1]) <= tol
    assert edges == {"bottom": (True, False), "top": (False, True), "interior": (False, False)}[where]


def test_spread_state_takes_the_whole_block():
    # a random even state occupies every eigenvector: the window grows to all
    # indices, and the kernel still gives the dense reference's records
    n = 60
    rng = np.random.default_rng(3)
    coords = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
    amp = _from_even(coords)
    params, psi0 = ModelParams.coupled(n, 2.0), StateVector(n, amp / np.linalg.norm(amp))
    assert_certified_window(params, psi0)
    kernel = _witness_kernel(params, psi0)
    assert kernel.energies.size == n // 2 + 1
    assert_kernel_matches_dense(kernel, params, psi0)


@pytest.mark.parametrize("n, lam, theta, phi", [
    (60, 2.0, 1.2, math.pi),
    (200, 2.0, 1.2, math.pi),
    (200, 5.0, 1.2, math.pi),
    (1000, 5.0, 1.2, math.pi),
])
def test_dicke_basis_window_is_certified(monkeypatch, n, lam, theta, phi):
    # off the equator psi0 has an odd part: the kernel takes the full
    # (N+1)-point solve of the whole Dicke basis, every index, no window of it
    params, psi0 = ModelParams.coupled(n, lam), coherent_state(n, theta, phi)
    sizes = count_eigensolves(monkeypatch)
    kernel = _witness_kernel(params, psi0)
    assert sizes == [("full", n + 1)]
    assert kernel.energies.size == n + 1
    assert kernel.certificate <= exact_dynamics.WINDOW_TOL


def test_odd_part_takes_one_full_solve_at_large_n(monkeypatch):
    # an odd part far below any check's reach still leaves the even block:
    # one (N+1)-point solve, no inverse iteration, the dense reference's records
    n = 1000
    params, psi0 = ModelParams.coupled(n, 2.0), parity_state(n, 1.0, 1e-9)
    sizes = count_eigensolves(monkeypatch)
    kernel = _witness_kernel(params, psi0)
    assert sizes == [("full", n + 1)]
    assert_kernel_matches_dense(kernel, params, psi0)


@pytest.mark.parametrize("lam", [0.2, 2.0, 10.0])
@pytest.mark.parametrize("phi", [math.pi, 0.0])
def test_window_stays_short_at_max_n(phi, lam):
    # coherent_state's roundoff sets a floor of about 6.9e-13 under the
    # certificate at MAX_N, 1.45x below WINDOW_TOL; as that margin shrinks
    # the window grows towards all N/2+1 indices, which fails here
    params, psi0 = ModelParams.coupled(MAX_N, lam), coherent_state(MAX_N, math.pi / 2, phi)
    kernel = _witness_kernel(params, psi0)
    assert kernel.certificate <= exact_dynamics.WINDOW_TOL
    assert kernel.energies.size <= 300


@pytest.mark.parametrize("routine", ["dsterf", "dstein"])
def test_window_solve_failure_names_n(monkeypatch, routine):
    # a LAPACK failure (info > 0) is a numerical failure naming N, as in _spectrum
    solve = getattr(scipy.linalg.lapack, routine)

    def failing(*args, **kwargs):
        *out, _ = solve(*args, **kwargs)
        return (*out, 1)

    monkeypatch.setattr(scipy.linalg.lapack, routine, failing)
    params, psi0 = ModelParams.coupled(40, 2.0), coherent_state(40, math.pi / 2, math.pi)
    with pytest.raises(RuntimeError, match=r"failed to converge for N=40: LAPACK \w+ info=1"):
        _witness_kernel(params, psi0)


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
    r = trajectory(params, psi0, times)
    got = np.column_stack((r.jx_mean, r.gamma.gzz, r.gamma.gyy, r.gamma.gyz))
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


@PROPERTY
@given(n=even_n, seed=st.integers(0, 2**32 - 1))
@example(n=2, seed=0)
def test_block_moments_match_mirrored_dicke_moments(n, seed):
    # a random state of the even block, reduced in its block coordinates and,
    # mirrored into the Dicke basis, by the Dicke reduction
    rng = np.random.default_rng(seed)
    size = n // 2 + 1
    coords = rng.normal(size=(3, size)) + 1j * rng.normal(size=(3, size))
    coords /= np.linalg.norm(coords, axis=1, keepdims=True)
    amp = _from_even(coords)
    got = band_moments(n, coords.real, coords.imag, True)
    want = band_moments(n, amp.real, amp.imag)
    assert np.array_equal(got.jy, np.zeros(3)) and np.array_equal(got.jz, np.zeros(3))
    for name in ("norm", "jx", "gzz", "gyy", "gyz"):
        g, w = getattr(got, name), getattr(want, name)
        assert np.all(np.abs(g - w) <= 1e-13 * np.maximum(1.0, np.abs(w))), name
    # one state as a 1-D row
    single = band_moments(n, coords[0].real, coords[0].imag, True)
    assert all(np.array_equal(a, b[0]) for a, b in zip(single, got))


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
    with pytest.raises(ValueError, match="outside the supported symmetry class") as grid:
        zeta2_of_time(ModelParams.coupled(n, 2.0), psi0)(np.array([0.0, 0.5]))
    # same text; the printed moments agree up to summation order
    number = r"-?\d\.\d{3}e[+-]\d+"
    want = [float(x) for x in re.findall(number, str(scalar.value))]
    for err in (kernel.value, single.value, grid.value):
        assert re.sub(number, "#", str(err)) == re.sub(number, "#", str(scalar.value))
        got = [float(x) for x in re.findall(number, str(err))]
        assert got == pytest.approx(want, rel=1e-2, abs=1e-12 * n)


def test_dimension_mismatch():
    # the kernel's own check, not a shape error of numpy's matmul ("mismatch in its core dimension")
    params, psi0 = ModelParams.coupled(10, 1.5), coherent_state(12, math.pi / 2, math.pi)
    with pytest.raises(ValueError, match="dimension mismatch: model dim=11, state dim=13"):
        trajectory(params, psi0, [0.0])
    with pytest.raises(ValueError, match="dimension mismatch: model dim=11, state dim=13"):
        _witness_kernel(params, psi0, full=True)


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


@pytest.mark.parametrize("spoil, later, message", [
    ("norm", 1.0 + 2e-9, f"state is not normalized: |psi| = {1.0 + 1e-9!r}"),
    ("jz", 2.0, "<Jz> = 1.000e+00 must vanish"),
    ("gyy", -2.0, "gyy=-1.0, "),
])
def test_spoiled_time_in_a_later_block_raises_with_its_value(monkeypatch, spoil, later, message):
    # blocks of three times; times 7 and 9 (third and fourth block) are spoiled,
    # and the message carries the value at the earlier one
    n = 20
    monkeypatch.setattr(exact_dynamics, "PROPAGATION_DOUBLES", 2 * (n + 1) * 3)
    first = {"norm": 1.0 + 1e-9, "jz": 1.0, "gyy": -1.0}[spoil]
    rows = {2: (1, first), 3: (0, later)}  # block index: (row in the block, value)
    reduce, blocks = exact_dynamics.band_moments, []

    def spoiled(*args):
        mom = reduce(*args)
        column = getattr(mom, spoil).copy()
        if len(blocks) in rows:
            row, value = rows[len(blocks)]
            column[row] = value
        blocks.append(len(column))
        return mom._replace(**{spoil: column})

    monkeypatch.setattr(exact_dynamics, "band_moments", spoiled)
    with pytest.raises(ValueError) as err:
        trajectory(ModelParams.coupled(n, 2.0), coherent_state(n, math.pi / 2, math.pi),
                   np.linspace(0.0, 2.0, 12))
    assert blocks == [3, 3, 3, 3]
    assert message in str(err.value)


def test_check_order_wins_over_time_order(monkeypatch):
    # every check covers all times before the next check runs: a norm
    # failure at a later time is reported before a covariance failure at an earlier one
    spoil_band_moments(monkeypatch, {"gyy": -1.0}, 1)
    spoil_band_moments(monkeypatch, {"norm": 1.0 + 1e-9}, 2)
    with pytest.raises(ValueError, match="not normalized"):
        trajectory(ModelParams.coupled(20, 2.0), coherent_state(20, math.pi / 2, math.pi), [0.0, 0.5, 1.0])


def test_each_trajectory_is_one_witness_reduction(monkeypatch, tmp_path):
    shapes = []  # of the t argument of every make_record call, wherever bjjsim binds it

    def counted(t, *args):
        shapes.append(np.shape(t))
        return make_record(t, *args)

    for name, module in list(sys.modules.items()):
        if (name == "bjjsim" or name.startswith("bjjsim.")) and getattr(module, "make_record", None) is make_record:
            monkeypatch.setattr(module, "make_record", counted)
    cfg = RunConfig(params=ModelParams.coupled(40, 2.0), t_max=2.0, n_steps=30,
                    out_dir=tmp_path, compare=("analytic", "oat"))
    run_evolve(cfg)
    # the exact trajectory, the closed-form analytic columns and the OAT columns
    assert shapes == [(30,)] * 3
    shapes.clear()
    psi0 = coherent_state(40, math.pi / 2, math.pi)
    minimize_zeta2(zeta2_of_time(cfg.params, psi0), 1.0, tol=1e-4)
    # the whole grid in one reduction, then the refinement one time per call
    assert shapes[0] == (600,) and set(shapes[1:]) == {(1,)}


@pytest.mark.parametrize("spoil, message", SPOILS)
def test_single_time_path_raises_like_trajectory(monkeypatch, spoil, message):
    params, psi0 = ModelParams.coupled(20, 2.0), coherent_state(20, math.pi / 2, math.pi)
    spoil_band_moments(monkeypatch, spoil, slice(None))
    with pytest.raises(ValueError, match=message) as batched:
        trajectory(params, psi0, [0.5])
    with pytest.raises(ValueError, match=message) as single:
        zeta2_of_time(params, psi0)(0.5)
    assert str(single.value) == str(batched.value)
