"""The oracle agrees with bjjsim, and the output checks catch corrupted files."""

import math

import numpy as np
import pytest

import oracle
import reference
from workloads import WORKLOADS, EvolveLargeN, SweepSmallN, WignerGrid, job_rng

from bjjsim.exact_dynamics import trajectory
from bjjsim.spin_core import ModelParams, coherent_state

SMALL = [EvolveLargeN(n=40, steps=12), SweepSmallN(n=40), WignerGrid(n=10)]


def _library_witnesses(records, name):
    if name in ("gzz", "gyy", "gyz"):
        return [getattr(r.gamma, name) for r in records]
    return [getattr(r, name) for r in records]


@pytest.mark.parametrize("phi", [math.pi, 0.0])
@pytest.mark.parametrize("n, lam", [(40, 0.6), (40, 2.5), (200, 1.7)])
def test_oracle_matches_library_trajectory(n, lam, phi):
    times = np.linspace(0.0, 3.0, 7)
    records = trajectory(ModelParams.coupled(n, lam), coherent_state(n, math.pi / 2, phi), times)
    exact = oracle.Junction(n, lam / n, 1.0)
    ref = exact.witnesses(exact.states(oracle.coherent_equatorial(n, phi), times))
    for name, want in ref.items():
        assert oracle.mismatch(_library_witnesses(records, name), want, name) == []


def test_twisting_oracle_matches_library():
    n, chi = 60, 0.03
    times = np.linspace(0.0, 2.0, 9)
    records = trajectory(ModelParams.twisting(n, chi), coherent_state(n, math.pi / 2, 0.0), times)
    twist = oracle.Junction(n, chi, 0.0)
    ref = twist.witnesses(twist.states(oracle.coherent_equatorial(n, 0.0), times))
    for name, want in ref.items():
        assert oracle.mismatch(_library_witnesses(records, name), want, name) == []


def test_clenshaw_curtis_integrates_polynomials_exactly():
    theta = np.linspace(0.0, np.pi, 181)
    w = oracle.clenshaw_curtis(180)
    for degree in (0, 1, 7, 60, 180):
        exact = (1.0 - (-1.0) ** (degree + 1)) / (degree + 1)  # int_{-1}^{1} x^d dx
        assert w @ np.cos(theta) ** degree == pytest.approx(exact, abs=1e-13)


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_checks_pass_on_library_output(workload, tmp_path):
    workload.setup()
    for index in range(2):
        job = workload.draw(job_rng(workload.name, 7, index, "input"))
        paths = workload.run(job, tmp_path)
        assert workload.check(job, paths, job_rng(workload.name, 7, index, "check")) == []


def _scale_field(path, column, factor, row=None):
    lines = path.read_text().splitlines()
    i = lines[1].split(",").index(column)
    body = [line.split(",") for line in lines[2:]]
    if row is None:  # the row holding the largest value of the column
        row = max(range(len(body)), key=lambda r: float(body[r][i]))
    body[row][i] = repr(float(body[row][i]) * factor)
    path.write_text("\n".join(lines[:2] + [",".join(f) for f in body]) + "\n")


# Fitted coefficients are checked to the precision the fit can deliver from
# exact samples (about 1e-5 relative for p4), hence the larger corruption.
@pytest.mark.parametrize("workload, file, column, row, change", [
    (SMALL[0], "evolve.csv", "gyy", 0, 1e-6),
    (SMALL[0], "evolve.csv", "oat_xi2_opt", 0, 1e-6),
    (SMALL[1], "sweep.csv", "zeta2_min_numeric", 0, 1e-6),
    (SMALL[1], "sweep.csv", "p4_fit", 1, 1e-4),
    (SMALL[2], "wigner_t00.csv", "w_raw", None, 1e-6),
    (SMALL[2], "separatrix.csv", "z_plus", 5, 1e-6),
], ids=lambda v: getattr(v, "name", str(v)))
def test_checks_catch_a_corrupted_value(workload, file, column, row, change, tmp_path):
    workload.setup()
    job = workload.draw(job_rng(workload.name, 7, 0, "input"))
    paths = workload.run(job, tmp_path)
    _scale_field(tmp_path / file, column, 1.0 + change, row)
    assert workload.check(job, paths, job_rng(workload.name, 7, 0, "check")) != []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_reference_matches_seed_outputs(name, tmp_path):
    workload = WORKLOADS[name]
    workload.setup()
    ref = reference.load()
    job = workload.draw(job_rng(name, reference.DEFAULT_SEED, 0, "input"))
    paths = workload.run(job, tmp_path)
    assert reference.compare(ref, name, reference.DEFAULT_SEED, 0, paths) == []

    first = next(iter(ref[name][0].values()))
    value = first["values"][-1][-1]
    first["values"][-1][-1] = repr(float(value) * (1.0 + 1e-6)) if value not in ("nan", "ok") else "1.5"
    assert reference.compare(ref, name, reference.DEFAULT_SEED, 0, paths) != []
