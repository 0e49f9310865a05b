"""Command-line harness: file emission, validation, determinism."""

import csv
import importlib
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import bjjsim.cli
import bjjsim.exact_dynamics
import bjjsim.spin_core
from bjjsim.cli import (
    ANALYTIC_COLUMNS,
    ENV_OUT_DIR,
    MAX_N,
    MAX_STEPS,
    SEPARATRIX_COLUMNS,
    SWEEP_COLUMNS,
    WIGNER_MAX_N,
    WIGNER_MULTIPOLE_BYTES,
    ConfigError,
    RunConfig,
    SweepConfig,
    _build_parser,
    _run_config_from,
    _sweep_row,
    dimensionless_frequency,
    main,
    run_evolve,
    run_oat_compare,
    run_sweep,
    run_wigner,
)
from bjjsim.exact_dynamics import zeta2_of_time
from bjjsim.spin_core import ModelParams, coherent_state
from bjjsim.wigner import separatrix
from bjjsim.witnesses import taylor_zeta2, zeta2_min


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema=")
    ncol = int(lines[0].split("columns=")[1])
    header = lines[1].split(",")
    assert len(header) == ncol
    rows = [line.split(",") for line in lines[2:]]
    for row in rows:
        assert len(row) == ncol
    return header, rows


def small_cfg(tmp_path, **kwargs):
    defaults = dict(
        params=ModelParams.coupled(60, 0.5),
        initial_state="pi",
        t_max=4.0,
        n_steps=40,
        out_dir=tmp_path,
    )
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestEvolve:
    def test_writes_schema_and_rows(self, tmp_path):
        paths = run_evolve(small_cfg(tmp_path))
        header, rows = read_csv(paths[0])
        assert header[:2] == ["t", "omega_t"]
        assert len(rows) == 40
        first = dict(zip(header, rows[0]))
        assert float(first["t"]) == 0.0
        assert float(first["zeta2_opt"]) == pytest.approx(1.0, abs=1e-9)

    def test_compare_columns(self, tmp_path):
        cfg = small_cfg(tmp_path, compare=("analytic", "oat"))
        header, rows = read_csv(run_evolve(cfg)[0])
        assert "ana_zeta2_opt" in header and "oat_zeta2_opt" in header
        row = dict(zip(header, rows[1]))
        # early times: analytic tracks the numerics closely
        assert float(row["ana_zeta2_opt"]) == pytest.approx(float(row["zeta2_opt"]), rel=0.05)

    def test_json_format(self, tmp_path):
        cfg = small_cfg(tmp_path, fmt="json")
        payload = json.loads(run_evolve(cfg)[0].read_text())
        assert payload["schema"].startswith("bjj-evolve-v")
        assert len(payload["rows"]) == 40
        assert len(payload["rows"][0]) == len(payload["columns"])

    def test_stable_minimum_appears(self, tmp_path):
        cfg = small_cfg(tmp_path, t_max=6.5, n_steps=240)
        header, rows = read_csv(run_evolve(cfg)[0])
        zcol = header.index("zeta2_opt")
        zmin = min(float(r[zcol]) for r in rows)
        assert zmin == pytest.approx(0.5, abs=5.0 / 60)

    def test_rejects_bad_config(self, tmp_path):
        with pytest.raises(ConfigError):
            small_cfg(tmp_path, t_max=0.0)
        with pytest.raises(ConfigError):
            small_cfg(tmp_path, n_steps=1)
        with pytest.raises(ConfigError):
            small_cfg(tmp_path, compare=("husimi",))

    def test_analytic_compare_rejected_at_critical(self, tmp_path):
        cfg = small_cfg(tmp_path, params=ModelParams.coupled(60, 1.0), compare=("analytic",))
        with pytest.raises(ConfigError):
            run_evolve(cfg)

    @pytest.mark.parametrize("lam", [0.996, 0.9999, 1.0 + 5e-7])
    def test_analytic_compare_rejected_between_the_pi_branches(self, tmp_path, capsys, monkeypatch, lam):
        # N/(N+1) <= lam <= 1 + 1e-6: no closed form applies; refused before propagating
        def refuse(*args, **kwargs):
            raise AssertionError("propagated")

        monkeypatch.setattr(bjjsim.cli, "trajectory", refuse)
        rc = main(["evolve", "--n", "200", "--lambda", repr(lam), "--compare", "analytic",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "analytic pi-state comparison undefined" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("lam", [0.99, 1.01])
    def test_analytic_compare_either_side_of_the_window(self, tmp_path, lam):
        rc = main(["evolve", "--n", "200", "--lambda", repr(lam), "--steps", "20",
                   "--compare", "analytic", "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "evolve.csv")
        assert header[-len(ANALYTIC_COLUMNS):] == list(ANALYTIC_COLUMNS)
        assert all(math.isfinite(float(x)) for row in rows for x in row[-len(ANALYTIC_COLUMNS):])

    @pytest.mark.parametrize("n, lam", [(60, 60 / 61), (200, 0.997)])
    def test_window_rows_run_on_omega_time(self, tmp_path, n, lam):
        # between the pi branches omega_pi may vanish; omega_t is omega t (omega = 1),
        # the rate the sweep's minimum search uses there
        cfg = small_cfg(tmp_path, params=ModelParams.coupled(n, lam))
        assert cfg.regime is None
        header, rows = read_csv(run_evolve(cfg)[0])
        assert [r[header.index("omega_t")] for r in rows] == [r[header.index("t")] for r in rows]

    @pytest.mark.parametrize(
        "state, lam, regime", [("zero", 2.0, "zero"), ("pi", 0.5, "stable_pi"), ("pi", 2.0, "unstable_pi")]
    )
    def test_analytic_run_calls_its_closed_form_once(self, tmp_path, monkeypatch, state, lam, regime):
        # counted through the module attribute, which a layer trace wraps too
        phase_model = importlib.import_module("bjjsim.phase_model")
        calls = []
        for name in ("cov_zero", "cov_stable_pi", "cov_unstable_pi"):
            def counted(*args, _name=name, _closed=getattr(phase_model, name)):
                calls.append(_name)
                return _closed(*args)

            monkeypatch.setattr(phase_model, name, counted)
        cfg = small_cfg(tmp_path, params=ModelParams.coupled(60, lam), initial_state=state,
                        compare=("analytic",))
        assert cfg.regime == regime
        run_evolve(cfg)
        assert calls == [f"cov_{regime}"]


class TestSweep:
    def test_rows_ordered_and_complete(self, tmp_path):
        cfg = SweepConfig(lambda_grid=(0.4, 2.0), base=small_cfg(tmp_path, params=ModelParams.coupled(60, 0.4)))
        header, rows = read_csv(run_sweep(cfg)[0])
        assert [float(r[0]) for r in rows] == [0.4, 2.0]
        assert all(r[-1] == "ok" for r in rows)
        row = dict(zip(header, rows[0]))
        assert float(row["zeta2_min_analytic"]) == pytest.approx(0.6)
        assert float(row["zeta2_min_numeric"]) == pytest.approx(0.6, abs=5.0 / 60)
        row2 = dict(zip(header, rows[1]))
        assert math.isnan(float(row2["zeta2_min_analytic"]))
        assert float(row2["r_analytic"]) == pytest.approx(4.0 / 3.0)

    def test_zero_state_ratio_is_the_zero_series(self, tmp_path):
        # r_analytic is the row state's p3 over the twisting p3, in the N chi t units of r_numeric
        assert main(["sweep", "--n", "200", "--state", "zero", "--lambda-grid", "0.4,2.5",
                     "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 2
        for values in rows:
            row = dict(zip(header, values))
            r_ana = float(row["r_analytic"])
            assert r_ana == taylor_zeta2("zero", float(row["lam"])).p3 / taylor_zeta2("oat").p3
            assert r_ana == pytest.approx(float(row["r_numeric"]), rel=0.05)

    def test_row_between_the_pi_branches_has_no_analytic_minimum(self, tmp_path):
        # lam = 0.997 >= N/(N+1) at N = 200: as for lam > 1, no closed-form minimum
        cfg = SweepConfig(lambda_grid=(0.997,), base=small_cfg(tmp_path, params=ModelParams.coupled(200, 0.997)))
        header, rows = read_csv(run_sweep(cfg)[0])
        row = dict(zip(header, rows[0]))
        assert row["status"] == "ok"
        assert math.isnan(float(row["zeta2_min_analytic"]))
        assert math.isfinite(float(row["zeta2_min_numeric"]))

    @pytest.mark.parametrize("n, lam", [(60, "0.98360655737704916"), (200, "0.997")])
    def test_window_row_finds_the_first_minimum(self, tmp_path, n, lam):
        # 0.98360655737704916 is N/(N+1) at N = 60, where the simulated lam has
        # omega_pi^2 = 0 exactly; both lie between the pi branches
        assert main(["sweep", "--n", str(n), "--lambda-grid", lam, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "sweep.csv")
        row = dict(zip(header, rows[0]))
        assert row["status"] == "ok"
        assert math.isnan(float(row["zeta2_min_analytic"]))
        zeta2 = zeta2_of_time(ModelParams.coupled(n, float(lam)), coherent_state(n, math.pi / 2, math.pi))
        ts = np.linspace(0.0, 3.0 * n ** (1.0 / 3.0), 2001)[1:]
        z = zeta2(ts)
        first = 1 + np.flatnonzero((z[1:-1] < z[:-2]) & (z[1:-1] <= z[2:]))[0]
        assert abs(float(row["t_at_min"]) - ts[first]) <= ts[1] - ts[0]
        assert float(row["zeta2_min_numeric"]) <= z[first]

    @pytest.mark.parametrize("n, lam", [(40, 0.9756097560975611), (78, 0.9873417721518988)])
    def test_row_at_the_stable_edge_takes_the_simulated_lam(self, tmp_path, n, lam):
        # the grid lam is outside stable_pi by an ulp, the simulated N * (lam/N)
        # inside it: the row's regime and its closed-form minimum are both the
        # simulated lam's
        assert main(["sweep", "--n", str(n), "--lambda-grid", repr(lam), "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "sweep.csv")
        row = dict(zip(header, rows[0]))
        assert row["status"] == "ok"
        simulated = ModelParams.coupled(n, lam).lam
        assert float(row["zeta2_min_analytic"]) == zeta2_min("stable_pi", simulated, n)

    @pytest.mark.parametrize("state", ["pi", "zero"])
    @pytest.mark.parametrize("lam", [0.4, 1.5, 2.3])
    def test_rows_outside_the_window_keep_their_search(self, monkeypatch, state, lam):
        # the same search window and tolerance as before the window fix, so the same bytes
        searches = []
        search = bjjsim.cli.minimize_zeta2

        def recorded(zeta2, t_hi, tol):
            searches.append((t_hi, tol))
            return search(zeta2, t_hi, tol=tol)

        monkeypatch.setattr(bjjsim.cli, "minimize_zeta2", recorded)
        assert _sweep_row((lam, 60, state, 1.0))[-1] == "ok"
        freq = dimensionless_frequency(RunConfig(params=ModelParams.coupled(60, lam), initial_state=state))
        window = 1.25 * math.pi if state == "zero" or lam < 1.0 else 1.5
        assert searches == [(window / freq, 1e-4 / freq)]

    def test_grid_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            SweepConfig(lambda_grid=(), base=small_cfg(tmp_path))
        with pytest.raises(ConfigError):
            SweepConfig(lambda_grid=(0.5, 0.4), base=small_cfg(tmp_path))
        with pytest.raises(ConfigError):
            SweepConfig(lambda_grid=(-0.5, 0.4), base=small_cfg(tmp_path))

    def test_workers_match_serial(self, tmp_path):
        grid = (0.4, 0.8)
        base_a = small_cfg(tmp_path / "a", params=ModelParams.coupled(60, 0.4))
        base_b = small_cfg(tmp_path / "b", params=ModelParams.coupled(60, 0.4), workers=2)
        path_a = run_sweep(SweepConfig(lambda_grid=grid, base=base_a))[0]
        path_b = run_sweep(SweepConfig(lambda_grid=grid, base=base_b))[0]
        assert path_a.read_bytes() == path_b.read_bytes()


    def test_error_row_reads_back(self, tmp_path, monkeypatch):
        message = 'CovarianceYZ(gzz=1.0, gyy=2.0, gyz=0.0) is "singular"'

        def fail(*args, **kwargs):
            raise RuntimeError(message)

        monkeypatch.setattr(bjjsim.cli, "minimize_zeta2", fail)
        cfg = SweepConfig(lambda_grid=(0.4,), base=small_cfg(tmp_path, params=ModelParams.coupled(60, 0.4)))
        with open(run_sweep(cfg)[0], newline="") as fh:
            fh.readline()
            header, row = list(csv.reader(fh))
        assert header == list(SWEEP_COLUMNS)
        assert len(row) == len(SWEEP_COLUMNS)
        assert row[0] == "0.40000000000000002"
        assert all(field == "nan" for field in row[1:-1])
        assert row[-1] == f"error: {message}"


class TestWigner:
    def test_snapshot_and_separatrix_files(self, tmp_path):
        cfg = small_cfg(tmp_path, params=ModelParams.coupled(30, 2.0), initial_state="pi")
        paths = run_wigner(cfg, [0.0, 1.0])
        names = sorted(p.name for p in paths)
        assert names == ["separatrix.csv", "wigner_t00.csv", "wigner_t01.csv"]
        header, rows = read_csv(paths[0])
        assert header == ["theta", "phi", "w_raw", "w_peak_normalized"]
        peak = max(float(r[3]) for r in rows)
        assert peak == pytest.approx(1.0)

    def test_snapshot_rows_mirror_across_the_equator(self, tmp_path):
        # the pi state is exchange-even: row n_theta-1-i is row i at phi index -j mod n_phi
        cfg = small_cfg(tmp_path, params=ModelParams.coupled(30, 2.0))
        _, rows = read_csv(run_wigner(cfg, [1.0], want_separatrix=False)[0])
        w = np.array([r[2:] for r in rows]).reshape(181, 361, 2)
        mirror = w[::-1, (-np.arange(361)) % 361]
        assert (w[91:] == mirror[91:]).all()

    def test_separatrix_rows_are_the_curve(self, tmp_path):
        cfg = small_cfg(tmp_path, params=ModelParams.coupled(30, 2.0))
        path = run_wigner(cfg, [0.0])[-1]
        assert path.name == "separatrix.csv"
        header, rows = read_csv(path)
        assert header == list(SEPARATRIX_COLUMNS)
        curve = separatrix(2.0)
        assert rows == [["%.17g" % x for x in (ph, z, -z)] for ph, z in zip(curve.phi, curve.z)]
        assert ["3.1415926535897931", "0", "-0"] in rows  # the fixed point (pi, 0)

    def test_no_separatrix_when_subcritical(self, tmp_path):
        cfg = small_cfg(tmp_path, params=ModelParams.coupled(30, 0.5))
        paths = run_wigner(cfg, [0.0])
        assert [p.name for p in paths] == ["wigner_t00.csv"]

    def test_separatrix_request_fails_below_critical(self, tmp_path):
        cfg = small_cfg(tmp_path, params=ModelParams.coupled(30, 0.5))
        with pytest.raises(ConfigError, match="separatrix"):
            run_wigner(cfg, [0.0], want_separatrix=True)


    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_repeat_runs_byte_identical(self, tmp_path, fmt):
        contents = []
        for run in ("r1", "r2"):
            cfg = small_cfg(tmp_path / run, params=ModelParams.coupled(30, 2.0), fmt=fmt)
            contents.append([p.read_bytes() for p in run_wigner(cfg, [0.0, 1.0])])
        assert len(contents[0]) == 3
        assert contents[0] == contents[1]


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_evolve_and_oat_compare_repeat_byte_identical(self, tmp_path, fmt):
        contents = []
        for run in ("r1", "r2"):
            cfg = small_cfg(tmp_path / run, params=ModelParams.coupled(60, 2.0), t_max=3.0,
                            fmt=fmt, compare=("analytic", "oat"))
            contents.append([p.read_bytes() for p in run_evolve(cfg) + run_oat_compare(cfg)])
        assert len(contents[0]) == 2
        assert contents[0] == contents[1]


class TestParticleLimit:
    @pytest.fixture
    def no_dense_operators(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense operator was built")

        # the package attribute bjjsim.wigner is the function, not the module
        wigner_module = importlib.import_module("bjjsim.wigner")
        for module in (bjjsim.spin_core, bjjsim.exact_dynamics, wigner_module, bjjsim.cli):
            for name in (
                "build_spin_operators", "hamiltonian", "band_spectrum",
                "_multipole_pass", "wigner",
            ):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)

    def test_limit_admits_n_4000(self, tmp_path, no_dense_operators):
        assert MAX_N >= 4000
        small_cfg(tmp_path, params=ModelParams.coupled(MAX_N, 2.0))

    def test_rejected_before_allocating(self, tmp_path, no_dense_operators):
        with pytest.raises(ConfigError, match="exceeds"):
            small_cfg(tmp_path, params=ModelParams.coupled(MAX_N + 2, 2.0))

    @pytest.mark.parametrize("command", ["evolve", "sweep", "wigner", "oat-compare", "fit"])
    def test_cli_exit_code(self, tmp_path, capsys, no_dense_operators, command):
        assert main([command, "--n", str(MAX_N + 2), "--out", str(tmp_path)]) == 1
        assert "exceeds" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_wigner_limit_rejected_before_allocating(self, tmp_path, capsys, no_dense_operators):
        assert WIGNER_MAX_N < MAX_N
        rc = main(["wigner", "--n", str(WIGNER_MAX_N + 2), "--lambda", "2.0", "--out", str(tmp_path)])
        assert rc == 1
        assert "exceeds the Wigner limit" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_wigner_snapshot_count_rejected_before_the_kernel(self, tmp_path, capsys, monkeypatch):
        # the multipoles of all snapshots are held at once; one snapshot past
        # their byte budget is refused before any propagation
        def refuse(*args, **kwargs):
            raise AssertionError("the propagation kernel ran")

        monkeypatch.setattr(bjjsim.cli, "_witness_kernel", refuse)
        most = WIGNER_MULTIPOLE_BYTES // (16 * (WIGNER_MAX_N + 1) ** 2)
        snapshots = ",".join(str(0.1 * i) for i in range(most + 1))
        rc = main(["wigner", "--n", str(WIGNER_MAX_N), "--lambda", "2.0", "--snapshots", snapshots,
                   "--out", str(tmp_path)])
        assert rc == 1
        assert f"{most + 1} snapshots exceed the limit of {most} at N = {WIGNER_MAX_N}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
        # the budget's own count passes the guard on to the kernel
        cfg = RunConfig(params=ModelParams.coupled(WIGNER_MAX_N, 2.0), out_dir=tmp_path)
        with pytest.raises(AssertionError, match="the propagation kernel ran"):
            run_wigner(cfg, [0.1 * i for i in range(most)])

    def test_wigner_limit_admits_its_bound(self, tmp_path, no_dense_operators):
        # the guard passes N = WIGNER_MAX_N on: the kernel's even-block solve and
        # propagation run, and the refusal comes from the multipole pass, which the fixture refuses
        cfg = small_cfg(tmp_path, params=ModelParams.coupled(WIGNER_MAX_N, 2.0))
        with pytest.raises(AssertionError, match="a dense operator was built"):
            run_wigner(cfg, [0.5])
        assert not any(tmp_path.iterdir())


class TestCouplingGuards:
    @pytest.fixture
    def no_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a spectrum was solved")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", refuse)

    def test_uncoupled_run_is_config_error(self, tmp_path):
        # every run is coupled, so RunConfig.regime is always phase_model.regime's answer
        with pytest.raises(ConfigError, match="omega > 0"):
            RunConfig(params=ModelParams.twisting(60))

    @pytest.mark.parametrize("argv", [
        ["fit", "--state", "zero"],
        ["fit", "--state", "pi"],
        ["evolve", "--state", "zero", "--compare", "analytic"],
        ["evolve", "--state", "pi", "--compare", "analytic,oat"],
    ])
    def test_zero_lambda_rejected_before_solving(self, tmp_path, capsys, no_solve, argv):
        rc = main([*argv, "--n", "60", "--lambda", "0", "--out", str(tmp_path)])
        assert rc == 1
        assert "needs lam > 0, got 0.0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, name", [
        (["evolve", "--state", "zero", "--compare", "oat"], "evolve.csv"),
        (["oat-compare"], "oat_compare.csv"),
        (["wigner", "--state", "zero"], "wigner_t00.csv"),
    ])
    def test_zero_lambda_runs_without_closed_form(self, tmp_path, argv, name):
        assert main([*argv, "--n", "20", "--lambda", "0", "--out", str(tmp_path)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == [name]


class TestSweepWorkers:
    @pytest.fixture
    def pools(self, monkeypatch):
        # a recording stand-in for ProcessPoolExecutor that maps in this process
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(bjjsim.cli, "ProcessPoolExecutor", RecordingPool)
        return started

    def test_more_workers_than_cores_is_config_error(self, tmp_path, capsys, monkeypatch, pools):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rc = main(["sweep", "--n", "20", "--lambda-grid", "1.5", "--workers", "500",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "workers must be between 1 and the 2 cores, got 500" in capsys.readouterr().err
        assert pools == [] and not any(tmp_path.iterdir())
        small_cfg(tmp_path, workers=2)  # the core count itself is admitted

    @pytest.mark.parametrize("grid, started", [("1.5", []), ("1.5,2.5", [2]), ("0.4,1.5,2.5", [3])])
    def test_pool_starts_no_more_processes_than_rows(self, tmp_path, monkeypatch, pools, grid, started):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert main(["sweep", "--n", "20", "--lambda-grid", grid, "--workers", "8",
                     "--out", str(tmp_path)]) == 0
        assert pools == started


class TestStepLimit:
    @pytest.fixture
    def no_time_grid(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a time grid was allocated")

        monkeypatch.setattr(np, "linspace", refuse)

    @pytest.mark.parametrize("steps", [MAX_STEPS + 1, 10**9])
    @pytest.mark.parametrize("command", ["evolve", "oat-compare"])
    def test_rejected_before_allocating(self, tmp_path, capsys, no_time_grid, command, steps):
        assert main([command, "--n", "60", "--steps", str(steps), "--out", str(tmp_path)]) == 1
        assert f"n_steps must be between 2 and {MAX_STEPS}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["evolve", "oat-compare"])
    def test_limit_admits_its_bound(self, tmp_path, capsys, no_time_grid, command):
        # past the guard, the refusal comes from the time grid, which the fixture refuses
        assert main([command, "--n", "60", "--steps", str(MAX_STEPS), "--out", str(tmp_path)]) == 2
        assert "a time grid was allocated" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestOatCompare:
    def test_difference_column_positive_in_window(self, tmp_path):
        cfg = small_cfg(tmp_path, params=ModelParams.coupled(60, 2.0), t_max=0.8, n_steps=30)
        header, rows = read_csv(run_oat_compare(cfg)[0])
        dcol = header.index("zeta2_oat_minus_bjj")
        # skip t = 0 where the difference vanishes identically
        assert all(float(r[dcol]) > 0 for r in rows[1:])


class TestMain:
    def test_evolve_exit_codes(self, tmp_path, capsys):
        rc = main([
            "evolve", "--n", "60", "--lambda", "0.5", "--state", "pi",
            "--t-max", "2.0", "--steps", "20", "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("evolve.csv")

    def test_invalid_t_max_is_config_error(self, tmp_path, capsys):
        rc = main(["evolve", "--n", "60", "--lambda", "0.5", "--t-max", "0",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_t_max_is_config_error(self, tmp_path, capsys, value):
        rc = main(["evolve", "--n", "20", "--lambda", "0.5", "--t-max", value,
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "t_max must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "evolve.csv").exists()

    @pytest.mark.parametrize("snapshots", ["nan", "0.5,inf"])
    def test_non_finite_snapshot_is_config_error(self, tmp_path, capsys, snapshots):
        rc = main(["wigner", "--n", "10", "--lambda", "2.0", "--snapshots", snapshots,
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "snapshot times must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("grid", ["nan", "0.5,nan", "inf"])
    def test_non_finite_lambda_grid_is_config_error(self, tmp_path, capsys, grid):
        rc = main(["sweep", "--n", "20", "--lambda-grid", grid, "--out", str(tmp_path)])
        assert rc == 1
        assert "lambda grid entries must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, conf, message", [
        (["sweep", "--lambda-grid", ""], "", "lambda grid must be nonempty"),
        (["sweep", "--lambda-grid", ","], "", "lambda grid must be nonempty"),
        (["sweep"], "lambda_grid =", "lambda grid must be nonempty"),
        (["wigner", "--snapshots", ""], "", "snapshot times must be finite, nonnegative and nonempty"),
        (["wigner"], "snapshots =", "snapshot times must be finite, nonnegative and nonempty"),
    ])
    def test_empty_list_is_config_error(self, tmp_path, capsys, argv, conf, message):
        # an empty list is an error, not a request for the default list
        (tmp_path / "run.conf").write_text(f"n = 20\n{conf}\n")
        out = tmp_path / "out"
        assert main(argv + ["--config", str(tmp_path / "run.conf"), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_is_config_error(self, tmp_path):
        assert main(["evolve", "--frobnicate"]) == 1

    def test_no_flags_take_the_run_config_defaults(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_OUT_DIR, raising=False)
        explicit = RunConfig(params=ModelParams.coupled(200, 2.0), initial_state="pi", t_max=10.0,
                             n_steps=200, out_dir=Path("."), fmt="csv", compare=(), workers=1)
        assert _run_config_from(_build_parser().parse_args(["evolve"])) == explicit
        monkeypatch.chdir(tmp_path)
        assert main(["evolve"]) == 0
        by_hand = run_evolve(replace(explicit, out_dir=tmp_path / "explicit"))[0]
        assert (tmp_path / "evolve.csv").read_bytes() == by_hand.read_bytes()

    def test_env_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BJJ_OUT_DIR", str(tmp_path))
        rc = main(["fit", "--n", "60", "--lambda", "2.0"])
        assert rc == 0
        assert (tmp_path / "fit.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("n = 60\nlambda = 0.5\nt_max = 2.0\nsteps = 20\n")
        rc = main(["evolve", "--config", str(conf), "--steps", "25",
                   "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "evolve.csv")
        assert len(rows) == 25  # flag wins over the config file

    def test_bad_config_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("frobnicate = 1\n")
        assert main(["evolve", "--config", str(conf), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("text, written", [
        ("n = 20\n# a comment\nn = 40\n", "n"),
        ("lam = 0.5\n\nlambda = 0.9\n", "lambda"),
        ("lambda = 0.5\n\nlam = 0.9\n", "lam"),
    ], ids=["n", "lam-lambda", "lambda-lam"])
    def test_repeated_config_key_rejected(self, tmp_path, capsys, text, written):
        # lam and lambda are one key; the error names both lines
        conf = tmp_path / "run.conf"
        conf.write_text(text)
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(conf), "--steps", "10", "--out", str(out)]) == 1
        assert f"run.conf:3: key {written!r} repeats the key of line 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["window = 0.05", "degree = 3"])
    def test_fit_protocol_keys_rejected(self, tmp_path, capsys, line):
        conf = tmp_path / "run.conf"
        conf.write_text(f"n = 60\n{line}\n")
        assert main(["fit", "--config", str(conf), "--out", str(tmp_path)]) == 1
        assert "unknown config key" in capsys.readouterr().err
        assert not (tmp_path / "fit.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--lambda", "9"],
        ["evolve", "--workers", "2"],
        ["wigner", "--workers", "2"],
        ["oat-compare", "--workers", "2"],
        ["fit", "--workers", "2"],
    ])
    def test_flag_of_another_subcommand_rejected(self, tmp_path, capsys, argv):
        assert main(argv + ["--n", "20", "--out", str(tmp_path)]) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, line", [
        ("sweep", "t_max = 2.0"),
        ("sweep", "steps = 20"),
        ("sweep", "snapshots = 0.5"),
        ("sweep", "lambda = 9"),
        ("sweep", "compare = oat"),
        ("fit", "t_max = 2.0"),
        ("fit", "steps = 20"),
        ("fit", "snapshots = 0.5"),
        ("fit", "workers = 2"),
        ("evolve", "lambda_grid = 0.5,1.5"),
        ("evolve", "snapshots = 0.5"),
        ("evolve", "workers = 2"),
    ])
    def test_config_key_of_another_subcommand_rejected(self, tmp_path, capsys, command, line):
        conf = tmp_path / "run.conf"
        conf.write_text(f"n = 20\n{line}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(conf), "--out", str(out)]) == 1
        assert "does not apply to " + command in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_keys_of_the_subcommand_accepted(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("n = 20\nlambda_grid = 1.5\nworkers = 1\nstate = zero\nformat = json\n")
        assert main(["sweep", "--config", str(conf), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "sweep.json").exists()

    @pytest.mark.parametrize("value", ["ture", "on", "2", ""])
    def test_config_boolean_typo_is_config_error(self, tmp_path, capsys, value):
        conf = tmp_path / "run.conf"
        conf.write_text(f"n = 20\nlambda = 2.0\nseparatrix = {value}\n")
        out = tmp_path / "out"
        assert main(["wigner", "--config", str(conf), "--out", str(out)]) == 1
        assert "bad value for separatrix" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, separatrix", [("YES", True), ("False", False), ("0", False)])
    def test_config_booleans_accepted(self, tmp_path, capsys, value, separatrix):
        conf = tmp_path / "run.conf"
        conf.write_text(f"n = 20\nlambda = 2.0\nseparatrix = {value}\n")
        assert main(["wigner", "--config", str(conf), "--out", str(tmp_path)]) == 0
        names = sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".csv")
        assert names == (["separatrix.csv", "wigner_t00.csv"] if separatrix else ["wigner_t00.csv"])

    def test_custom_state_rejected(self, tmp_path, capsys):
        assert main(["evolve", "--state", "custom", "--out", str(tmp_path)]) == 1
        assert main(["evolve", "--theta", "1.0", "--out", str(tmp_path)]) == 1
        assert not (tmp_path / "evolve.csv").exists()

    @pytest.mark.parametrize("line", ["theta = 1.0", "phi = 0.5"])
    def test_custom_angle_keys_rejected(self, tmp_path, capsys, line):
        conf = tmp_path / "run.conf"
        conf.write_text(f"n = 60\n{line}\n")
        assert main(["evolve", "--config", str(conf), "--out", str(tmp_path)]) == 1
        assert "unknown config key" in capsys.readouterr().err
        assert not (tmp_path / "evolve.csv").exists()

    def test_evolve_deterministic(self, tmp_path):
        args = ["evolve", "--n", "60", "--lambda", "0.5", "--t-max", "2.0",
                "--steps", "20"]
        assert main(args + ["--out", str(tmp_path / "r1")]) == 0
        assert main(args + ["--out", str(tmp_path / "r2")]) == 0
        b1 = (tmp_path / "r1" / "evolve.csv").read_bytes()
        b2 = (tmp_path / "r2" / "evolve.csv").read_bytes()
        assert b1 == b2

    def test_wigner_subcommand(self, tmp_path):
        rc = main(["wigner", "--n", "30", "--lambda", "2.0", "--snapshots", "0.0,1.0",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "separatrix.csv").exists()

    def test_sweep_subcommand(self, tmp_path):
        rc = main(["sweep", "--n", "60", "--lambda-grid", "0.4,0.8",
                   "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "sweep.csv").exists()
