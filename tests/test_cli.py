"""Command-line harness: file emission, validation, determinism."""

import csv
import json
import math

import numpy as np
import pytest

import bjjsim.cli
from bjjsim.cli import (
    SWEEP_COLUMNS,
    ConfigError,
    RunConfig,
    SweepConfig,
    main,
    run_evolve,
    run_oat_compare,
    run_sweep,
    run_wigner,
)
from bjjsim.spin_core import ModelParams


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

    def test_unknown_flag_is_config_error(self, tmp_path):
        assert main(["evolve", "--frobnicate"]) == 1

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

    @pytest.mark.parametrize("line", ["window = 0.05", "degree = 3"])
    def test_fit_protocol_keys_rejected(self, tmp_path, capsys, line):
        conf = tmp_path / "run.conf"
        conf.write_text(f"n = 60\n{line}\n")
        assert main(["fit", "--config", str(conf), "--out", str(tmp_path)]) == 1
        assert "unknown config key" in capsys.readouterr().err
        assert not (tmp_path / "fit.csv").exists()

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
