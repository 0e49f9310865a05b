"""Command-line harness: deterministic experiment runs and figure-data emission.

Subcommands: evolve (witness trajectory), sweep (per-interaction summary over
a grid), wigner (sphere grids plus separatrix), oat-compare (coupled vs pure
twisting), fit (short-time coefficient extraction).  All runs are seedless;
repeated runs with the same configuration at the same BLAS thread count
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import phase_model
from .wigner import separatrix as separatrix_curve, wigner as wigner_grid
from .exact_dynamics import hamiltonian, eigendecompose, evolve, trajectory, zeta2_of_time
from .oat import oat_covariance, oat_jx
from .output import write_table
from .spin_core import ModelParams, StateVector, coherent_state
from .witnesses import (
    fit_taylor_coeffs,
    make_record,
    minimize_zeta2,
    ratio_R,
    taylor_zeta2,
    zeta2_min,
    FIT_SAMPLES,
    FIT_WINDOW,
)

ENV_OUT_DIR = "BJJ_OUT_DIR"

EVOLVE_COLUMNS = (
    "t", "omega_t", "jx_mean", "gzz", "gyy", "gyz",
    "lambda_plus", "lambda_minus", "xi2_opt", "zeta2_opt",
)
ANALYTIC_COLUMNS = (
    "ana_jx_mean", "ana_gzz", "ana_gyy", "ana_gyz",
    "ana_lambda_plus", "ana_lambda_minus", "ana_xi2_opt", "ana_zeta2_opt",
)
OAT_COLUMNS = (
    "oat_jx_mean", "oat_lambda_plus", "oat_lambda_minus", "oat_xi2_opt", "oat_zeta2_opt",
)
SWEEP_COLUMNS = (
    "lam", "zeta2_min_numeric", "t_at_min", "zeta2_min_analytic",
    "p2_fit", "p3_fit", "p4_fit", "p2_analytic", "p3_analytic", "p4_analytic",
    "r_numeric", "r_analytic", "status",
)
WIGNER_COLUMNS = ("theta", "phi", "w_raw", "w_peak_normalized")
SEPARATRIX_COLUMNS = ("phi", "z_plus", "z_minus")
OAT_COMPARE_COLUMNS = (
    "t", "n_chi_t", "zeta2_bjj", "xi2_bjj", "zeta2_oat", "xi2_oat", "zeta2_oat_minus_bjj",
)
FIT_COLUMNS = (
    "lam", "p1_fit", "p2_fit", "p3_fit", "p4_fit",
    "p1_analytic", "p2_analytic", "p3_analytic", "p4_analytic",
    "residual_norm", "condition_number",
)


class ConfigError(Exception):
    """Invalid run configuration; maps to exit code 1."""


@dataclass(frozen=True)
class RunConfig:
    """One experiment: parameters, initial state, time grid, output selection."""

    params: ModelParams
    initial_state: str = "pi"  # "pi", "zero" or "custom"
    theta: float = math.pi / 2.0
    phi: float = math.pi
    t_max: float = 10.0
    n_steps: int = 200
    out_dir: Path = field(default_factory=Path)
    fmt: str = "csv"
    compare: tuple[str, ...] = ()
    workers: int = 1

    def __post_init__(self):
        if self.initial_state not in ("pi", "zero", "custom"):
            raise ConfigError(f"unknown initial state {self.initial_state!r}")
        if self.t_max <= 0:
            raise ConfigError(f"t_max must be positive, got {self.t_max}")
        if self.n_steps < 2:
            raise ConfigError(f"n_steps must be at least 2, got {self.n_steps}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        unknown = set(self.compare) - {"analytic", "oat"}
        if unknown:
            raise ConfigError(f"unknown compare targets {sorted(unknown)}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


@dataclass(frozen=True)
class SweepConfig:
    lambda_grid: tuple[float, ...]
    base: RunConfig
    compare: tuple[str, ...] = ("analytic", "oat")

    def __post_init__(self):
        if not self.lambda_grid:
            raise ConfigError("lambda grid must be nonempty")
        if any(l <= 0 for l in self.lambda_grid):
            raise ConfigError("lambda grid entries must be positive")
        if any(b <= a for a, b in zip(self.lambda_grid, self.lambda_grid[1:])):
            raise ConfigError("lambda grid must be strictly ascending")


def initial_state_vector(cfg: RunConfig) -> StateVector:
    n = cfg.params.n_particles
    if cfg.initial_state == "pi":
        return coherent_state(n, math.pi / 2.0, math.pi)
    if cfg.initial_state == "zero":
        return coherent_state(n, math.pi / 2.0, 0.0)
    return coherent_state(n, cfg.theta, cfg.phi)


def dimensionless_frequency(cfg: RunConfig) -> float:
    """Rate carrying the natural dimensionless time of the active regime.

    omega_pi for the pi state, omega_0 otherwise; N chi (the twisting rate)
    when the coupling vanishes.
    """
    p = cfg.params
    if p.omega == 0.0:
        return p.n_particles * p.chi
    if cfg.initial_state == "pi":
        return p.omega * math.sqrt(abs(phase_model.omega_pi_squared(p.lam, p.n_particles)))
    return p.omega * math.sqrt(phase_model.omega_zero_squared(p.lam, p.n_particles))


def _analytic_row(cfg: RunConfig, t: float) -> tuple:
    p = cfg.params
    lam = p.lam
    if cfg.initial_state == "pi":
        if phase_model.omega_pi_squared(lam, p.n_particles) > 0.0:
            gamma, jx_half = phase_model.cov_stable_pi(t, lam, p.n_particles, p.omega)
        else:
            gamma, jx_half = phase_model.cov_unstable_pi(t, lam, p.n_particles, p.omega)
    else:
        gamma, jx_half = phase_model.cov_zero(t, lam, p.n_particles, p.omega)
    rec = make_record(t, jx_half * p.n_particles / 2.0, gamma, p.n_particles)
    return (rec.jx_mean, gamma.gzz, gamma.gyy, gamma.gyz,
            rec.lambda_plus, rec.lambda_minus, rec.xi2_opt, rec.zeta2_opt)


def _oat_row(cfg: RunConfig, t: float) -> tuple:
    p = cfg.params
    rec = make_record(t, float(oat_jx(p.n_particles, p.chi, t)),
                      oat_covariance(p.n_particles, p.chi, t), p.n_particles)
    return (rec.jx_mean, rec.lambda_plus, rec.lambda_minus, rec.xi2_opt, rec.zeta2_opt)


def _validate_compare(cfg: RunConfig):
    if "analytic" in cfg.compare:
        p = cfg.params
        if p.omega == 0.0:
            raise ConfigError("analytic comparison needs a coupled run (omega > 0)")
        if cfg.initial_state == "custom":
            raise ConfigError("analytic comparison is defined for the pi and zero states only")
        if cfg.initial_state == "pi" and abs(p.lam - 1.0) < phase_model.CRITICAL_MARGIN:
            raise ConfigError("analytic pi-state comparison undefined at the critical point lam = 1")


def run_evolve(cfg: RunConfig) -> list[Path]:
    """One witness trajectory; one row per time step."""
    _validate_compare(cfg)
    psi0 = initial_state_vector(cfg)
    times = np.linspace(0.0, cfg.t_max, cfg.n_steps)
    freq = dimensionless_frequency(cfg)

    columns = list(EVOLVE_COLUMNS)
    if "analytic" in cfg.compare:
        columns += list(ANALYTIC_COLUMNS)
    if "oat" in cfg.compare:
        columns += list(OAT_COLUMNS)

    rows = []
    for rec in trajectory(cfg.params, psi0, times):
        row = [rec.t, freq * rec.t, rec.jx_mean, rec.gamma.gzz, rec.gamma.gyy,
               rec.gamma.gyz, rec.lambda_plus, rec.lambda_minus, rec.xi2_opt, rec.zeta2_opt]
        if "analytic" in cfg.compare:
            row += list(_analytic_row(cfg, rec.t))
        if "oat" in cfg.compare:
            row += list(_oat_row(cfg, rec.t))
        rows.append(row)

    path = cfg.out_dir / f"evolve.{cfg.fmt}"
    return [write_table(path, cfg.fmt, "bjj-evolve", columns, rows)]


def _fit_in_omega_time(params: ModelParams, psi0: StateVector):
    """Protocol fit of the exact trajectory, reported in powers of omega*t."""
    n, chi = params.n_particles, params.chi
    times = np.concatenate([[0.0], FIT_WINDOW * np.arange(1, FIT_SAMPLES + 1) / FIT_SAMPLES / (n * chi)])
    fit = fit_taylor_coeffs(trajectory(params, psi0, times), n, chi)
    return fit, fit.coeffs.in_omega_time(params.lam) if params.omega > 0 else None


def _sweep_row(args) -> list:
    lam, n, state, oat_p3 = args
    try:
        params = ModelParams.coupled(n, lam)
        cfg = RunConfig(params=params, initial_state=state)
        psi0 = initial_state_vector(cfg)

        freq = dimensionless_frequency(cfg)
        stable = state == "zero" or phase_model.omega_pi_squared(lam, n) > 0.0
        # stable regimes: cover the first witness minimum near 2 w t = pi
        t_hi = 1.25 * math.pi / freq if stable else 1.5 / freq
        t_min, z_min = minimize_zeta2(zeta2_of_time(params, psi0), t_hi, tol=1e-4 / freq)

        if state == "zero":
            z_ana = zeta2_min("zero", lam)
        elif lam < 1.0:
            z_ana = zeta2_min("stable_pi", lam)
        else:
            z_ana = math.nan

        fit, fit_omega = _fit_in_omega_time(params, psi0)
        model = "zero" if state == "zero" else "pi_unstable"
        ana = taylor_zeta2(model, lam).in_omega_time(lam)
        ana_p = (ana.p2, ana.p3, ana.p4)
        r_num = fit.coeffs.p3 / oat_p3 if oat_p3 else math.nan
        return [lam, z_min, t_min, z_ana,
                fit_omega.p2, fit_omega.p3, fit_omega.p4, *ana_p,
                r_num, ratio_R(lam), "ok"]
    except Exception as exc:  # error rows keep the sweep going
        nan = math.nan
        return [lam, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan,
                f"error: {exc}"]


def run_sweep(cfg: SweepConfig) -> list[Path]:
    """Per-interaction summary rows, deterministic order regardless of workers."""
    base = cfg.base
    n = base.params.n_particles
    # twisting-only reference coefficient for the third-order ratio
    oat_params = ModelParams.twisting(n, chi=1.0)
    oat_fit, _ = _fit_in_omega_time(oat_params, coherent_state(n, math.pi / 2.0, 0.0))
    oat_p3 = oat_fit.coeffs.p3

    jobs = [(lam, n, base.initial_state, oat_p3) for lam in cfg.lambda_grid]
    if base.workers > 1:
        with ProcessPoolExecutor(max_workers=base.workers) as pool:
            rows = list(pool.map(_sweep_row, jobs))
    else:
        rows = [_sweep_row(job) for job in jobs]
    rows.sort(key=lambda r: r[0])

    path = base.out_dir / f"sweep.{base.fmt}"
    return [write_table(path, base.fmt, "bjj-sweep", SWEEP_COLUMNS, rows)]


def run_wigner(cfg: RunConfig, snapshot_times, want_separatrix: bool | None = None) -> list[Path]:
    """Sphere grids at the snapshot times, plus the separatrix when it exists."""
    snapshot_times = [float(t) for t in snapshot_times]
    if not snapshot_times or any(t < 0 for t in snapshot_times):
        raise ConfigError("snapshot times must be nonnegative and nonempty")
    p = cfg.params
    lam = p.lam
    has_separatrix = lam is not None and lam > 1.0
    if want_separatrix and not has_separatrix:
        raise ConfigError(f"no separatrix through (pi, 0) for lam = {lam}")
    emit_separatrix = has_separatrix if want_separatrix is None else want_separatrix

    psi0 = initial_state_vector(cfg)
    spec = eigendecompose(hamiltonian(p))
    written: list[Path] = []
    try:
        for i, t in enumerate(snapshot_times):
            grid = wigner_grid(evolve(spec, psi0, t))
            theta, phi = np.meshgrid(grid.theta_samples, grid.phi_samples, indexing="ij")
            rows = np.column_stack(
                [theta.ravel(), phi.ravel(), grid.values.ravel(), grid.peak_normalized().ravel()]
            )
            path = cfg.out_dir / f"wigner_t{i:02d}.{cfg.fmt}"
            written.append(write_table(path, cfg.fmt, "bjj-wigner", WIGNER_COLUMNS, rows))
        if emit_separatrix:
            curve = separatrix_curve(lam)
            rows = [[ph, z, -z] for ph, z in zip(curve.phi, curve.z)]
            path = cfg.out_dir / f"separatrix.{cfg.fmt}"
            written.append(write_table(path, cfg.fmt, "bjj-separatrix", SEPARATRIX_COLUMNS, rows))
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return written


def run_oat_compare(cfg: RunConfig) -> list[Path]:
    """Coupled dynamics against the twisting-only benchmark at equal N, chi."""
    if cfg.params.omega == 0.0:
        raise ConfigError("oat-compare needs a coupled run (omega > 0)")
    psi0 = initial_state_vector(cfg)
    times = np.linspace(0.0, cfg.t_max, cfg.n_steps)
    n, chi = cfg.params.n_particles, cfg.params.chi
    rows = []
    for rec in trajectory(cfg.params, psi0, times):
        o = make_record(rec.t, float(oat_jx(n, chi, rec.t)), oat_covariance(n, chi, rec.t), n)
        rows.append([rec.t, n * chi * rec.t, rec.zeta2_opt, rec.xi2_opt,
                     o.zeta2_opt, o.xi2_opt, o.zeta2_opt - rec.zeta2_opt])
    path = cfg.out_dir / f"oat_compare.{cfg.fmt}"
    return [write_table(path, cfg.fmt, "bjj-oat-compare", OAT_COMPARE_COLUMNS, rows)]


def run_fit(cfg: RunConfig) -> list[Path]:
    """Short-time coefficient extraction for one parameter point."""
    if cfg.params.omega == 0.0:
        model = "oat"
        ana = taylor_zeta2("oat")
    else:
        model = "zero" if cfg.initial_state == "zero" else "pi_unstable"
        ana = taylor_zeta2(model, cfg.params.lam)
    psi0 = initial_state_vector(cfg)
    fit, _ = _fit_in_omega_time(cfg.params, psi0)
    c = fit.coeffs
    lam = cfg.params.lam if cfg.params.lam is not None else math.nan
    rows = [[lam, c.p1, c.p2, c.p3, c.p4, ana.p1, ana.p2, ana.p3, ana.p4,
             fit.residual_norm, fit.condition_number]]
    path = cfg.out_dir / f"fit.{cfg.fmt}"
    return [write_table(path, cfg.fmt, "bjj-fit", FIT_COLUMNS, rows)]


# ---------------------------------------------------------------------------
# argument handling

def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        values["lam" if key == "lambda" else key] = value.strip()
    return values


_CONFIG_KEYS = {
    "n": int, "lam": float, "state": str, "theta": float, "phi": float,
    "t_max": float, "steps": int, "out": str, "format": str, "compare": str,
    "workers": int, "lambda_grid": str, "snapshots": str, "separatrix": bool,
}


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    if not getattr(args, "config", None):
        return args
    raw = _read_config_file(args.config)
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if getattr(args, key, None) is None:
            cast = _CONFIG_KEYS[key]
            try:
                setattr(args, key, value.lower() in ("1", "true", "yes") if cast is bool else cast(value))
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {value!r}") from exc
    return args


def _add_common(sub: argparse.ArgumentParser, state_default: bool = True):
    sub.add_argument("--config", help="flat key = value config file; flags override")
    sub.add_argument("--n", type=int, default=None, help="particle number (even)")
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="interaction over tunneling; omega is 1, chi = lam/N")
    if state_default:
        sub.add_argument("--state", choices=("pi", "zero", "custom"), default=None,
                         help="initial coherent state")
        sub.add_argument("--theta", type=float, default=None, help="custom state polar angle")
        sub.add_argument("--phi", type=float, default=None, help="custom state azimuth")
    sub.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUT_DIR} or cwd)")
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    sub.add_argument("--workers", type=int, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bjjsim",
        description="Entanglement dynamics of a two-mode bosonic Josephson junction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_evolve = sub.add_parser("evolve", help="witness trajectory at fixed parameters")
    _add_common(p_evolve)
    p_evolve.add_argument("--t-max", dest="t_max", type=float, default=None)
    p_evolve.add_argument("--steps", type=int, default=None)
    p_evolve.add_argument("--compare", default=None, help="comma list from {analytic,oat}")

    p_sweep = sub.add_parser("sweep", help="minima, fitted coefficients and ratio over a lambda grid")
    _add_common(p_sweep)
    p_sweep.add_argument("--lambda-grid", dest="lambda_grid", default=None,
                         help="comma list of ascending positive lambdas")

    p_wig = sub.add_parser("wigner", help="Wigner sphere grids and separatrix")
    _add_common(p_wig)
    p_wig.add_argument("--snapshots", default=None, help="comma list of snapshot times")
    p_wig.add_argument("--separatrix", action="store_const", const=True, default=None,
                       help="require the separatrix file (error when lam <= 1)")

    p_oat = sub.add_parser("oat-compare", help="coupled vs twisting-only witnesses")
    _add_common(p_oat)
    p_oat.add_argument("--t-max", dest="t_max", type=float, default=None)
    p_oat.add_argument("--steps", type=int, default=None)

    p_fit = sub.add_parser("fit", help="short-time coefficient extraction")
    _add_common(p_fit)

    return parser


def _float_list(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad {what} list: {text!r}") from exc


def _run_config_from(args: argparse.Namespace) -> RunConfig:
    n = args.n if args.n is not None else 200
    lam = args.lam if args.lam is not None else 2.0
    try:
        params = ModelParams.coupled(n, lam)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    state = getattr(args, "state", None) or "pi"
    compare = tuple(tok for tok in (getattr(args, "compare", None) or "").split(",") if tok)
    out_dir = Path(args.out if args.out is not None else os.environ.get(ENV_OUT_DIR, "."))
    return RunConfig(
        params=params,
        initial_state=state,
        theta=args.theta if getattr(args, "theta", None) is not None else math.pi / 2.0,
        phi=args.phi if getattr(args, "phi", None) is not None else math.pi,
        t_max=args.t_max if getattr(args, "t_max", None) is not None else 10.0,
        n_steps=args.steps if getattr(args, "steps", None) is not None else 200,
        out_dir=out_dir,
        fmt=args.format if args.format is not None else "csv",
        compare=compare,
        workers=args.workers if args.workers is not None else 1,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; those are configuration errors here
        return 0 if exc.code == 0 else 1
    try:
        args = _merge_config(args)
        cfg = _run_config_from(args)
        if args.command == "evolve":
            paths = run_evolve(cfg)
        elif args.command == "sweep":
            grid_text = args.lambda_grid or "0.2,0.4,0.6,0.8"
            sweep = SweepConfig(lambda_grid=_float_list(grid_text, "lambda grid"), base=cfg)
            paths = run_sweep(sweep)
        elif args.command == "wigner":
            snaps = _float_list(args.snapshots or "0.0", "snapshot")
            paths = run_wigner(cfg, snaps, want_separatrix=args.separatrix)
        elif args.command == "oat-compare":
            paths = run_oat_compare(cfg)
        elif args.command == "fit":
            paths = run_fit(cfg)
        else:  # pragma: no cover
            raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"bjjsim: configuration error: {exc}", file=sys.stderr)
        print(f"run 'bjjsim {args.command} --help' for usage", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"bjjsim: numerical failure: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
