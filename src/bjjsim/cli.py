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
from functools import cached_property
from pathlib import Path

import numpy as np

from . import phase_model
from .wigner import _multipole_pass, _sphere_grid, separatrix as separatrix_curve
from .exact_dynamics import _witness_kernel, band_spectrum, trajectory, zeta2_of_time
from .oat import oat_trajectory
from .output import GridRows, write_table
from .spin_core import ModelParams, StateVector, check_normalized, coherent_state
from .witnesses import (
    fit_taylor_coeffs,
    fit_times,
    make_record,
    minimize_zeta2,
    taylor_zeta2,
    zeta2_min,
)

ENV_OUT_DIR = "BJJ_OUT_DIR"
#: Largest particle number accepted.  Trajectories and the minimum search
#: hold the k eigenvectors of the even block's window, (N/2+1) k doubles
#: (k <= 245 at N = 4000: 3.7 MiB).  The fit samples hold the full real
#: eigenvector matrix V, 8 (N+1)^2 bytes (122 MiB at N = 4000), as does a
#: state with an odd part, and the eigensolver peaks at about twice that
#: while it runs; that sets the limit.  No run path builds an operator
#: table.
MAX_N = 4000
#: Largest particle number for `wigner`.  Memory is O(N^2): the multipole
#: pass holds two tensor blocks and (N+1)^2 complex multipoles per snapshot,
#: each grid array holds 8 (2N+3)(4N+5) bytes (16 MB at N = 500), and the
#: CSV writer holds the value text of the northern rows until their mirror
#: rows are written (about 48 MB at N = 500).  Time is O(N^3) in the pass
#: and in the Legendre tables, and each snapshot's CSV holds about 690 N^2
#: bytes.  At N = 500 (2-core host, one BLAS thread) one snapshot runs in
#: 7-10 s at 146 MiB peak RSS and writes 172 MB; two run in 13 s at
#: 150 MiB.  Run time and file size keep the limit at 500: at 2N the
#: O(N^3) parts take 8 times as long and the CSV is 4 times the size.
#: Memory no longer sets it.
WIGNER_MAX_N = 500
#: Bytes of the multipoles that `wigner` holds for all its snapshots at
#: once, 16 (N+1)^2 per snapshot (3.8 MiB at N = 500): the one multipole
#: pass fills them all before the first grid is summed, so they grow with
#: the snapshot count that no other limit bounds.  128 MiB admits 33
#: snapshots at N = 500 and 2254 at N = 60.  At N = 500 (one BLAS thread)
#: the propagation and the pass peak at 75 MiB RSS for one snapshot and
#: 200 MiB for 33, and one snapshot's grids and CSV text add about
#: 70 MiB: below the about 320 MB of the largest fit.  More snapshots are
#: a configuration error before any propagation.
WIGNER_MULTIPOLE_BYTES = 2**27
#: Most time steps accepted by `evolve` and `oat-compare`.  Every column is
#: an array of n_steps doubles, and both writers convert and write the rows
#: a block at a time: `evolve --compare analytic,oat` peaks at about
#: 0.4 kB per step in CSV and in JSON (156 MB RSS in CSV and 159 to
#: 164 MB in JSON at 200 000 steps for N = 60, 160 to 165 MB in JSON for
#: N = 1000), half the peak of the largest fit and sweep at MAX_N.  The
#: CSV peak is 5 MB above the 151 MB it had before the kernel's row
#: slices (`exact_dynamics.SLICE_DOUBLES`): their temporaries come from
#: the heap, which keeps freed pages; that is accepted for the slices'
#: speed on short grids.
MAX_STEPS = 200_000

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
    initial_state: str = "pi"  # "pi" or "zero"
    t_max: float = 10.0
    n_steps: int = 200
    out_dir: Path = field(default_factory=Path)
    fmt: str = "csv"
    compare: tuple[str, ...] = ()
    workers: int = 1

    def __post_init__(self):
        if self.params.omega == 0.0:
            raise ConfigError("a run needs a coupled junction (omega > 0)")
        if self.params.n_particles > MAX_N:
            raise ConfigError(f"N = {self.params.n_particles} exceeds the limit N <= {MAX_N}")
        if self.initial_state not in ("pi", "zero"):
            raise ConfigError(f"unknown initial state {self.initial_state!r}")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ConfigError(f"t_max must be positive and finite, got {self.t_max}")
        if not 2 <= self.n_steps <= MAX_STEPS:
            raise ConfigError(f"n_steps must be between 2 and {MAX_STEPS}, got {self.n_steps}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        unknown = set(self.compare) - {"analytic", "oat"}
        if unknown:
            raise ConfigError(f"unknown compare targets {sorted(unknown)}")
        # a pool starts all its processes at once; no more of them than cores
        cores = os.cpu_count() or 1
        if not 1 <= self.workers <= cores:
            raise ConfigError(f"workers must be between 1 and the {cores} cores, got {self.workers}")

    @cached_property
    def regime(self) -> str | None:
        """The closed form of the run, phase_model.regime's answer."""
        p = self.params
        return phase_model.regime(self.initial_state, p.lam, p.n_particles)


@dataclass(frozen=True)
class SweepConfig:
    lambda_grid: tuple[float, ...]
    base: RunConfig

    def __post_init__(self):
        if not self.lambda_grid:
            raise ConfigError("lambda grid must be nonempty")
        if not all(math.isfinite(l) for l in self.lambda_grid):
            raise ConfigError(f"lambda grid entries must be finite, got {self.lambda_grid}")
        if any(l <= 0 for l in self.lambda_grid):
            raise ConfigError("lambda grid entries must be positive")
        if any(b <= a for a, b in zip(self.lambda_grid, self.lambda_grid[1:])):
            raise ConfigError("lambda grid must be strictly ascending")


def initial_state_vector(cfg: RunConfig) -> StateVector:
    n = cfg.params.n_particles
    return coherent_state(n, math.pi / 2.0, math.pi if cfg.initial_state == "pi" else 0.0)


def dimensionless_frequency(cfg: RunConfig) -> float:
    """Rate carrying the natural dimensionless time of the run's regime.

    |omega_pi| at the run's signed coupling (so omega_0 for the zero state),
    and omega itself between the pi branches, where omega_pi may vanish.
    """
    p = cfg.params
    if cfg.regime is None:
        return p.omega
    s = phase_model._signed_coupling(cfg.initial_state, p.lam)
    return p.omega * math.sqrt(abs(phase_model.omega_pi_squared(s, p.n_particles)))


def _analytic_row(cfg: RunConfig, times: np.ndarray) -> list:
    """The ANALYTIC_COLUMNS over the whole time array, from one closed-form evaluation."""
    p = cfg.params
    # the module attribute at call time, so whatever wraps phase_model.cov_* sees the call
    cov = getattr(phase_model, f"cov_{cfg.regime}")
    gamma, jx_half = cov(p.omega * times, p.lam, p.n_particles)
    rec = make_record(times, jx_half * p.n_particles / 2.0, gamma, p.n_particles)
    return [rec.jx_mean, gamma.gzz, gamma.gyy, gamma.gyz,
            rec.lambda_plus, rec.lambda_minus, rec.xi2_opt, rec.zeta2_opt]


def _validate_compare(cfg: RunConfig):
    p = cfg.params
    if "analytic" not in cfg.compare or cfg.regime is not None:
        return
    if not p.lam > 0.0:
        raise ConfigError(f"analytic comparison needs lam > 0, got {p.lam}")
    raise ConfigError(
        f"analytic pi-state comparison undefined at lam = {p.lam}, N = {p.n_particles}: "
        f"it needs lam < N/(N+1) or lam > 1 + {phase_model.CRITICAL_MARGIN}"
    )


def run_evolve(cfg: RunConfig) -> list[Path]:
    """One witness trajectory; one row per time step."""
    _validate_compare(cfg)
    psi0 = initial_state_vector(cfg)
    times = np.linspace(0.0, cfg.t_max, cfg.n_steps)
    freq = dimensionless_frequency(cfg)

    rec = trajectory(cfg.params, psi0, times)
    columns = list(EVOLVE_COLUMNS)
    values = [rec.t, freq * rec.t, rec.jx_mean, rec.gamma.gzz, rec.gamma.gyy,
              rec.gamma.gyz, rec.lambda_plus, rec.lambda_minus, rec.xi2_opt, rec.zeta2_opt]
    if "analytic" in cfg.compare:
        columns += ANALYTIC_COLUMNS
        values += _analytic_row(cfg, times)
    if "oat" in cfg.compare:
        o = oat_trajectory(cfg.params.n_particles, cfg.params.chi, times)
        columns += OAT_COLUMNS
        values += [o.jx_mean, o.lambda_plus, o.lambda_minus, o.xi2_opt, o.zeta2_opt]

    path = cfg.out_dir / f"evolve.{cfg.fmt}"
    return [write_table(path, cfg.fmt, "bjj-evolve", columns, np.column_stack(values))]


def _protocol_fit(params: ModelParams, psi0: StateVector):
    """Protocol fit of the exact trajectory, in powers of N chi t."""
    n, chi = params.n_particles, params.chi
    # one kernel call on the full solve; see band_spectrum for why not a window of the even block
    return fit_taylor_coeffs(_witness_kernel(band_spectrum(params), psi0)(fit_times(n, chi)), n, chi)


def _sweep_row(args) -> list:
    lam, n, state, oat_p3 = args
    try:
        params = ModelParams.coupled(n, lam)
        cfg = RunConfig(params=params, initial_state=state)
        psi0 = initial_state_vector(cfg)

        # the fit's full solve sets the row's peak; the search's window adds little to it
        fit = _protocol_fit(params, psi0)
        fit_omega = fit.coeffs.in_omega_time(params.lam)
        # the regime of the simulated lam, which can differ from the grid lam in the last bit
        regime, rate = cfg.regime, dimensionless_frequency(cfg)
        oscillates = regime in ("zero", "stable_pi")
        if oscillates:  # cover the first witness minimum near 2 w t = pi
            t_hi = 1.25 * math.pi / rate
        else:  # between the pi branches (rate omega) the first minimum sits near omega t = N^(1/3)
            t_hi = (1.5 if regime == "unstable_pi" else 1.5 * n ** (1.0 / 3.0)) / rate
        t_min, z_min = minimize_zeta2(zeta2_of_time(params, psi0), t_hi, tol=1e-4 / rate)
        # no closed-form minimum on the unstable branch or between the branches; at
        # the simulated lam, where its regime was decided
        z_ana = zeta2_min(regime, params.lam, n) if oscillates else math.nan

        series = taylor_zeta2(state, lam)
        ana = series.in_omega_time(lam)
        r_num = fit.coeffs.p3 / oat_p3 if oat_p3 else math.nan
        # r_analytic: the row state's series p3 over the twisting p3, in the N chi t units of r_num
        return [lam, z_min, t_min, z_ana,
                fit_omega.p2, fit_omega.p3, fit_omega.p4, ana.p2, ana.p3, ana.p4,
                r_num, series.p3 / taylor_zeta2("oat").p3, "ok"]
    except Exception as exc:  # error rows keep the sweep going
        nan = math.nan
        return [lam, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan,
                f"error: {exc}"]


def run_sweep(cfg: SweepConfig) -> list[Path]:
    """Per-interaction summary rows in grid order, whatever the number of workers."""
    base = cfg.base
    n = base.params.n_particles
    # twisting-only reference coefficient for the third-order ratio
    oat_params = ModelParams.twisting(n, chi=1.0)
    oat_p3 = _protocol_fit(oat_params, coherent_state(n, math.pi / 2.0, 0.0)).coeffs.p3

    jobs = [(lam, n, base.initial_state, oat_p3) for lam in cfg.lambda_grid]
    processes = min(base.workers, len(jobs))
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            rows = list(pool.map(_sweep_row, jobs))
    else:
        rows = [_sweep_row(job) for job in jobs]

    path = base.out_dir / f"sweep.{base.fmt}"
    return [write_table(path, base.fmt, "bjj-sweep", SWEEP_COLUMNS, rows)]


def run_wigner(cfg: RunConfig, snapshot_times, want_separatrix: bool | None = None) -> list[Path]:
    """Sphere grids at the snapshot times, plus the separatrix when it exists."""
    snapshot_times = [float(t) for t in snapshot_times]
    if not snapshot_times or not all(math.isfinite(t) and t >= 0 for t in snapshot_times):
        raise ConfigError("snapshot times must be finite, nonnegative and nonempty")
    p = cfg.params
    lam = p.lam
    has_separatrix = lam > 1.0
    if want_separatrix and not has_separatrix:
        raise ConfigError(f"no separatrix through (pi, 0) for lam = {lam}")
    emit_separatrix = has_separatrix if want_separatrix is None else want_separatrix
    n = p.n_particles
    if n > WIGNER_MAX_N:
        raise ConfigError(f"N = {n} exceeds the Wigner limit N <= {WIGNER_MAX_N}")
    if len(snapshot_times) * 16 * (n + 1) ** 2 > WIGNER_MULTIPOLE_BYTES:
        raise ConfigError(f"{len(snapshot_times)} snapshots exceed the limit of "
                          f"{WIGNER_MULTIPOLE_BYTES // (16 * (n + 1) ** 2)} at N = {n}")

    # every snapshot from one kernel call, in the sector psi0 occupies,
    # and the multipoles of all of them from one pass over the tensor blocks
    blocks = _witness_kernel(p, initial_state_vector(cfg)).states(np.array(snapshot_times))
    _, re, im = (np.concatenate(part) for part in zip(*blocks))
    check_normalized(np.sqrt((re * re + im * im).sum(axis=-1)))
    multipoles = _multipole_pass(n, re, im)
    written: list[Path] = []
    try:
        for i, (rho, re_i, im_i) in enumerate(zip(multipoles, re, im)):
            grid = _sphere_grid(rho, re_i, im_i)
            rows = GridRows(
                (grid.theta_samples, grid.phi_samples), (grid.values, grid.peak_normalized())
            )
            path = cfg.out_dir / f"wigner_t{i:02d}.{cfg.fmt}"
            written.append(write_table(path, cfg.fmt, "bjj-wigner", WIGNER_COLUMNS, rows))
            del grid, rows  # free this grid before the next snapshot's is summed
        if emit_separatrix:
            curve = separatrix_curve(lam)
            rows = np.column_stack((curve.phi, curve.z, -curve.z))
            path = cfg.out_dir / f"separatrix.{cfg.fmt}"
            written.append(write_table(path, cfg.fmt, "bjj-separatrix", SEPARATRIX_COLUMNS, rows))
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return written


def run_oat_compare(cfg: RunConfig) -> list[Path]:
    """Coupled dynamics against the twisting-only benchmark at equal N, chi."""
    psi0 = initial_state_vector(cfg)
    times = np.linspace(0.0, cfg.t_max, cfg.n_steps)
    n, chi = cfg.params.n_particles, cfg.params.chi
    rec, o = trajectory(cfg.params, psi0, times), oat_trajectory(n, chi, times)
    rows = np.column_stack([rec.t, n * chi * rec.t, rec.zeta2_opt, rec.xi2_opt,
                            o.zeta2_opt, o.xi2_opt, o.zeta2_opt - rec.zeta2_opt])
    path = cfg.out_dir / f"oat_compare.{cfg.fmt}"
    return [write_table(path, cfg.fmt, "bjj-oat-compare", OAT_COMPARE_COLUMNS, rows)]


def run_fit(cfg: RunConfig) -> list[Path]:
    """Short-time coefficient extraction for one parameter point."""
    lam = cfg.params.lam
    if not lam > 0.0:
        raise ConfigError(f"fit needs lam > 0, got {lam}")
    ana = taylor_zeta2(cfg.initial_state, lam)
    fit = _protocol_fit(cfg.params, initial_state_vector(cfg))
    c = fit.coeffs
    rows = [[lam, c.p1, c.p2, c.p3, c.p4, ana.p1, ana.p2, ana.p3, ana.p4,
             fit.residual_norm, fit.condition_number]]
    path = cfg.out_dir / f"fit.{cfg.fmt}"
    return [write_table(path, cfg.fmt, "bjj-fit", FIT_COLUMNS, rows)]


# ---------------------------------------------------------------------------
# argument handling

def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    lines: dict[str, int] = {}  # where each key was given
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
        written = key.strip().replace("-", "_")
        key = "lam" if written == "lambda" else written
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: key {written!r} repeats the key of line {lines[key]}")
        lines[key] = lineno
        values[key] = value.strip()
    return values


def _config_bool(value: str) -> bool:
    """true, yes, 1 or false, no, 0, in any case; anything else is a ValueError."""
    word = value.lower()
    if word not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(value)
    return word in ("true", "yes", "1")


_CONFIG_KEYS = {
    "n": int, "lam": float, "state": str,
    "t_max": float, "steps": int, "out": str, "format": str, "compare": str,
    "workers": int, "lambda_grid": str, "snapshots": str, "separatrix": _config_bool,
}


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    if not getattr(args, "config", None):
        return args
    raw = _read_config_file(args.config)
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if not hasattr(args, key):
            raise ConfigError(f"config key {key!r} does not apply to {args.command}")
        if getattr(args, key) is None:
            try:
                setattr(args, key, _CONFIG_KEYS[key](value))
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {value!r}") from exc
    return args


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bjjsim",
        description="Entanglement dynamics of a two-mode bosonic Josephson junction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, with_lambda: bool = True) -> argparse.ArgumentParser:
        # no prefix matching, so `sweep --lambda` cannot read as --lambda-grid
        cmd = sub.add_parser(name, help=help, allow_abbrev=False)
        cmd.add_argument("--config", help="flat key = value config file; flags override")
        cmd.add_argument("--n", type=int, default=None, help=f"particle number (even, at most {MAX_N})")
        if with_lambda:
            cmd.add_argument("--lambda", dest="lam", type=float, default=None,
                             help="interaction over tunneling; omega is 1, chi = lam/N")
        cmd.add_argument("--state", choices=("pi", "zero"), default=None,
                         help="initial coherent state")
        cmd.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUT_DIR} or cwd)")
        cmd.add_argument("--format", choices=("csv", "json"), default=None)
        return cmd

    p_evolve = command("evolve", "witness trajectory at fixed parameters")
    p_evolve.add_argument("--t-max", dest="t_max", type=float, default=None)
    p_evolve.add_argument("--steps", type=int, default=None)
    p_evolve.add_argument("--compare", default=None, help="comma list from {analytic,oat}")

    p_sweep = command("sweep", "minima, fitted coefficients and ratio over a lambda grid",
                      with_lambda=False)
    p_sweep.add_argument("--lambda-grid", dest="lambda_grid", default=None,
                         help="comma list of ascending positive lambdas")
    p_sweep.add_argument("--workers", type=int, default=None, help="processes for the grid rows")

    p_wig = command("wigner", f"Wigner sphere grids and separatrix (N at most {WIGNER_MAX_N})")
    p_wig.add_argument("--snapshots", default=None, help="comma list of snapshot times")
    p_wig.add_argument("--separatrix", action="store_const", const=True, default=None,
                       help="require the separatrix file (error when lam <= 1)")

    p_oat = command("oat-compare", "coupled vs twisting-only witnesses")
    p_oat.add_argument("--t-max", dest="t_max", type=float, default=None)
    p_oat.add_argument("--steps", type=int, default=None)

    command("fit", "short-time coefficient extraction")

    return parser


def _float_list(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad {what} list: {text!r}") from exc


def _run_config_from(args: argparse.Namespace) -> RunConfig:
    n = args.n if args.n is not None else 200
    lam = args.lam if getattr(args, "lam", None) is not None else 2.0
    try:
        params = ModelParams.coupled(n, lam)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    compare = tuple(tok for tok in (getattr(args, "compare", None) or "").split(",") if tok)
    out_dir = Path(args.out if args.out is not None else os.environ.get(ENV_OUT_DIR, "."))
    # only what flags or the config file give; RunConfig's defaults fill the rest
    given = {"initial_state": args.state, "t_max": getattr(args, "t_max", None),
             "n_steps": getattr(args, "steps", None), "fmt": args.format,
             "workers": getattr(args, "workers", None)}
    return RunConfig(params=params, out_dir=out_dir, compare=compare,
                     **{key: value for key, value in given.items() if value is not None})


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
            # an empty list given on purpose reaches the "nonempty" check
            grid_text = "0.2,0.4,0.6,0.8" if args.lambda_grid is None else args.lambda_grid
            sweep = SweepConfig(lambda_grid=_float_list(grid_text, "lambda grid"), base=cfg)
            paths = run_sweep(sweep)
        elif args.command == "wigner":
            snaps = _float_list("0.0" if args.snapshots is None else args.snapshots, "snapshot")
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
