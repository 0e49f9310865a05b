"""Independent numpy/scipy oracle and the per-workload output checks.

Nothing here imports bjjsim: the Dicke bands, the tridiagonal spectrum
(`eigh_tridiagonal`), the binomial coherent amplitudes and the witness
moments are rebuilt from their definitions, so a defect in the library
cannot hide in its own check.  Each check returns a list of problems; an
empty list means the job's output is correct.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln

RTOL = 1e-8
# Natural scale of every compared quantity: spin moments in units of hbar,
# covariances and witnesses in units of shot noise.  Values below it are
# compared against it, so a quantity passing through zero keeps a 1e-8 slack.
FLOOR = 1.0
# Sum rules of the Wigner grid.  Clenshaw-Curtis weights on the uniform theta
# grid integrate the band-limited grid exactly, so only roundoff remains
# (observed residues are below 3e-14 at N = 60).
SUM_RULE_TOL = 1e-10
# Short-time fit protocol of the sweep (degree, window in N chi t, samples).
FIT_DEGREE = 6
FIT_WINDOW = 0.2
FIT_SAMPLES = 64
MIN_GRID = 600
# Agreement of two exact codes on one zeta^2 sample at N = 200 (observed
# below 3e-15).  The fit amplifies it by the L1 norm of its pseudo-inverse
# rows, which sets the tolerance on fitted coefficients.
SAMPLE_TOL = 1e-13


def mismatch(actual, expected, what: str, floor: float = FLOOR, atol=0.0) -> list[str]:
    """Problems where |actual - expected| > RTOL * max(|expected|, floor) + atol."""
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    bad = ~(np.abs(a - e) <= RTOL * np.maximum(np.abs(e), floor) + atol)
    if not bad.any():
        return []
    i = int(np.flatnonzero(bad.ravel())[0])
    return [f"{what}: {a.ravel()[i]!r} != {e.ravel()[i]!r} ({int(bad.sum())} of {bad.size} off)"]


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Column names and raw string fields of a bjjsim CSV file."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# schema="):
        raise ValueError(f"{path.name}: missing schema header")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def numeric_table(path: Path) -> dict[str, np.ndarray]:
    columns, rows = read_table(path)
    data = np.array(rows, dtype=float).reshape(len(rows), len(columns))
    return {name: data[:, i] for i, name in enumerate(columns)}


def coherent_equatorial(n: int, phi: float) -> np.ndarray:
    """Binomial amplitudes of the coherent state at theta = pi/2, azimuth phi."""
    m = np.arange(-n / 2, n / 2 + 1)
    ka, kb = n / 2 + m, n / 2 - m
    log_mag = 0.5 * (gammaln(n + 1.0) - gammaln(ka + 1.0) - gammaln(kb + 1.0)) - 0.5 * n * math.log(2.0)
    amp = np.exp(log_mag) * np.exp(1j * phi * kb)
    return amp / np.linalg.norm(amp)


class Junction:
    """H = chi Jz^2 - omega Jx on the Dicke basis, from its bands alone."""

    def __init__(self, n: int, chi: float, omega: float):
        j = n / 2
        self.n = n
        self.m = np.arange(-j, j + 1)
        mm = self.m[:-1]
        self.f = np.sqrt(j * (j + 1) - mm * (mm + 1))  # <m+1|J+|m>
        self.diag = chi * self.m**2
        self.energies = self.vectors = None
        if omega != 0.0:
            self.energies, self.vectors = eigh_tridiagonal(self.diag, -omega * self.f / 2)

    def states(self, psi0: np.ndarray, times) -> np.ndarray:
        """Exactly propagated states, one column per time."""
        times = np.asarray(times, dtype=float)
        if self.vectors is None:  # diagonal H: pure twisting
            return np.exp(-1j * np.outer(self.diag, times)) * psi0[:, None]
        c = self.vectors.T @ psi0
        return self.vectors @ (np.exp(-1j * np.outer(self.energies, times)) * c[:, None])

    def witnesses(self, psi: np.ndarray) -> dict[str, np.ndarray]:
        """Spin moments and optimized witnesses of each state column."""
        n, m, f = self.n, self.m[:, None], self.f[:, None]
        jx = np.real(np.sum(f * np.conj(psi[1:]) * psi[:-1], axis=0))
        jy_psi = np.zeros_like(psi)
        jy_psi[1:] -= 0.5j * f * psi[:-1]
        jy_psi[:-1] += 0.5j * f * psi[1:]
        jz_psi = m * psi
        gzz = 4.0 * np.sum(np.abs(jz_psi) ** 2, axis=0) / n
        gyy = 4.0 * np.sum(np.abs(jy_psi) ** 2, axis=0) / n
        gyz = 4.0 * np.real(np.sum(np.conj(jy_psi) * jz_psi, axis=0)) / n
        lp, lm = eigen_pm(gzz, gyy, gyz)
        return {"jx_mean": jx, "gzz": gzz, "gyy": gyy, "gyz": gyz,
                "lambda_plus": lp, "lambda_minus": lm,
                "xi2_opt": n * n * lm / (4.0 * jx * jx), "zeta2_opt": 1.0 / lp}

    def mean_spin(self, psi: np.ndarray) -> np.ndarray:
        """(<Jx>, <Jy>, <Jz>) of one state vector."""
        cross = np.sum(self.f * np.conj(psi[1:]) * psi[:-1])
        return np.array([cross.real, cross.imag, np.sum(self.m * np.abs(psi) ** 2)])


def eigen_pm(gzz, gyy, gyz):
    s = gzz + gyy
    r = np.hypot(gzz - gyy, 2.0 * gyz)
    return 0.5 * (s + r), 0.5 * (s - r)


def pi_frequency(lam: float, n: int) -> float:
    """|w_pi / omega| with the finite-N shift lam (1 + 1/N)."""
    return math.sqrt(abs(1.0 - lam * (1.0 + 1.0 / n)))


def zero_frequency(lam: float, n: int) -> float:
    return math.sqrt(1.0 + lam * (1.0 + 1.0 / n))


def ratio_r(lam: float) -> float:
    return 1.0 + (4.0 / 3.0) * (1.0 / lam - 1.0 / lam**2)


# ---------------------------------------------------------------------------
# evolve


def check_evolve(job: dict, paths: list[Path], rng) -> list[str]:
    """Sampled rows against exact dynamics; comparison columns by identities."""
    n, lam, state, steps = job["n"], job["lam"], job["state"], job["steps"]
    if [p.name for p in paths] != ["evolve.csv"]:
        return [f"unexpected outputs {[p.name for p in paths]}"]
    col = numeric_table(paths[0])
    problems = []
    if col["t"].size != steps:
        return [f"{col['t'].size} rows, expected {steps}"]
    t = col["t"]
    problems += mismatch(t, np.linspace(0.0, job["t_max"], steps), "t grid")
    freq = pi_frequency(lam, n) if state == "pi" else zero_frequency(lam, n)
    problems += mismatch(col["omega_t"], freq * t, "omega_t")

    rows = [0] + sorted(rng.sample(range(1, steps), 7))
    exact = Junction(n, lam / n, 1.0)
    psi0 = coherent_equatorial(n, math.pi if state == "pi" else 0.0)
    ref = exact.witnesses(exact.states(psi0, t[rows]))
    for name, want in ref.items():
        problems += mismatch(col[name][rows], want, name)

    twist = Junction(n, lam / n, 0.0)
    ref = twist.witnesses(twist.states(coherent_equatorial(n, 0.0), t[rows]))
    for name in ("jx_mean", "lambda_plus", "lambda_minus", "xi2_opt", "zeta2_opt"):
        problems += mismatch(col["oat_" + name][rows], ref[name], "oat_" + name)

    lp, lm = eigen_pm(col["ana_gzz"], col["ana_gyy"], col["ana_gyz"])
    problems += mismatch(col["ana_lambda_plus"], lp, "ana_lambda_plus")
    problems += mismatch(col["ana_lambda_minus"], lm, "ana_lambda_minus")
    problems += mismatch(col["ana_zeta2_opt"], 1.0 / lp, "ana_zeta2_opt")
    problems += mismatch(col["ana_xi2_opt"], n * n * lm / (4.0 * col["ana_jx_mean"] ** 2), "ana_xi2_opt")
    for name in ("zeta2_opt", "xi2_opt", "ana_zeta2_opt", "ana_xi2_opt", "oat_zeta2_opt", "oat_xi2_opt"):
        problems += mismatch(col[name][0], 1.0, f"{name} at t=0")
    return problems


# ---------------------------------------------------------------------------
# sweep


def _fit_p(junction: Junction, psi0: np.ndarray, n: int, chi: float):
    """The sweep's short-time fit: p1..p4 in powers of N chi t, and their tolerances.

    The sample times and the in-window mask repeat the protocol's own
    arithmetic, because an ulp decides whether the last sample is in.
    """
    t = FIT_WINDOW * np.arange(1, FIT_SAMPLES + 1) / FIT_SAMPLES / (n * chi)
    x = t * n * chi
    inside = x <= FIT_WINDOW
    z = junction.witnesses(junction.states(psi0, t[inside]))["zeta2_opt"]
    design = np.vander(x[inside] / FIT_WINDOW, FIT_DEGREE + 1, increasing=True)[:, 1:]
    sol, *_ = np.linalg.lstsq(design, z - 1.0, rcond=None)
    scale = FIT_WINDOW ** np.arange(1, FIT_DEGREE + 1)
    gain = np.abs(np.linalg.pinv(design)).sum(axis=1) / scale
    return (sol / scale)[:4], (gain * SAMPLE_TOL)[:4]


def check_sweep(job: dict, paths: list[Path], rng) -> list[str]:
    """Minima against an exact grid scan, fits redone on exact samples."""
    n, grid = job["n"], job["lambda_grid"]
    if [p.name for p in paths] != ["sweep.csv"]:
        return [f"unexpected outputs {[p.name for p in paths]}"]
    columns, raw = read_table(paths[0])
    if len(raw) != len(grid):
        return [f"{len(raw)} rows, expected {len(grid)}"]
    status = [r[columns.index("status")] for r in raw]
    if any(s != "ok" for s in status):
        return [f"status {status}"]
    col = {c: np.array([float(r[i]) for r in raw]) for i, c in enumerate(columns) if c != "status"}
    problems = mismatch(col["lam"], grid, "lam")
    problems += mismatch(col["r_analytic"], [ratio_r(l) for l in grid], "r_analytic")
    if not np.all(np.isnan(col["zeta2_min_analytic"])):
        problems.append("zeta2_min_analytic defined for the unstable pi state")
    for k, name in ((2, "p2_analytic"), (3, "p3_analytic"), (4, "p4_analytic")):
        g = np.array([1.0 / l - 1.0 / l**2 for l in grid]) / 6.0
        series = {2: np.full(len(grid), 0.5), 3: -0.125 - g, 4: g}[k]
        problems += mismatch(col[name], series * np.asarray(grid) ** k, name)

    twist = Junction(n, 1.0, 0.0)
    oat_p, oat_tol = _fit_p(twist, coherent_equatorial(n, 0.0), n, 1.0)
    psi0 = coherent_equatorial(n, math.pi)
    for i, lam in enumerate(grid):
        exact = Junction(n, lam / n, 1.0)
        t_hi = 1.5 / pi_frequency(lam, n)
        t_min, z_min = col["t_at_min"][i], col["zeta2_min_numeric"][i]
        if not 0.0 < t_min <= t_hi * (1.0 + 1e-12):  # the scan may end on t_hi
            problems.append(f"t_at_min {t_min} outside (0, {t_hi}]")
        scan = exact.witnesses(exact.states(psi0, np.linspace(0.0, t_hi, MIN_GRID + 1)[1:]))["zeta2_opt"]
        here = exact.witnesses(exact.states(psi0, [t_min]))["zeta2_opt"]
        problems += mismatch(z_min, here[0], f"zeta2 at t_at_min (lam={lam})")
        if z_min > scan.min() + RTOL:
            problems.append(f"minimum {z_min} above the grid minimum {scan.min()} (lam={lam})")
        p, tol = _fit_p(exact, psi0, n, lam / n)
        for k in (2, 3, 4):
            problems += mismatch(col[f"p{k}_fit"][i], p[k - 1] * lam**k, f"p{k}_fit (lam={lam})",
                                 atol=tol[k - 1] * lam**k)
        r = p[2] / oat_p[2]
        problems += mismatch(col["r_numeric"][i], r, f"r_numeric (lam={lam})",
                             atol=abs(r) * (tol[2] / abs(p[2]) + oat_tol[2] / abs(oat_p[2])))
    return problems


# ---------------------------------------------------------------------------
# wigner


def clenshaw_curtis(m: int) -> np.ndarray:
    """Weights of int_0^pi f sin(theta) dtheta on theta_k = k pi / m, m even.

    Exact for f a polynomial of degree <= m in cos(theta).
    """
    k = np.arange(m + 1)
    j = np.arange(1, m // 2 + 1)
    b = np.where(j == m // 2, 1.0, 2.0)
    w = 1.0 - (b / (4.0 * j * j - 1.0)) @ np.cos(2.0 * np.outer(j, k) * np.pi / m)
    c = np.where((k == 0) | (k == m), 1.0, 2.0)
    return c * w / m


def sphere_moments(theta, phi, w) -> np.ndarray:
    """Integrals of W and of W n over the sphere.

    The periodic phi rule is exact for the azimuthal orders |q| <= N present;
    after it, every integrand is a polynomial in cos(theta) of degree <= N + 2.
    """
    weights = clenshaw_curtis(theta.size - 1)
    st, ct = np.sin(theta)[:, None], np.cos(theta)[:, None]
    dphi = 2.0 * np.pi / phi.size
    out = []
    for g in (1.0, st * np.cos(phi), st * np.sin(phi), ct):
        out.append(weights @ (w * g).sum(axis=1) * dphi)
    return np.array(out)


def check_wigner(job: dict, paths: list[Path], rng) -> list[str]:
    """Zeroth and first moment sum rules, peak normalization, separatrix level."""
    n, lam, t = job["n"], job["lam"], job["t"]
    names = [p.name for p in paths]
    if names != ["wigner_t00.csv", "separatrix.csv"]:
        return [f"unexpected outputs {names}"]
    col = numeric_table(paths[0])
    theta, phi = np.unique(col["theta"]), np.unique(col["phi"])
    if theta.size * phi.size != col["theta"].size or (theta.size - 1) % 2:
        return [f"{col['theta'].size} rows do not form a theta x phi grid"]
    problems = mismatch(theta, np.linspace(0.0, np.pi, theta.size), "theta grid")
    problems += mismatch(phi, np.linspace(-np.pi, np.pi, phi.size, endpoint=False), "phi grid")
    w = col["w_raw"].reshape(theta.size, phi.size)
    exact = Junction(n, lam / n, 1.0)
    psi = exact.states(coherent_equatorial(n, math.pi), [t])[:, 0]
    j = n / 2
    want = np.concatenate([[1.0], exact.mean_spin(psi) / math.sqrt(j * (j + 1))])
    got = sphere_moments(theta, phi, w)
    if np.abs(got - want).max() > SUM_RULE_TOL:
        problems.append(f"sum rules {got} != {want}")
    peak = col["w_peak_normalized"]
    if abs(peak.max() - 1.0) > 1e-12:
        problems.append(f"peak-normalized maximum {peak.max()!r}")
    rows = rng.sample(range(peak.size), 64)
    problems += mismatch(peak[rows], col["w_raw"][rows] / col["w_raw"].max(), "w_peak_normalized")

    sep = numeric_table(paths[1])
    z, ph = sep["z_plus"], sep["phi"]
    energy = lam * z * z / 2.0 - np.sqrt(np.clip(1.0 - z * z, 0.0, None)) * np.cos(ph)
    problems += mismatch(energy, np.ones_like(energy), "separatrix energy")
    problems += mismatch(sep["z_minus"], -z, "z_minus")
    if not np.any((ph == math.pi) & (z == 0.0)):
        problems.append("separatrix misses the fixed point (pi, 0)")
    return problems
