"""Entanglement witnesses: spin squeezing and the QFI criterion.

Both witnesses are optimized over the y-z plane via the covariance
eigenvalues.  Also provides the short-time power-series coefficients of the
QFI witness for the three dynamical models, whose p3 over the twisting p3
is the third-order ratio between the coupled and twisting-only models, and
polynomial-fit extraction of those coefficients from numerical trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import phase_model
from .spin_core import CovarianceYZ, check_all, lambda_pm

#: Fit protocol: two guard orders above the highest reported coefficient;
#: the window keeps the series remainder below 1/N at N ~ 200; FIT_SAMPLES
#: equal steps in x = N chi t up to the window (fit_times).
FIT_DEGREE = 6
FIT_WINDOW = 0.2
FIT_SAMPLES = 64
CONDITION_LIMIT = 1e12
#: Times in minimize_zeta2's coarse scan, equally spaced over (0, t_hi].
GRID_POINTS = 600

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class WitnessRecord:
    """The witnesses at one time (floats) or along a trajectory (arrays over times)."""

    t: float | np.ndarray
    jx_mean: float | np.ndarray
    gamma: CovarianceYZ
    lambda_plus: float | np.ndarray
    lambda_minus: float | np.ndarray
    xi2_opt: float | np.ndarray
    zeta2_opt: float | np.ndarray

    def __iter__(self):
        """A record of arrays yields one record of floats per time, in order."""
        g = self.gamma
        columns = (self.t, self.jx_mean, g.gzz, g.gyy, g.gyz,
                   self.lambda_plus, self.lambda_minus, self.xi2_opt, self.zeta2_opt)
        for t, jx, gzz, gyy, gyz, *rest in zip(*(np.broadcast_to(c, np.shape(self.t)).tolist()
                                                  for c in columns)):
            yield WitnessRecord(t, jx, CovarianceYZ(gzz, gyy, gyz), *rest)


@dataclass(frozen=True)
class TaylorCoeffs:
    """Coefficients p_k of (N chi t)^k in zeta^2(t) = 1 + sum_k p_k (N chi t)^k."""

    p1: float
    p2: float
    p3: float
    p4: float

    def in_omega_time(self, lam: float) -> "TaylorCoeffs":
        """Rescale to powers of (omega t) using N chi = lam * omega.

        Needs lam^4 finite: |lam| below 2^256 = 1.16e77, where lam**4 would
        overflow (OverflowError from float pow).
        """
        if abs(lam) >= 2.0**256:
            raise ValueError(f"rescaling to omega t needs lam^4 finite, lam below about 1.16e77 (2^256), got {lam}")
        return TaylorCoeffs(
            self.p1 * lam, self.p2 * lam**2, self.p3 * lam**3, self.p4 * lam**4
        )


@dataclass(frozen=True)
class TaylorFit:
    """Fitted coefficients plus least-squares diagnostics."""

    coeffs: TaylorCoeffs
    residual_norm: float
    condition_number: float


def xi2_opt(jx_mean, lambda_minus, n_particles: int):
    """Optimal spin-squeezing witness N^2 lambda_- / (4 <Jx>^2), elementwise."""
    check_all(jx_mean != 0.0, "mean spin fully depolarized (<Jx> = 0): squeezing witness undefined")
    # jx * jx, not jx**2: a float's ** goes through libm pow, which may round
    # differently from an array's square, and floats and arrays share these bits
    return n_particles**2 * lambda_minus / (4.0 * (jx_mean * jx_mean))


def zeta2_opt(lambda_plus):
    """Optimal QFI witness 1/lambda_+, elementwise; values below 1 witness entanglement."""
    check_all(np.logical_not(lambda_plus <= 0.0), "lambda_plus must be positive, got {}", lambda_plus)
    return 1.0 / lambda_plus


def make_record(t, jx_mean, gamma: CovarianceYZ, n_particles: int) -> WitnessRecord:
    """The one witness reduction: a full record from the raw moments, elementwise.

    Like a ufunc: floats give the record of one time, arrays of t and <Jx>
    with a CovarianceYZ of arrays one record of arrays over those times.
    """
    lp, lm = lambda_pm(gamma)
    return WitnessRecord(
        t=t,
        jx_mean=jx_mean,
        gamma=gamma,
        lambda_plus=lp,
        lambda_minus=lm,
        xi2_opt=xi2_opt(jx_mean, lm, n_particles),
        zeta2_opt=zeta2_opt(lp),
    )


def taylor_zeta2(model: str, lam: float | None = None) -> TaylorCoeffs:
    """Short-time series coefficients of zeta^2 in powers of (N chi t).

    Models: "oat" (twisting only), and the initial states of a coupled run,
    "pi" (state on the negative x axis) and "zero" (state on the positive x
    axis).  The coupled models require lam > 0 with 1/lam^2 finite, lam
    above about 2^-512 = 7.5e-155 (below it the coefficients would be
    infinite, or 1/lam^2 a division by zero); each series holds on both
    sides of lam = 1, whichever closed form phase_model.regime names.  One
    series serves all three: p1 = -1, p2 = 1/2, p3 = -1/8 - g/6 and
    p4 = g/6, g = a - a^2, with a = 1/s at phase_model's signed coupling s
    (+lam for "pi", -lam for "zero") and a = 0 for "oat", the omega -> 0
    limit s -> inf.
    """
    if model not in ("oat", "pi", "zero"):
        raise ValueError(f"unknown model {model!r}")
    if model != "oat" and not (lam is not None and lam > 0):
        raise ValueError(f"model {model!r} needs lam > 0, got {lam}")
    s = math.inf if model == "oat" else phase_model._signed_coupling(model, lam)
    # s**2 overflows from |s| = 2^512 = 1.34e154 on, where 1/s^2 underflows and g is 1/s;
    # not s * s, which rounds differently from pow for some s
    s2 = s**2 if abs(s) < 2.0**512 else math.inf
    if not (s2 > 0.0 and math.isfinite(1.0 / s2)):
        raise ValueError(f"model {model!r} needs 1/lam^2 finite, lam above about 7.5e-155 (2^-512), got {lam}")
    g = 1.0 / s - 1.0 / s2  # a^2 as 1/s^2: a * a rounds differently
    return TaylorCoeffs(-1.0, 0.5, -0.125 - g / 6.0, g / 6.0)


def zeta2_min(regime: str, lam: float, n_particles: int) -> float:
    """Depth of the periodic witness minima in the two stable regimes.

    min(1 - s, 1/(1 - s)) at the signed coupling s of phase_model: 1 - lam
    around pi ("stable_pi"), 1/(1 + lam) around zero ("zero").  Defined
    where phase_model.regime answers `regime` for (lam, N), as for the
    cov_* of that name.
    """
    if regime not in ("stable_pi", "zero"):
        raise ValueError(f"unknown regime {regime!r}")
    state = regime.removeprefix("stable_")
    phase_model._check_regime(regime, state, lam, n_particles)
    s = phase_model._signed_coupling(state, lam)
    return min(1.0 - s, 1.0 / (1.0 - s))


def fit_times(n_particles: int, chi: float) -> np.ndarray:
    """The protocol's sample times: t = 0, then FIT_SAMPLES equal steps up to x = FIT_WINDOW."""
    steps = FIT_WINDOW * np.arange(1, FIT_SAMPLES + 1) / FIT_SAMPLES / (n_particles * chi)
    return np.concatenate([[0.0], steps])


def fit_taylor_coeffs(record: WitnessRecord, n_particles: int, chi: float) -> TaylorFit:
    """Least-squares polynomial of degree FIT_DEGREE in x = N chi t, constant pinned to 1.

    Fits zeta^2(x) - 1 on the samples with 0 < x <= FIT_WINDOW; the fit is
    done in the rescaled variable u = x/FIT_WINDOW to keep the design
    matrix well conditioned, then mapped back.  Takes one record of arrays
    over the sample times, which must start at t = 0 (the shot-noise
    reference pinning the constant term), as the record at fit_times does.
    """
    t = np.ravel(record.t)
    if t.size == 0 or t[0] != 0.0:
        raise ValueError("records must start at t = 0")
    x = t * n_particles * chi
    z = np.ravel(record.zeta2_opt)
    inside = (x > 0.0) & (x <= FIT_WINDOW)
    if inside.sum() < FIT_DEGREE + 2:
        raise ValueError(
            f"need at least {FIT_DEGREE + 2} samples in (0, {FIT_WINDOW}], found {inside.sum()}"
        )
    u = x[inside] / FIT_WINDOW
    design = np.vander(u, FIT_DEGREE + 1, increasing=True)[:, 1:]
    cond = np.linalg.cond(design)
    if cond > CONDITION_LIMIT:
        raise RuntimeError(f"ill-conditioned design matrix: cond = {cond:.3e}")
    sol, res, *_ = np.linalg.lstsq(design, z[inside] - 1.0, rcond=None)
    coeff = sol / FIT_WINDOW ** np.arange(1, FIT_DEGREE + 1)
    residual = float(np.sqrt(res[0])) if res.size else float(
        np.linalg.norm(design @ sol - (z[inside] - 1.0))
    )
    return TaylorFit(TaylorCoeffs(*coeff[:4]), residual, cond)


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def golden_section_min(f, lo: float, hi: float, tol: float = 1e-4) -> tuple[float, float]:
    """Golden-section refinement of a unimodal minimum on [lo, hi].

    Calls f with one float at a time.  Stops when the bracket is at most
    tol wide, or when roundoff stops it shrinking (a tol below the spacing
    of floats near the minimum).
    """
    _check_positive("tol", tol)
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        width = b - a
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        if b - a >= width:
            break
    t = c if fc < fd else d
    return t, min(fc, fd)


def minimize_zeta2(zeta2, t_hi: float, tol: float = 1e-4) -> tuple[float, float]:
    """Coarse grid scan followed by golden-section refinement of min zeta^2.

    zeta2 must work elementwise, as the callable of zeta2_of_time does:
    the GRID_POINTS times in (0, t_hi] go to it as one array in one call,
    zeta2(ts), and it returns their values.  The golden-section refinement
    around the best grid point then calls it with one float at a time,
    about log(2 t_hi / (GRID_POINTS tol)) / log(1.618) times.
    """
    _check_positive("t_hi", t_hi)
    _check_positive("tol", tol)
    ts = np.linspace(0.0, t_hi, GRID_POINTS + 1)[1:]
    vals = np.asarray(zeta2(ts), dtype=float)
    i = int(np.argmin(vals))
    lo = ts[i - 1] if i > 0 else ts[0] / 2.0
    hi = ts[i + 1] if i + 1 < ts.size else ts[-1]
    t_min, f_min = golden_section_min(zeta2, lo, hi, tol=tol)
    if vals[i] < f_min:
        return float(ts[i]), float(vals[i])
    return float(t_min), float(f_min)
