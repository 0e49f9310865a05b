"""Entanglement generation in a two-mode bosonic Josephson junction.

Exact spectral dynamics of chi*Jz^2 - omega*Jx, closed-form Gaussian
phase-model solutions, spin-squeezing and QFI entanglement witnesses,
the one-axis-twisting benchmark, and Wigner-function visualization data.
"""

from .spin_core import (
    CollectiveOperator,
    CovarianceYZ,
    ModelParams,
    StateVector,
    build_spin_operators,
    coherent_state,
    covariance_yz,
    expectation,
    lambda_pm,
)
from .exact_dynamics import Spectrum, eigendecompose, evolve, hamiltonian, trajectory
from .witnesses import (
    TaylorCoeffs,
    TaylorFit,
    WitnessRecord,
    fit_taylor_coeffs,
    make_record,
    taylor_zeta2,
    xi2_opt,
    zeta2_min,
    zeta2_opt,
)
from .oat import oat_covariance, oat_jx, oat_trajectory
from .phase_model import cov_stable_pi, cov_unstable_pi, cov_zero, omega_pi_squared
from .wigner import SeparatrixCurve, SphereGrid, density_multipoles, separatrix, wigner

__version__ = "0.1.0"

__all__ = [
    "CollectiveOperator",
    "CovarianceYZ",
    "ModelParams",
    "SeparatrixCurve",
    "Spectrum",
    "SphereGrid",
    "StateVector",
    "TaylorCoeffs",
    "TaylorFit",
    "WitnessRecord",
    "build_spin_operators",
    "coherent_state",
    "cov_stable_pi",
    "cov_unstable_pi",
    "cov_zero",
    "covariance_yz",
    "density_multipoles",
    "eigendecompose",
    "evolve",
    "expectation",
    "fit_taylor_coeffs",
    "hamiltonian",
    "lambda_pm",
    "make_record",
    "oat_covariance",
    "oat_jx",
    "oat_trajectory",
    "omega_pi_squared",
    "separatrix",
    "taylor_zeta2",
    "trajectory",
    "wigner",
    "xi2_opt",
    "zeta2_min",
    "zeta2_opt",
]
