"""The benchmark's workloads: seeded job inputs, set-up, one job, its check.

Every job goes through the public `bjjsim.cli.run_*` functions with
`workers=1`, exactly as the CLI calls them, and writes its files into a
work directory.  Inputs come only from the workload seed and the job
index, so the same seed replays the same jobs.  bjjsim is imported inside
each method, at call time, so that a traced job calls the tracer's wrappers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import oracle


def job_rng(workload: str, seed: int, index: int, purpose: str) -> random.Random:
    """Independent stream per (workload, seed, job, purpose); str seeding is stable."""
    return random.Random(f"{workload}/{seed}/{index}/{purpose}")


def data_rows(path: Path) -> int:
    """Data rows of a written CSV table (schema and column lines excluded)."""
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 2


@dataclass(frozen=True)
class EvolveLargeN:
    """Bandwidth-bound propagation with analytic and twisting comparison columns."""

    name: str = "evolve_large_n"
    n: int = 1000
    steps: int = 50

    def draw(self, rng: random.Random) -> dict:
        lam = rng.uniform(0.2, 3.0)
        while abs(lam - 1.0) < 0.2:  # the analytic pi branches exclude the critical point
            lam = rng.uniform(0.2, 3.0)
        return {"n": self.n, "steps": self.steps, "lam": lam,
                "state": rng.choice(("pi", "zero")), "t_max": rng.uniform(2.0, 10.0)}

    def setup(self) -> None:
        from bjjsim.spin_core import build_spin_operators
        build_spin_operators(self.n)

    def run(self, job: dict, out_dir: Path) -> list[Path]:
        from bjjsim.cli import RunConfig, run_evolve
        from bjjsim.spin_core import ModelParams
        cfg = RunConfig(params=ModelParams.coupled(job["n"], job["lam"]),
                        initial_state=job["state"], t_max=job["t_max"], n_steps=job["steps"],
                        out_dir=out_dir, compare=("analytic", "oat"), workers=1)
        return run_evolve(cfg)

    check = staticmethod(oracle.check_evolve)


@dataclass(frozen=True)
class SweepSmallN:
    """Many cache-resident single-time propagations, a minimizer and a fit."""

    name: str = "sweep_small_n"
    n: int = 200

    def draw(self, rng: random.Random) -> dict:
        grid = sorted(rng.uniform(1.1, 3.0) for _ in range(2))
        return {"n": self.n, "lambda_grid": grid}

    def setup(self) -> None:
        from bjjsim.spin_core import build_spin_operators
        build_spin_operators(self.n)

    def run(self, job: dict, out_dir: Path) -> list[Path]:
        from bjjsim.cli import RunConfig, SweepConfig, run_sweep
        from bjjsim.spin_core import ModelParams
        base = RunConfig(params=ModelParams.coupled(job["n"], 2.0), initial_state="pi",
                         out_dir=out_dir, workers=1)
        return run_sweep(SweepConfig(lambda_grid=tuple(job["lambda_grid"]), base=base))

    check = staticmethod(oracle.check_sweep)


@dataclass(frozen=True)
class WignerGrid:
    """Wigner summation and CSV formatting of a 181 x 361 sphere grid."""

    name: str = "wigner_grid"
    n: int = 60

    def draw(self, rng: random.Random) -> dict:
        t = 3.0 - rng.uniform(0.0, 2.5)  # in (0.5, 3]
        return {"n": self.n, "lam": rng.uniform(1.2, 3.0), "t": t}

    def setup(self) -> None:
        from bjjsim.spin_core import build_spin_operators, coherent_state
        from bjjsim.wigner import density_multipoles
        build_spin_operators(self.n)
        density_multipoles(coherent_state(self.n, math.pi / 2.0, math.pi))

    def run(self, job: dict, out_dir: Path) -> list[Path]:
        from bjjsim.cli import RunConfig, run_wigner
        from bjjsim.spin_core import ModelParams
        cfg = RunConfig(params=ModelParams.coupled(job["n"], job["lam"]), initial_state="pi",
                        out_dir=out_dir, fmt="csv", workers=1)
        return run_wigner(cfg, [job["t"]], want_separatrix=True)

    check = staticmethod(oracle.check_wigner)


WORKLOADS = {w.name: w for w in (EvolveLargeN(), SweepSmallN(), WignerGrid())}
