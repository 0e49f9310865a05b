"""bjjsim benchmark: end-to-end job metrics and a traced per-layer breakdown.

Usage, from the repository root:

    python3 perfbench/run.py --workload evolve_large_n --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, traced and not

Each run starts fresh interpreters with OPENBLAS/OMP/MKL_NUM_THREADS=1 and
PYTHONPATH=src: several that only set up (for setup_s), then one that runs a
closed loop of jobs through the public bjjsim.cli functions for --seconds and
checks every job's output (see worker.py).  The script prints every metric
by name with its unit, then one JSON line
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  It exits 1 when any output
check failed, and 2 when the library source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
WORKLOADS = ("evolve_large_n", "sweep_small_n", "wigner_grid")
END_TO_END_UNITS = {"setup_s": "s", "job_s_p50": "s", "job_s_tail": "s", "rows_per_s": "1/s",
                    "peak_rss_mb": "MB", "ok_ratio": "ratio"}
TAIL_BEYOND = 10


def _env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _start(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                            env=_env(), stdout=subprocess.PIPE, text=True)


def _ready(proc: subprocess.Popen) -> None:
    line = proc.stdout.readline()
    if not line or json.loads(line).get("event") != "ready":
        raise RuntimeError(f"worker failed during set-up: {line!r}")


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def setup_sample(workload: str) -> float:
    """Seconds from interpreter start to filled lazy tables, in a fresh process."""
    t0 = perf_counter()
    proc = _start(["--workload", workload, "--setup-only"])
    try:
        _ready(proc)
        elapsed = perf_counter() - t0
        proc.communicate(timeout=60)
        return elapsed
    finally:
        _stop(proc)


def tail(times: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least TAIL_BEYOND jobs beyond it (nearest rank)."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return max(times), 100
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return sorted(times)[rank - 1], pct


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    start = perf_counter()
    setups = [] if traced else [setup_sample(workload) for _ in range(SETUP_SAMPLES)]
    t0 = perf_counter()
    proc = _start(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(int(traced))])
    try:
        _ready(proc)
        setups.append(perf_counter() - t0)
        out, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (perf_counter() - start)))
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    done = json.loads(out.strip().splitlines()[-1])
    done["setups"] = setups
    return done


def metrics_of(done: dict, traced: bool) -> dict:
    """name -> (value or None, unit)."""
    if traced:
        return {name: tuple(v) for name, v in done["layers"].items()}
    times, attempted = done["times"], done["attempted"]
    out = {"setup_s": statistics.median(done["setups"]),
           "job_s_p50": statistics.median(times) if times else None,
           "job_s_tail": tail(times)[0] if times else None,
           "rows_per_s": done["rows"] / sum(times) if times else None,
           "peak_rss_mb": done["peak_rss_mb"],
           "ok_ratio": (attempted - len(done["problems"])) / attempted if attempted else None}
    return {name: (value, END_TO_END_UNITS[name]) for name, value in out.items()}


def report(workload: str, done: dict, traced: bool) -> dict:
    """Print every metric by name with its unit; return the result record."""
    metrics = metrics_of(done, traced)
    attempted, failed = done["attempted"], len(done["problems"])
    print(f"machine: {json.dumps(done['machine'], sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g} {unit}"
        print(f"{workload} {name} = {shown}")
    if not traced and done["times"]:
        _, pct = tail(done["times"])
        print(f"{workload} job_s_tail is p{pct} of {len(done['times'])} checked jobs")
    print(f"{workload} fail_ratio = {failed / attempted if attempted else float('nan'):.6g} "
          f"({failed} of {attempted} jobs failed)")
    for item in done["problems"][:5]:
        print(f"{workload} FAILED job {item['job']} {item['input']}: {item['problems']}", file=sys.stderr)
    if done.get("absent"):
        print(f"{workload} absent functions: {done['absent']}")
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items() if value is not None}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bjjsim" / "__init__.py").is_file():
        print(f"run.py: no library source at {ROOT / 'src' / 'bjjsim'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        results = [report(w, run_workload(w, args.seed, args.seconds, bool(t)), bool(t))
                   for w in WORKLOADS for t in (0, 1)]
        ok = all(r["correct"] for r in results)
        print(f"all workloads: output checks {'passed' if ok else 'FAILED'}")
        return 0 if ok else 1

    result = report(args.workload, run_workload(args.workload, args.seed, args.seconds, bool(args.trace)),
                    bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
