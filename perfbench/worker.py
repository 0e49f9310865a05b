"""One workload process: set-up, then a closed loop of checked jobs.

Started by run.py in a fresh interpreter with BLAS pinned to one thread.  It
prints JSON lines on stdout: {"event": "ready"} as soon as set-up is done,
and one {"event": "done", ...} record at the end.  With --trace 1 every job
runs twice, untraced and then under the layer trace.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import layertrace
import reference
from workloads import WORKLOADS, data_rows, job_rng

HERE = Path(__file__).resolve().parent


def emit(**record) -> None:
    print(json.dumps(record), flush=True)


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS will use, asked from the library itself."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    out = {}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def machine_info(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "seed": seed}


def run_job(workload, seed: int, index: int, work_dir: Path, ref: dict):
    """Time one job, then check its files; (seconds, data rows, problems)."""
    job = workload.draw(job_rng(workload.name, seed, index, "input"))
    elapsed, rows = None, 0
    try:
        t0 = perf_counter()
        paths = workload.run(job, work_dir)
        elapsed = perf_counter() - t0
        found = workload.check(job, paths, job_rng(workload.name, seed, index, "check"))
        found += reference.compare(ref, workload.name, seed, index, paths)
        rows = sum(data_rows(p) for p in paths)
    except Exception as exc:  # a job that raises is a failed job; the loop goes on
        found = [f"raised {type(exc).__name__}: {exc}"]
    for path in work_dir.iterdir():
        path.unlink()
    problems = [{"job": index, "input": job, "problems": found[:5]}] if found else []
    return elapsed, rows, problems


def measure(workload, seed: int, seconds: float, work_dir: Path, ref: dict, tracer=None) -> dict:
    """Closed loop, one client: the next job starts when the last is checked.

    With a tracer, each job runs twice in a row, untraced and then traced, so
    the tracing overhead is a ratio of paired runs of the same input.
    """
    out = {"times": [], "rows": 0, "attempted": 0, "problems": [], "traced_jobs": 0, "overheads": []}
    index = 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        elapsed, rows, problems = run_job(workload, seed, index, work_dir, ref)
        out["attempted"] += 1
        out["problems"] += problems
        if not problems:
            out["times"].append(elapsed)
            out["rows"] += rows
        if tracer is not None:
            tracer.install()
            try:
                traced, _, traced_problems = run_job(workload, seed, index, work_dir, ref)
            finally:
                tracer.uninstall()
            out["attempted"] += 1
            out["traced_jobs"] += 1
            out["problems"] += traced_problems
            if not problems and not traced_problems:
                out["overheads"].append(traced / elapsed)
        index += 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    import bjjsim.cli  # noqa: F401  (set-up: the import a user pays, then the lazy tables)
    workload.setup()
    emit(event="ready")
    if args.setup_only:
        return 0

    ref = reference.load()
    run_dir = HERE / "_run"
    work_dir = run_dir / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = layertrace.Tracer() if args.trace else None
    try:
        result = measure(workload, args.seed, args.seconds, work_dir, ref, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if tracer is not None:
        overhead = statistics.median(result["overheads"]) if result["overheads"] else None
        result["layers"] = tracer.layer_metrics(result["traced_jobs"], overhead)
        result["absent"] = tracer.absent
        tracer.save(run_dir / f"trace-{workload.name}.npz")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = machine_info(args.seed)
    emit(event="done", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
