"""Reference outputs of the first jobs at the default seed.

`compare` checks a job's files against sampled rows stored in
`reference.json`, which the seed commit of the library produced.  Run this
file to regenerate it (with the environment `run.py` gives its workers):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import oracle
from workloads import WORKLOADS, job_rng

DEFAULT_SEED = 0
JOBS = 3
SAMPLED_ROWS = {"evolve.csv": 10, "sweep.csv": 2, "wigner_t00.csv": 32, "separatrix.csv": 8}
PATH = Path(__file__).with_name("reference.json")


def _fields_match(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(g) or math.isnan(w):
        return math.isnan(g) and math.isnan(w)
    return not oracle.mismatch(g, w, "")


def compare(stored: dict, workload: str, seed: int, index: int, paths: list[Path]) -> list[str]:
    """Problems against the stored rows; none when no reference covers the job."""
    jobs = stored.get(workload, [])
    if seed != DEFAULT_SEED or index >= len(jobs):
        return []
    want = jobs[index]
    if sorted(p.name for p in paths) != sorted(want):
        return [f"reference: files {[p.name for p in paths]} != {sorted(want)}"]
    problems = []
    for path in paths:
        columns, rows = oracle.read_table(path)
        ref = want[path.name]
        if columns != ref["columns"] or len(rows) != ref["n_rows"]:
            problems.append(f"reference: {path.name} layout differs")
            continue
        for i, ref_row in zip(ref["rows"], ref["values"]):
            bad = [c for c, g, w in zip(columns, rows[i], ref_row) if not _fields_match(g, w)]
            if bad:
                problems.append(f"reference: {path.name} row {i} differs in {bad}")
    return problems


def load() -> dict:
    return json.loads(PATH.read_text())


def build() -> dict:
    out = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for name, workload in WORKLOADS.items():
            workload.setup()
            out[name] = []
            for index in range(JOBS):
                job = workload.draw(job_rng(name, DEFAULT_SEED, index, "input"))
                paths = workload.run(job, Path(tmp))
                rng = job_rng(name, DEFAULT_SEED, index, "reference")
                entry = {}
                for path in paths:
                    columns, rows = oracle.read_table(path)
                    picked = sorted(rng.sample(range(len(rows)), SAMPLED_ROWS[path.name]))
                    entry[path.name] = {"columns": columns, "n_rows": len(rows), "rows": picked,
                                        "values": [rows[i] for i in picked]}
                out[name].append(entry)
    return out


if __name__ == "__main__":
    PATH.write_text(json.dumps(build(), indent=1) + "\n")
    sys.exit(0)
