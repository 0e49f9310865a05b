"""What the benchmark harness in perfbench/ needs of the library.

The harness traces bjjsim's functions by name (layertrace.LAYERS) and drops
every per-layer metric whose function it finds absent, and it checks each
job's files against an oracle and stored reference rows.  A renamed or
removed traced function, or a changed output, breaks the benchmark without
failing any other test; these tests fail instead.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_tracer_finds_every_traced_function():
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    # build_spin_operators keeps the lru_cache whose hit ratio is reported
    assert tracer.cache_calls is not None
    # so every per-layer metric BENCHMARK.json declares has a value
    metrics = tracer.layer_metrics(1, 1.0)
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert [name for name in declared if metrics.get(name, (None,))[0] is None] == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_reference_job_passes_its_checks(name, tmp_path):
    # job 0 at the default seed: the oracle and the stored reference rows
    elapsed, rows, problems = worker.run_job(WORKLOADS[name], reference.DEFAULT_SEED, 0, tmp_path,
                                             reference.load())
    assert problems == []
    assert elapsed is not None and rows > 0
