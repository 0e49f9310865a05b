"""Self-time arithmetic, tracer patching and absence, and the declared metrics."""

import json
import math
import subprocess
import sys
import shutil

import pytest

import layertrace
import run
from layertrace import Tracer, self_times
from workloads import EvolveLargeN, SweepSmallN, job_rng

from conftest import BENCH


def test_self_time_arithmetic_on_synthetic_tree():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["a.leaf", 2.0, 3.0, 1, None],
        ["b", 5.0, 6.5, 0, None],
        ["next_root", 11.0, 12.0, -1, None],
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.5, 2.0, 1.0, 1.5, 1.0])


def test_self_time_counts_covered_time_once_and_inside_the_parent():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 3.0, 5.0, 0, None],     # overlaps a from 3 to 4
        ["c", 9.0, 11.0, 0, None],    # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_layer_metrics_from_synthetic_spans():
    tracer = Tracer()
    z = layertrace.ZETA2_EVAL
    tracer.spans = [
        ["cli.run_sweep", 0.0, 10.0, -1, None],
        ["witnesses.minimize_zeta2", 1.0, 5.0, 0, None],
        [z, 1.5, 2.0, 1, None],
        ["exact_dynamics.evolve", 1.6, 1.9, 2, 11],
        [z, 2.5, 3.0, 1, None],
        [z, 6.0, 7.0, 0, None],          # an evaluation outside any minimizer
        ["exact_dynamics.eigendecompose", 7.0, 8.0, 0, (10, 1.0, -2.0)],
        ["exact_dynamics.eigendecompose", 8.0, 9.0, 0, (10, 1.0, -2.0)],
    ]
    m = tracer.layer_metrics(2, 1.25)
    assert m["witnesses.minimize_zeta2.calls"] == (0.5, "count")
    assert m["witnesses.minimize_zeta2.self_s"][0] == pytest.approx((4.0 - 0.5 - 0.5) / 2)
    assert m["witnesses.minimize_zeta2.evals_per_call"][0] == 2.0
    assert m["exact_dynamics.zeta2_of_time.evals"][0] == 1.5
    assert m["exact_dynamics.evolve.bytes_computed"][0] == 2 * 11 * 11 * 16 / 2
    assert m["exact_dynamics.eigendecompose.reuse_ratio"][0] == 0.5
    assert m["spin_core.build_spin_operators.cache_hit_ratio"][0] is None
    assert m["trace.overhead_ratio"][0] == 1.25


def test_tracer_patches_every_binding_and_restores(tmp_path):
    import bjjsim
    import bjjsim.cli
    import bjjsim.exact_dynamics

    originals = (bjjsim.cli.trajectory, bjjsim.exact_dynamics.evolve, bjjsim.evolve)
    workload = EvolveLargeN(n=20, steps=5)
    workload.setup()
    tracer = Tracer()
    tracer.install()
    try:
        assert bjjsim.cli.trajectory is bjjsim.exact_dynamics.trajectory is not originals[0]
        assert bjjsim.evolve is bjjsim.exact_dynamics.evolve is not originals[1]
        workload.run(workload.draw(job_rng(workload.name, 3, 0, "input")), tmp_path)
    finally:
        tracer.uninstall()
    assert (bjjsim.cli.trajectory, bjjsim.exact_dynamics.evolve, bjjsim.evolve) == originals
    assert tracer.absent == []
    assert tracer.spans[0][0] == "cli.run_evolve" and tracer.spans[0][3] == -1
    m = tracer.layer_metrics(1, 1.0)
    assert m["exact_dynamics.evolve.calls"][0] == 5
    assert m["exact_dynamics.evolve.bytes_computed"][0] == 5 * 2 * 21 * 21 * 16
    assert m["witnesses.make_record.calls"][0] == 15  # exact, analytic and twisting rows
    assert m["output.write_table.bytes"][0] == (tmp_path / "evolve.csv").stat().st_size
    assert m["spin_core.build_spin_operators.cache_hit_ratio"][0] == 1.0
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(self_times(tracer.spans)) == pytest.approx(total)


def test_tracer_survives_missing_functions(monkeypatch, tmp_path):
    import bjjsim.witnesses

    monkeypatch.delattr(bjjsim.witnesses, "make_record")
    tracer = Tracer()
    tracer.install()
    try:
        workload = SweepSmallN(n=20)
        workload.run(workload.draw(job_rng(workload.name, 3, 0, "input")), tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["witnesses.make_record"]
    m = tracer.layer_metrics(1, 1.0)
    assert m["witnesses.make_record.calls"] == (None, "count")
    assert m["witnesses.make_record.self_s"] == (None, "s")
    assert m["witnesses.minimize_zeta2.evals_per_call"][0] > 600

    tracer = Tracer(layers={"no_such_module": ("f",), "exact_dynamics": ("evolve", "renamed_away")})
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["no_such_module.f", "exact_dynamics.renamed_away"]


def test_benchmark_declares_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layertrace.PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize("n", [1, 10, 11, 12, 23, 35, 60, 200])
def test_tail_leaves_at_least_ten_jobs_beyond(n):
    times = [float(i) for i in range(n)]
    value, pct = run.tail(times)
    if n <= run.TAIL_BEYOND:
        assert (value, pct) == (max(times), 100)
    else:
        assert sum(t > value for t in times) >= run.TAIL_BEYOND
        assert sum(t > value for t in times) < run.TAIL_BEYOND + math.ceil(n / 100) + 1


def test_run_refuses_without_library_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_run", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wigner_grid", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
