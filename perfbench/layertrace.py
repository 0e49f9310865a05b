"""Outside-in layer trace of bjjsim's public functions.

`Tracer.install` wraps each listed function and rebinds the wrapper in every
`bjjsim` module namespace that binds the same object (so `bjjsim.cli.trajectory`
and `bjjsim.exact_dynamics.trajectory` are both traced).  Every call becomes a
span `[name, start, end, parent, info]` kept in memory; `save` writes them out
when the run ends.  A function that a later version removes or renames is
reported as absent, and every metric that needs it reads `None`.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from time import perf_counter

import numpy as np

PACKAGE = "bjjsim"
LAYERS = {
    "spin_core": ("build_spin_operators", "covariance_yz", "expectation"),
    "exact_dynamics": ("hamiltonian", "eigendecompose", "evolve", "trajectory", "zeta2_of_time"),
    "witnesses": ("minimize_zeta2", "fit_taylor_coeffs", "make_record"),
    "wigner": ("density_multipoles", "wigner", "separatrix"),
    "output": ("write_table",),
    "cli": ("run_evolve", "run_sweep", "run_wigner"),
    "oat": ("oat_covariance", "oat_jx"),
    "phase_model": ("cov_stable_pi", "cov_unstable_pi", "cov_zero"),
}
# The callable that zeta2_of_time returns; each call is one witness evaluation.
ZETA2_EVAL = "exact_dynamics.zeta2_of_time.zeta2"

CALLS = ("exact_dynamics.evolve", "spin_core.covariance_yz", "spin_core.expectation",
         "exact_dynamics.hamiltonian", "exact_dynamics.eigendecompose",
         "witnesses.minimize_zeta2", "witnesses.fit_taylor_coeffs", "witnesses.make_record",
         "wigner.density_multipoles", "output.write_table")
SELF_TIMES = CALLS + ("exact_dynamics.trajectory", "wigner.wigner", "wigner.separatrix",
                      "cli.run_wigner", "oat.oat_covariance", "oat.oat_jx")
PHASE_MODEL_COV = ("phase_model.cov_stable_pi", "phase_model.cov_unstable_pi", "phase_model.cov_zero")


def _evolve_info(args, result):
    return args[1].dim  # (N+1) of the propagated state


def _eigendecompose_info(args, result):
    mat = args[0].matrix  # chi N^2/4 and the first coupling fix (N, lam)
    return (args[0].n_particles, float(mat[0, 0].real), float(mat[0, 1].real))


def _write_table_info(args, result):
    return os.path.getsize(result)


INFO = {
    "exact_dynamics.evolve": _evolve_info,
    "exact_dynamics.eigendecompose": _eigendecompose_info,
    "output.write_table": _write_table_info,
}


def self_times(spans) -> list[float]:
    """Span duration minus the part of its interval that its child spans cover.

    Spans must be listed in order of start time, as the tracer records them.
    """
    cover = [0.0] * len(spans)
    reach = [-np.inf] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent < 0:
            continue
        _, p_start, p_end, _, _ = spans[parent]
        lo, hi = max(start, p_start, reach[parent]), min(end, p_end)
        if hi > lo:
            cover[parent] += hi - lo
        reach[parent] = max(reach[parent], hi)
    return [(s[2] - s[1]) - c for s, c in zip(spans, cover)]


class Tracer:
    """Spans of every wrapped call, from `install` until `uninstall`."""

    def __init__(self, layers: dict = LAYERS):
        self.layers = layers
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        self._cache_mark = None
        self.cache_calls: tuple[int, int] | None = None  # (hits, misses) while installed

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        modules = {}
        for module, names in self.layers.items():
            try:
                modules[module] = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                self.absent += [f"{module}.{fn}" for fn in names]
        # every namespace that may bind a wrapped function, once all are imported
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module, mod in modules.items():
            for fn in self.layers[module]:
                original = getattr(mod, fn, None)
                if not callable(original):
                    self.absent.append(f"{module}.{fn}")
                    continue
                self._originals[f"{module}.{fn}"] = original
                wrapper = self._wrap(f"{module}.{fn}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patches.append((ns, attr, original))
        self._cache_mark = self._cache_info()

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()
        now = self._cache_info()
        if now is not None and self._cache_mark is not None:
            hits, misses = self.cache_calls or (0, 0)
            self.cache_calls = (hits + now[0] - self._cache_mark[0], misses + now[1] - self._cache_mark[1])

    def _wrap(self, name: str, fn):
        info_of = INFO.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if info_of is not None:
                try:
                    span[4] = info_of(args, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    pass  # a changed signature leaves the derived metric absent
            if name == "exact_dynamics.zeta2_of_time" and callable(result):
                result = self._wrap(ZETA2_EVAL, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _cache_info(self):
        """(hits, misses) of build_spin_operators' cache, or None."""
        fn = self._originals.get("spin_core.build_spin_operators")
        info = getattr(fn, "cache_info", None)
        return None if info is None else tuple(info()[:2])

    def save(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        np.savez(path, names=np.array(names),
                 name=np.array([index[s[0]] for s in self.spans], dtype=np.int32),
                 start=np.array([s[1] for s in self.spans]),
                 end=np.array([s[2] for s in self.spans]),
                 parent=np.array([s[3] for s in self.spans], dtype=np.int64))

    # -- metrics --------------------------------------------------------------

    def layer_metrics(self, jobs: int, overhead_ratio: float | None) -> dict:
        """Per-job layer metrics, name -> (value or None when absent, unit)."""
        jobs = max(jobs, 1)
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        info: dict[str, list] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            name = span[0]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            info.setdefault(name, []).append(span[4])

        def present(*names):
            return not any(n in self.absent for n in names)

        out = {}
        for name in CALLS:
            out[f"{name}.calls"] = (calls.get(name, 0) / jobs if present(name) else None, "count")
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = (self_s.get(name, 0.0) / jobs if present(name) else None, "s")

        dims = info.get("exact_dynamics.evolve", [])
        ok = present("exact_dynamics.evolve") and None not in dims
        out["exact_dynamics.evolve.bytes_computed"] = (
            sum(2 * d * d * 16 for d in dims) / jobs if ok else None, "B")
        keys = info.get("exact_dynamics.eigendecompose", [])
        ok = present("exact_dynamics.eigendecompose") and None not in keys
        out["exact_dynamics.eigendecompose.reuse_ratio"] = (
            len(set(keys)) / len(keys) if ok and keys else (0.0 if ok else None), "ratio")
        sizes = info.get("output.write_table", [])
        ok = present("output.write_table") and None not in sizes
        out["output.write_table.bytes"] = (sum(sizes) / jobs if ok else None, "B")

        ok = present("exact_dynamics.zeta2_of_time")
        evals = calls.get(ZETA2_EVAL, 0)
        out["exact_dynamics.zeta2_of_time.evals"] = (evals / jobs if ok else None, "count")
        ok = ok and present("witnesses.minimize_zeta2")
        in_min = self._count_within(ZETA2_EVAL, "witnesses.minimize_zeta2")
        n_min = calls.get("witnesses.minimize_zeta2", 0)
        out["witnesses.minimize_zeta2.evals_per_call"] = (
            (in_min / n_min if n_min else 0.0) if ok else None, "count")

        if self.cache_calls is None:
            ratio = None
        else:
            hits, misses = self.cache_calls
            ratio = hits / (hits + misses) if hits + misses else 0.0
        out["spin_core.build_spin_operators.cache_hit_ratio"] = (ratio, "ratio")
        out["phase_model.cov.self_s"] = (
            sum(self_s.get(n, 0.0) for n in PHASE_MODEL_COV) / jobs if present(*PHASE_MODEL_COV) else None, "s")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

    def _count_within(self, name: str, ancestor: str) -> int:
        """Spans called `name` that have a span called `ancestor` above them."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count


#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = {name: unit for name, (_, unit) in Tracer().layer_metrics(1, 1.0).items()}
