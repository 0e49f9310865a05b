"""Every function in src/bjjsim is entered by a run path, or the benchmark holds it.

The run paths are the commands of cli.main.  The test runs each of them
in-process under sys.setprofile and collects the functions entered: at
small N, for both initial states and both formats, from a config file
with a boolean key, and as a sweep over the three pi regimes (stable,
between the branches, unstable) with one worker, since the profile does
not follow pool processes.  Every def in the package, methods and nested
functions included, found by ast, must then be entered, or be named in
BENCHMARK_HELD: the names that perfbench/ uses but no command reaches.
The check is an equality, so a name that a run path comes to enter, or
that the package drops, fails it as well.  Test-only oracles live in
tests/library_reference.py, outside the package.  The README's public-API
list must name exactly bjjsim.__all__.
"""

import ast
import importlib
import sys
from pathlib import Path

import bjjsim
from bjjsim import cli

PACKAGE = Path(bjjsim.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"

#: Qualified name -> the perfbench/ file that holds it: the workloads' set-up
#: (build_spin_operators, whose table of CollectiveOperators runs
#: __post_init__, and density_multipoles), the layer trace's LAYERS (the
#: dense reference layer and wigner(psi), wrapped by name) and the oracle
#: tests, which iterate a record of arrays.  CollectiveOperator.dim has no
#: caller of its own; it goes with the type when the benchmark drops it.
BENCHMARK_HELD = {
    "spin_core.build_spin_operators": "perfbench/workloads.py",
    "spin_core.CollectiveOperator.__post_init__": "perfbench/workloads.py",
    "spin_core.CollectiveOperator.dim": "perfbench/workloads.py",
    "spin_core.CollectiveOperator.is_tridiagonal": "perfbench/layertrace.py",
    "spin_core.expectation": "perfbench/layertrace.py",
    "spin_core.covariance_yz": "perfbench/layertrace.py",
    "exact_dynamics.hamiltonian": "perfbench/layertrace.py",
    "exact_dynamics.eigendecompose": "perfbench/layertrace.py",
    "exact_dynamics.evolve": "perfbench/layertrace.py",
    "wigner.density_multipoles": "perfbench/workloads.py",
    "wigner.wigner": "perfbench/layertrace.py",
    "witnesses.WitnessRecord.__iter__": "perfbench/tests/test_oracle.py",
}


def package_defs() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> qualified name of every def in the package.

    The first line is that of the first decorator, as a code object's
    co_firstlineno has it; qualified names are module.Class.method and
    module.function.nested.
    """
    found = {}

    def walk(node, path: str, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first, child.name)] = name
                walk(child, path, name)
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}.{child.name}")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), str(path), path.stem)
    return found


def run_every_command(out: Path) -> None:
    """Each command through cli.main, at small N: both states, CSV and JSON, and a config file."""
    conf = out / "run.conf"
    conf.write_text("n = 20\nlambda = 2.3\nsnapshots = 0.5\nseparatrix = no\n")
    runs = [["wigner", "--config", str(conf), "--out", str(out / "conf")]]
    for fmt in ("csv", "json"):
        for state in ("pi", "zero"):
            common = ["--n", "20", "--state", state, "--format", fmt,
                      "--out", str(out / fmt / state)]
            runs += [
                ["evolve", "--lambda", "0.5", "--steps", "20", "--compare", "analytic,oat", *common],
                ["evolve", "--lambda", "2.0", "--steps", "20", "--compare", "analytic,oat", *common],
                ["evolve", "--lambda", "0.97", "--steps", "20", *common],
                ["sweep", "--lambda-grid", "0.5,0.97,2.0", "--workers", "1", *common],
                ["wigner", "--lambda", "2.3", "--snapshots", "0,0.5", *common],
                ["oat-compare", "--lambda", "2.0", "--steps", "20", *common],
                ["fit", "--lambda", "2.0", *common],
            ]
    for argv in runs:
        assert cli.main(argv) == 0, argv


def test_every_package_function_is_run_or_held_by_the_benchmark(tmp_path):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(profile)
    try:
        run_every_command(tmp_path)
    finally:
        sys.setprofile(None)
    entered = {(str(Path(f).resolve()), line, name) for f, line, name in entered}
    defs = package_defs()
    never = {qualname for key, qualname in defs.items() if key not in entered}
    assert never == set(BENCHMARK_HELD)


def readme_api() -> list[tuple[str, str]]:
    """(name, module) of each name in the README's public-API list.

    The list is the lines "- `module`: `name`, `name`, ..." of its section.
    """
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    names = []
    for line in section.splitlines():
        if line.startswith("- `"):
            module, _, listed = line[2:].partition(":")
            names += [(name.strip().strip("`"), module.strip("`")) for name in listed.split(",")]
    return names


def test_readme_names_exactly_the_public_api():
    listed = readme_api()
    assert sorted(name for name, _ in listed) == sorted(set(bjjsim.__all__))
    assert len(bjjsim.__all__) == len(set(bjjsim.__all__))
    for name, module in listed:
        # each from the module the README names
        assert getattr(importlib.import_module(f"bjjsim.{module}"), name) is getattr(bjjsim, name), name
