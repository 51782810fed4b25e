import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinstep

SUBMODULES = ("algebra", "eigensystem", "scattering", "sweep_io")


def test_every_exported_name_resolves_and_is_listed():
    # the package resolves its names on first use; star imports and dir()
    # still see every one of them
    assert len(spinstep.__all__) == len(set(spinstep.__all__)) == 43
    assert set(SUBMODULES) <= set(spinstep.__all__)
    listed = dir(spinstep)
    for name in spinstep.__all__:
        assert getattr(spinstep, name) is not None, name
        assert name in listed, name
    namespace = {}
    exec("from spinstep import *", namespace)
    assert set(spinstep.__all__) <= set(namespace)
    assert spinstep.Spin is spinstep.eigensystem.Spin is spinstep.scattering.Spin
    # the evanescent mass pole is accepted: its former refusal is not exported
    assert "MassPoleError" not in listed


def test_each_name_is_listed_once_by_the_module_that_defines_it():
    # the package's names are the modules' __all__ lists, which hold no
    # tolerance or re-exported import
    modules = [getattr(spinstep, name) for name in SUBMODULES]
    listed = [name for module in modules for name in module.__all__]
    assert sorted(listed) == sorted(set(spinstep.__all__) - set(SUBMODULES))
    for module in modules:
        for name in module.__all__:
            owner = getattr(getattr(module, name), "__module__", module.__name__)
            assert owner == module.__name__, name


ROOT = Path(__file__).resolve().parents[1]

# exported names whose only callers are tests, each with its reason
TEST_ONLY_EXPORTS = {
    "schrodinger_reduction_check": "the entry point of the known red acceptance check 8b",
    "eigensystem": "read outside tests only as the string in perfbench's "
    'load_spinstep(..., "spinstep.eigensystem")',
}


def _names_read(tree: ast.Module) -> set:
    """The names a module imports or reads, as a Name or an Attribute,
    outside the top-level statement that defines each of them."""
    read = set()
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            defined = {statement.name}
        elif isinstance(statement, ast.Assign):
            targets = ast.walk(ast.Tuple(statement.targets))
            defined = {node.id for node in targets if isinstance(node, ast.Name)}
        else:
            defined = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                module = (node.module or "").split(".")[-1]
                names = {module, *(alias.name for alias in node.names)}
            elif isinstance(node, ast.Import):
                names = {alias.name.split(".")[-1] for alias in node.names}
            else:
                continue
            read |= names - defined
    return read


def test_every_exported_name_has_a_caller_outside_tests():
    # the package, the demos or the benchmark harness imports or reads every
    # exported name; a public name that only tests read is dead surface
    files = [
        *(ROOT / "src" / "spinstep").glob("*.py"),
        *(ROOT / "demos").glob("*.py"),
        *(ROOT / "perfbench").glob("*.py"),
    ]
    read = set().union(*(_names_read(ast.parse(f.read_text(encoding="utf-8"))) for f in files))
    uncalled = sorted(set(spinstep.__all__) - read - set(TEST_ONLY_EXPORTS))
    assert uncalled == []
    # the allowlist names exported names that really have no other caller
    assert set(TEST_ONLY_EXPORTS) <= set(spinstep.__all__) - read


def test_point_names_and_cli_resolve_without_numpy():
    # in a fresh interpreter: the lazy search stops at the numpy-free
    # modules, `from spinstep import cli` does not search at all, and the
    # oracle route solves both branches, and continuity_residual measures
    # them, without numpy
    code = (
        "import sys, spinstep; spinstep.StepProblem; spinstep.run_sweep; "
        "from spinstep import cli; "
        "from spinstep import StepProblem, solve_amplitudes_linear, coefficients, currents, "
        "continuity_residual\n"
        "for energy in (200.0, 50.0):\n"
        "    problem = StepProblem(energy, 100.0)\n"
        "    amps = solve_amplitudes_linear(problem)\n"
        "    coefficients(problem, amps), currents(problem, amps)\n"
        "    assert continuity_residual(problem, amps) <= 1e-12\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


def test_library_modules_and_identity_suites_run_without_numpy():
    # in a fresh interpreter: every module imports without numpy, so the
    # package's full name list resolves without it, and the identity suites
    # run on the exact tables in Python numbers
    code = (
        "import sys, spinstep, spinstep.algebra, spinstep.eigensystem\n"
        "spinstep.__all__\n"
        "for rep in spinstep.EtaRepresentation:\n"
        "    assert spinstep.verify_eta_algebra(rep).passed\n"
        "    assert spinstep.verify_dispersion(rep).passed\n"
        "    assert spinstep.verify_continuity_identities(rep).passed\n"
        "    assert spinstep.squared_operator_check((0.6, 0.0, 0.8), rep=rep).passed\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


def test_verification_takes_no_tolerance_or_single_value_options():
    # each check's bound is fixed where the check is defined, and no public
    # function carries an option that its callers never vary
    for name in spinstep.__all__:
        value = getattr(spinstep, name)
        if callable(value) and not isinstance(value, type):
            params = set(inspect.signature(value).parameters)
            assert not params & {"tol", "check_gamma_identities", "indent"}, name
    for name in ("shell_determinant", "schrodinger_reduction_check"):
        assert "rep" not in inspect.signature(getattr(spinstep, name)).parameters, name
    assert list(inspect.signature(spinstep.verify_dispersion).parameters) == ["rep"]
    assert not hasattr(spinstep.AlgebraReport, "to_json")
    # a sweep is spin-up: spin-down incidence is a point query only
    assert "incident_spin" not in spinstep.SweepSpec._fields
    assert list(inspect.signature(spinstep.scattering._rows).parameters) == ["grid", "v0", "mass"]
    # no energy option is an exception to the positive-finite check
    with pytest.raises(ValueError, match="must be positive and finite") as refused:
        spinstep.momentum_operator(0.0, 7.0)
    assert type(refused.value) is ValueError


def test_readme_quick_start_runs(capsys):
    # the python block under "Library quick start" runs and prints a unit sum
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(code, {})
    assert abs(float(capsys.readouterr().out) - 1.0) <= 1e-12


BEYOND = 10**400  # an int no double holds: float() and frexp raise OverflowError on it
P = (0.6, 0.0, 0.8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    pytest.param(lambda: spinstep.StepProblem(BEYOND, 1.0), id="StepProblem"),
    pytest.param(lambda: spinstep.shell_determinant(BEYOND, 1.0, P), id="shell-energy"),
    pytest.param(lambda: spinstep.shell_determinant(1.0, BEYOND, P), id="shell-mass"),
    pytest.param(lambda: spinstep.shell_determinant(1.0, 1.0, (0, 0, BEYOND)), id="shell-p"),
    pytest.param(lambda: spinstep.schrodinger_reduction_check(BEYOND, 1.0, P), id="reduction"),
    pytest.param(lambda: spinstep.squared_operator_check(P, energy=BEYOND), id="squared-energy"),
    pytest.param(lambda: spinstep.squared_operator_check(P, mass=BEYOND), id="squared-mass"),
    pytest.param(lambda: spinstep.squared_operator_check((0, 0, BEYOND)), id="squared-p"),
    pytest.param(lambda: spinstep.momentum_operator(BEYOND, 1.0), id="operator-energy"),
    pytest.param(lambda: spinstep.momentum_operator(1.0, BEYOND), id="operator-mass"),
    pytest.param(lambda: spinstep.analytic_eigenstate(1, BEYOND, 1.0), id="eigenstate-energy"),
    pytest.param(lambda: spinstep.analytic_eigenstate(1, 1.0, BEYOND), id="eigenstate-mass"),
    pytest.param(lambda: spinstep.run_sweep(spinstep.SweepSpec(v0=BEYOND)), id="sweep-v0"),
    pytest.param(lambda: spinstep.run_sweep(spinstep.SweepSpec(v0=1.0, mass=BEYOND)),
                 id="sweep-mass"),
    *(pytest.param(lambda spacing=spacing: spinstep.run_sweep(spinstep.SweepSpec(
        v0=100.0, e_over_v0_min=1.5, e_over_v0_max=BEYOND, spacing=spacing,
    )), id=f"sweep-{spacing.value}") for spacing in spinstep.Spacing),
])
def test_an_int_beyond_the_double_range_is_a_value_error(call):
    # one positive-finite check, in scattering, refuses it before any float()
    # or frexp: never an OverflowError, nor numpy's TypeError in a sweep
    with pytest.raises(ValueError, match="finite") as refused:
        call()
    assert type(refused.value) is ValueError


NOT_A_REP = "rep must be an EtaRepresentation, got 'rep1'"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, message", [
    *(pytest.param(lambda name=name: getattr(spinstep, name)("rep1"), NOT_A_REP, id=name)
      for name in ("eta", "eta_dagger", "verify_eta_algebra", "verify_dispersion",
                   "verify_continuity_identities")),
    pytest.param(lambda: spinstep.squared_operator_check(P, rep="rep1"), NOT_A_REP,
                 id="squared_operator_check"),
    pytest.param(lambda: spinstep.momentum_operator(1.0, 1.0, rep="rep1"), NOT_A_REP,
                 id="momentum_operator"),
    pytest.param(lambda: spinstep.gamma([1]), "gamma index must be one of 0,1,2,3,5, got [1]",
                 id="gamma-unhashable"),
])
def test_a_rep_or_gamma_index_of_the_wrong_kind_is_a_value_error_naming_it(call, message):
    # refused as StepProblem refuses an incident_spin that is not a Spin: never
    # a bare KeyError, nor the TypeError of an unhashable key
    with pytest.raises(ValueError) as refused:
        call()
    assert type(refused.value) is ValueError
    assert str(refused.value) == message
