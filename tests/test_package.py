import inspect
import os
import subprocess
import sys
from pathlib import Path

import spinstep

SUBMODULES = ("algebra", "eigensystem", "scattering", "sweep_io", "threed")


def test_every_exported_name_resolves_and_is_listed():
    # the package resolves its names on first use; star imports and dir()
    # still see every one of them
    assert len(spinstep.__all__) == len(set(spinstep.__all__)) == 50
    assert set(SUBMODULES) <= set(spinstep.__all__)
    listed = dir(spinstep)
    for name in spinstep.__all__:
        assert getattr(spinstep, name) is not None, name
        assert name in listed, name
    namespace = {}
    exec("from spinstep import *", namespace)
    assert set(spinstep.__all__) <= set(namespace)
    assert spinstep.Spin is spinstep.eigensystem.Spin is spinstep.scattering.Spin


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


def test_point_names_and_cli_resolve_without_numpy():
    # in a fresh interpreter: the lazy search stops at the numpy-free
    # modules, `from spinstep import cli` does not search at all, and the
    # oracle route solves both branches without numpy
    code = (
        "import sys, spinstep; spinstep.StepProblem; spinstep.run_sweep; "
        "from spinstep import cli; "
        "from spinstep import StepProblem, solve_amplitudes_linear, coefficients, currents\n"
        "for energy in (200.0, 50.0):\n"
        "    problem = StepProblem(energy, 100.0)\n"
        "    amps = solve_amplitudes_linear(problem)\n"
        "    coefficients(problem, amps), currents(problem, amps)\n"
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
        "import sys, spinstep, spinstep.algebra, spinstep.threed, spinstep.eigensystem\n"
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
    assert "mass" not in inspect.signature(spinstep.verify_dispersion).parameters
    assert not hasattr(spinstep.AlgebraReport, "to_json")


def test_readme_quick_start_runs(capsys):
    # the python block under "Library quick start" runs and prints a unit sum
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(code, {})
    assert abs(float(capsys.readouterr().out) - 1.0) <= 1e-12
