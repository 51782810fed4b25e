import inspect
from pathlib import Path

import spinstep

SUBMODULES = ("algebra", "eigensystem", "scattering", "sweep_io", "threed")


def test_every_exported_name_resolves_and_is_listed():
    # the package resolves its names on first use; star imports and dir()
    # still see every one of them
    assert len(spinstep.__all__) == len(set(spinstep.__all__)) == 53
    assert set(SUBMODULES) <= set(spinstep.__all__)
    listed = dir(spinstep)
    for name in spinstep.__all__:
        assert getattr(spinstep, name) is not None, name
        assert name in listed, name
    namespace = {}
    exec("from spinstep import *", namespace)
    assert set(spinstep.__all__) <= set(namespace)
    assert spinstep.Spin is spinstep.eigensystem.Spin is spinstep.scattering.Spin


def test_verification_takes_no_tolerance_or_single_value_options():
    # each check's bound is fixed where the check is defined, and no public
    # function carries an option that its callers never vary
    for name in spinstep.__all__:
        value = getattr(spinstep, name)
        if callable(value) and not isinstance(value, type):
            params = set(inspect.signature(value).parameters)
            assert not params & {"tol", "check_gamma_identities", "indent"}, name
    for name in ("shell_determinant", "schrodinger_reduction_check", "probability_current"):
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
