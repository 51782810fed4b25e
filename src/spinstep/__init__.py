"""spinstep: spin-resolved step-potential scattering from a first-order
4-component wave equation.

The engine is organized around a symmetric nilpotent 4x4 generator pair
(eta, eta^dagger) whose algebra reproduces the free Schrodinger equation on
squaring.  Submodules:

  algebra      exact matrix tables and their array constructors, every
               identity suite (generator, dispersion, 3D continuity,
               squared operator) and the 3D shell-determinant probes
  eigensystem  momentum-space operator and its plane-wave eigenstates as arrays
  scattering   step-potential amplitudes (factored closed forms on floats
               or arrays, with a continuity-solve oracle), coefficients as
               one row type per branch, currents
  sweep_io     energy-grid sweeps of those rows, CSV/JSON/SVG emission
  cli          command-line interface (`spinstep ...` or `python -m spinstep`)

The package exports the submodules and the names each library module lists
in its own __all__, which names what the module defines.  Every name
resolves on first use (PEP 562), searching scattering and sweep_io first,
so importing the package, or cli, or a point command of the CLI, loads
neither the identity suites nor numpy, which no module imports at import
time.  __all__, dir() and a name that no module lists import every module.
"""

from importlib import import_module as _import_module

# the point route's modules first
_MODULES = ("scattering", "sweep_io", "algebra", "eigensystem")

__version__ = "0.1.0"


def __getattr__(name: str):
    # cli too: `from spinstep import cli` calls hasattr first, and the search imports
    # every module
    if name in (*_MODULES, "cli"):
        return _import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = [*_MODULES, *(n for module in _MODULES for n in __getattr__(module).__all__)]
    else:
        # map imports lazily: the search stops at the module that lists name
        owner = next((m for m in map(__getattr__, _MODULES) if name in m.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
