"""spinstep: spin-resolved step-potential scattering from a first-order
4-component wave equation.

The engine is organized around a symmetric nilpotent 4x4 generator pair
(eta, eta^dagger) whose algebra reproduces the free Schrodinger equation on
squaring.  Submodules:

  algebra      matrix constructors, identity verification
  eigensystem  momentum-space operator and its plane-wave eigenstates
  scattering   step-potential amplitudes (factored closed forms on floats
               or arrays, with a continuity-solve oracle), coefficients as
               one row type per branch, currents
  threed       3D operator algebra and continuity-equation identities
  sweep_io     energy-grid sweeps of those rows, CSV/JSON/SVG emission
  cli          command-line interface (`spinstep ...` or `python -m spinstep`)
"""

from importlib import import_module as _import_module

# The public names of each submodule.  They resolve on first use (PEP 562),
# so importing the package, or a point command of the CLI, loads neither
# numpy nor the modules built on it.
_EXPORTS = {
    "algebra": (
        "AlgebraCheck", "AlgebraReport", "EtaRepresentation", "anticommutator",
        "commutator", "dagger", "eta", "eta_dagger", "gamma", "pauli",
        "verify_eta_algebra", "verify_eta_matrix",
    ),
    "eigensystem": (
        "analytic_eigenstate", "momentum_operator", "verify_dispersion",
    ),
    "scattering": (
        "ELECTRON_MASS_EV", "Spin", "AmplitudeSet", "Branch", "CurrentDensities",
        "EvanescentRow", "MassPoleError", "PropagatingRow", "StepProblem",
        "ThresholdDegeneracyError", "closed_form_amplitudes", "coefficients",
        "continuity_residual", "currents", "probability_current",
        "qm_reference", "solve_amplitudes_linear",
    ),
    "sweep_io": (
        "Regime", "Spacing", "SweepResult", "SweepSpec", "emit_csv", "emit_json",
        "emit_svg", "run_sweep",
    ),
    "threed": (
        "ContinuityObjects", "MuTriple",
        "continuity_objects", "mu_matrices", "schrodinger_reduction_check",
        "shell_determinant", "squared_operator_check", "verify_continuity_identities",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_ORIGIN]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    own = {"__all__", "__getattr__", "__dir__", "_EXPORTS", "_ORIGIN", "_import_module"}
    return sorted((set(globals()) - own) | set(__all__))
