"""spinstep: spin-resolved step-potential scattering from a first-order
4-component wave equation.

The engine is organized around a symmetric nilpotent 4x4 generator pair
(eta, eta^dagger) whose algebra reproduces the free Schrodinger equation on
squaring.  Submodules:

  algebra      matrix constructors, identity verification
  eigensystem  momentum-space operator and its plane-wave eigenstates
  scattering   step-potential amplitudes (factored closed forms over arrays,
               with a continuity-solve oracle), probabilities, currents
  threed       3D operator algebra and continuity-equation identities
  sweep_io     energy-grid sweeps, CSV/JSON/SVG emission
  cli          command-line interface (`spinstep ...` or `python -m spinstep`)
"""

from .algebra import (
    AlgebraCheck,
    AlgebraReport,
    EtaRepresentation,
    anticommutator,
    char_poly_coeffs,
    commutator,
    dagger,
    eta,
    eta_dagger,
    gamma,
    pauli,
    verify_eta_algebra,
    verify_eta_matrix,
)
from .eigensystem import (
    ELECTRON_MASS_EV,
    Direction,
    EigenDecomposition,
    PlaneWaveState,
    Spin,
    analytic_eigenstate,
    eigenspace_projection_residual,
    momentum_operator,
    numeric_eigensystem,
    verify_dispersion,
)
from .scattering import (
    AmplitudeSet,
    Branch,
    CurrentDensities,
    EvanescentState,
    MassPoleError,
    RegionWaves,
    ScatteringCoefficients,
    StepProblem,
    ThresholdDegeneracyError,
    boundary_values,
    closed_form_amplitudes,
    coefficients,
    continuity_residual_1d,
    currents,
    current_kernel,
    probability_current,
    qm_reference,
    region_wavefunctions,
    solve_amplitudes_linear,
)
from .sweep_io import (
    EvanescentRow,
    PropagatingRow,
    Regime,
    Spacing,
    SweepResult,
    SweepSpec,
    emit_csv,
    emit_json,
    emit_svg,
    run_sweep,
)
from .threed import (
    ContinuityObjects,
    ConventionMismatchWarning,
    MuTriple,
    continuity_objects,
    mu_matrices,
    schrodinger_reduction_check,
    shell_determinant,
    squared_operator_check,
    verify_continuity_identities,
)

__version__ = "0.1.0"
