"""Spin-resolved scattering of an electron off a 1D potential step.

The step V(z) = 0 for z < 0, V0 for z > 0 is solved with 4-component
plane-wave modes for an incident spin-up (default) or spin-down electron, in
both energy regimes:

* propagating (E > V0): oscillating transmitted wave with momentum
  p2 = sqrt(2*(E - V0)*m); spin-resolved transmission and reflection
  probabilities T1, T2, R1, R2 summing to 1, whose spin sums reproduce the
  textbook spinless coefficients and are independent of the mass.
* evanescent (E < V0): transmitted amplitude decays as exp(-p2'*z) with
  p2' = sqrt(2*m*(V0 - E)), carries exactly zero probability current, and the
  reflection probabilities reduce to R1' = (E-m)^2/(E+m)^2 and
  R2' = 4*E*m/(E+m)^2, independent of the barrier height.

Amplitudes are produced by two independent routes that cross-check each
other: an LU solve (LAPACK, via numpy) of the wavefunction continuity
condition at z = 0, the primary path, and closed-form ratios (which suffer
cancellation as V0/E -> 0).  Below the step the solve spans the decaying
modes with a pole-free basis, so it stays well conditioned through the mass
pole V0 - E = m, and every solution is judged by its relative backward
error.  Probability currents are evaluated both as bilinears
u^dagger (eta + eta^dagger) u and against their closed forms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import SQRT2, EtaRepresentation, eta, eta_dagger
from .eigensystem import (
    ELECTRON_MASS_EV,
    PlaneWaveState,
    Spin,
    analytic_eigenstate,
)

__all__ = [
    "THRESHOLD_EPS",
    "SMALL_V0_FLOOR",
    "MASS_POLE_EPS",
    "CONTINUITY_TOL",
    "COEFFICIENT_SUM_TOL",
    "CLAMP_EPS",
    "Branch",
    "ThresholdDegeneracyError",
    "MassPoleError",
    "CancellationRiskWarning",
    "StepProblem",
    "EvanescentState",
    "RegionWaves",
    "AmplitudeSet",
    "ScatteringCoefficients",
    "CurrentDensities",
    "current_kernel",
    "probability_current",
    "region_wavefunctions",
    "solve_amplitudes_linear",
    "closed_form_amplitudes",
    "coefficients",
    "qm_reference",
    "currents",
    "boundary_values",
    "continuity_residual_1d",
]

# Inputs with |E - V0| <= THRESHOLD_EPS * V0 are rejected: the transmitted
# momentum vanishes and both regimes' formulas are singular there.
THRESHOLD_EPS = 1e-9

# Below V0/E = SMALL_V0_FLOOR the closed-form transmitted ratio is a 0/0 form
# losing about half the mantissa; the linear path stays accurate.
SMALL_V0_FLOOR = 1e-6

# Evanescent inputs with |V0 - E - m| <= MASS_POLE_EPS * m are rejected: the
# transmitted-spinor normalization 1/(V0 - E - m) has a pole there.
MASS_POLE_EPS = 1e-12

# Bound on the relative backward error |Mx - b| / (|M| |x| + |b|), infinity
# norms, of the z = 0 continuity solve M x = b.
CONTINUITY_TOL = 1e-11

COEFFICIENT_SUM_TOL = 1e-12
CLAMP_EPS = 1e-12


class Branch(Enum):
    PROPAGATING = "propagating"  # E > V0
    EVANESCENT = "evanescent"  # E < V0


class ThresholdDegeneracyError(ValueError):
    """E is too close to V0: the transmitted momentum degenerates to zero."""


class MassPoleError(ValueError):
    """Evanescent configuration sits on the transmitted-spinor pole V0 - E = m."""


class CancellationRiskWarning(UserWarning):
    """Closed-form ratios are unreliable here; prefer the linear solve."""


@dataclass(frozen=True)
class StepProblem:
    """Physical configuration of one step-scattering computation."""

    energy: float
    v0: float
    mass: float = ELECTRON_MASS_EV
    incident_spin: Spin = Spin.UP

    def __post_init__(self):
        for name in ("energy", "v0", "mass"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if abs(self.energy - self.v0) <= THRESHOLD_EPS * self.v0:
            raise ThresholdDegeneracyError(
                f"E = {self.energy} is within {THRESHOLD_EPS:g}*V0 of the step "
                f"height V0 = {self.v0}; the transmitted momentum degenerates"
            )

    @property
    def branch(self) -> Branch:
        return Branch.PROPAGATING if self.energy > self.v0 else Branch.EVANESCENT

    @property
    def incident_momentum(self) -> float:
        return float(np.sqrt(2.0 * self.energy * self.mass))

    @property
    def transmitted_momentum(self) -> float:
        """Real momentum p2 (propagating) or decay constant p2' (evanescent)."""
        return float(np.sqrt(2.0 * abs(self.energy - self.v0) * self.mass))


@dataclass(frozen=True, eq=False)
class EvanescentState:
    """A decaying region-II mode exp(-decay_constant * z), z > 0.

    Not a PlaneWaveState: its momentum is imaginary and its spinor is
    neither on-shell nor normalized to 2.
    """

    spinor: np.ndarray
    decay_constant: float
    spin: Spin

    def __post_init__(self):
        u = np.array(self.spinor, dtype=complex)
        u.setflags(write=False)
        object.__setattr__(self, "spinor", u)
        if u.shape != (4,):
            raise ValueError("spinor must be a 4-vector")
        if not (self.decay_constant > 0 and np.isfinite(self.decay_constant)):
            raise ValueError("decay_constant must be positive and finite")


@dataclass(frozen=True, eq=False)
class RegionWaves:
    """Boundary-mode basis: incident, two reflected, two transmitted."""

    incident: PlaneWaveState
    reflected: tuple[PlaneWaveState, PlaneWaveState]
    transmitted: tuple


def _evanescent_spinor(problem: StepProblem, spin: Spin) -> np.ndarray:
    gap = problem.v0 - problem.energy  # > 0 in this branch
    rho = 1.0 / (gap - problem.mass)
    p2p = problem.transmitted_momentum
    if spin is Spin.UP:
        return np.array(
            [1, 0, 1j * rho * (gap + problem.mass), SQRT2 * 1j * rho * p2p],
            dtype=complex,
        )
    return np.array(
        [0, 1, -SQRT2 * 1j * rho * p2p, -1j * rho * (gap + problem.mass)],
        dtype=complex,
    )


def _check_mass_pole(problem: StepProblem):
    if abs(problem.v0 - problem.energy - problem.mass) <= MASS_POLE_EPS * problem.mass:
        raise MassPoleError(
            f"V0 - E = {problem.v0 - problem.energy} sits on the transmitted-"
            f"spinor pole at the mass m = {problem.mass}"
        )


def region_wavefunctions(problem: StepProblem) -> RegionWaves:
    """Boundary-mode basis for the step problem.

    Region I always holds the incident mode (+z, chosen spin) and both
    reflected modes (-z, spin up and down).  Region II holds the two
    transmitted modes: on-shell plane waves at kinetic energy E - V0 when
    propagating, or decaying EvanescentState modes when E < V0.
    """
    incident_kind = 1 if problem.incident_spin is Spin.UP else 2
    incident = analytic_eigenstate(incident_kind, problem.energy, problem.mass)
    reflected = (
        analytic_eigenstate(3, problem.energy, problem.mass),
        analytic_eigenstate(4, problem.energy, problem.mass),
    )
    if problem.branch is Branch.PROPAGATING:
        transmitted = (
            analytic_eigenstate(1, problem.energy - problem.v0, problem.mass),
            analytic_eigenstate(2, problem.energy - problem.v0, problem.mass),
        )
    else:
        _check_mass_pole(problem)
        p2p = problem.transmitted_momentum
        transmitted = (
            EvanescentState(_evanescent_spinor(problem, Spin.UP), p2p, Spin.UP),
            EvanescentState(_evanescent_spinor(problem, Spin.DOWN), p2p, Spin.DOWN),
        )
    return RegionWaves(incident=incident, reflected=reflected, transmitted=transmitted)


@dataclass(frozen=True)
class AmplitudeSet:
    """Mode amplitudes relative to a unit incident amplitude.

    b and b_prime multiply the spin-up and spin-down reflected modes; c and
    c_prime multiply the spin-up and spin-down region-II modes (transmitted
    plane waves when propagating, decaying modes when evanescent).  For the
    default spin-up incidence, b preserves the spin and b_prime flips it.
    Every propagating solution has equal amplitudes on both sides of the
    step in the spin channel carrying no incident wave (b_prime == c_prime
    for spin-up incidence, b == c for spin-down), which is enforced here.
    """

    branch: Branch
    b: complex
    b_prime: complex
    c: complex
    c_prime: complex
    incident_spin: Spin = Spin.UP

    def __post_init__(self):
        if self.branch is Branch.PROPAGATING:
            if self.incident_spin is Spin.UP:
                mismatch = abs(self.b_prime - self.c_prime)
                relation = "b_prime == c_prime"
            else:
                mismatch = abs(self.b - self.c)
                relation = "b == c"
            if mismatch > 1e-12:
                raise ValueError(
                    f"propagating amplitudes must satisfy {relation}, "
                    f"got difference {mismatch:.3e}"
                )


def _continuity_matrix(problem: StepProblem, waves: RegionWaves):
    """Matrix and right-hand side of the z = 0 continuity system.

    The unknowns are the reflected amplitudes b, b' and the coefficients of
    two region-II columns.  When propagating these are the transmitted
    spinors, whose coefficients are c and c'.  When evanescent, the
    reference spinors of region_wavefunctions diverge at V0 - E = m and turn
    parallel there once rescaled, so the decaying space is spanned instead
    by the pole-free pair (s = sqrt(V0 - E), r = sqrt(m))

        v1 = [s+r, s+r, i(s-r), -i(s-r)],  v2 = [s-r, r-s, i(s+r), i(s+r)],

    which stay at least 60 degrees apart for every V0 - E and m.
    """
    r_up, r_down = (w.spinor for w in waves.reflected)
    if problem.branch is Branch.PROPAGATING:
        v1, v2 = (w.spinor for w in waves.transmitted)
    else:
        s = np.sqrt(problem.v0 - problem.energy)
        r = np.sqrt(problem.mass)
        v1 = np.array([s + r, s + r, 1j * (s - r), -1j * (s - r)])
        v2 = np.array([s - r, r - s, 1j * (s + r), 1j * (s + r)])
    matrix = np.column_stack([r_up, r_down, -v1, -v2])
    rhs = -waves.incident.spinor
    return matrix, rhs


def solve_amplitudes_linear(problem: StepProblem) -> AmplitudeSet:
    """Amplitudes from an LU solve (LAPACK, via numpy) of the continuity
    condition psi_I(0) + psi_I_reflected(0) = psi_II(0).

    This is the primary computation path.  Below the step it solves on the
    pole-free basis of _continuity_matrix, whose conditioning stays flat
    through V0 - E = m.  c and c' are read off the first two components of
    psi_II(0): the reference region-II spinors start [1, 0] and [0, 1], so
    this gives them in the normalization of region_wavefunctions in both
    branches (on the pole-free basis, c = alpha(s+r) + beta(s-r) and
    c' = alpha(s+r) - beta(s-r)).  The solution is rejected if its relative
    backward error exceeds CONTINUITY_TOL, which would signal a solver bug.
    """
    waves = region_wavefunctions(problem)
    matrix, rhs = _continuity_matrix(problem, waves)
    x = np.linalg.solve(matrix, rhs)
    backward_error = float(np.abs(matrix @ x - rhs).max()) / (
        np.linalg.norm(matrix, np.inf) * np.abs(x).max() + np.abs(rhs).max()
    )
    if not backward_error <= CONTINUITY_TOL:
        raise RuntimeError(
            f"continuity backward error {backward_error:.3e} exceeds "
            f"{CONTINUITY_TOL:g} after linear solve"
        )
    c, c_prime = -(matrix[:2, 2:] @ x[2:])
    return AmplitudeSet(
        branch=problem.branch,
        b=complex(x[0]),
        b_prime=complex(x[1]),
        c=complex(c),
        c_prime=complex(c_prime),
        incident_spin=problem.incident_spin,
    )


def closed_form_amplitudes(problem: StepProblem) -> AmplitudeSet:
    """Amplitudes from the closed-form ratios (cross-check path).

    Propagating ratios lose roughly half the mantissa once V0 < 1e-6 * E
    (the transmitted ratio becomes 0/0 as V0 -> 0); a CancellationRiskWarning
    is issued there and the linear path should be preferred.  The ratios are
    written for spin-up incidence; spin-down problems must go through
    solve_amplitudes_linear.
    """
    if problem.incident_spin is not Spin.UP:
        raise ValueError(
            "closed-form ratios are defined for spin-up incidence; "
            "use solve_amplitudes_linear for spin-down problems"
        )
    e, v0, m = problem.energy, problem.v0, problem.mass
    if problem.branch is Branch.PROPAGATING:
        if v0 < SMALL_V0_FLOOR * e:
            warnings.warn(
                f"V0/E = {v0 / e:.3e} is below {SMALL_V0_FLOOR:g}; closed-form "
                "amplitudes suffer cancellation, prefer solve_amplitudes_linear",
                CancellationRiskWarning,
                stacklevel=2,
            )
        root = np.sqrt(e * (e - v0))
        denom = (e + m) * (2 * e + 2 * root - v0)
        b = (-e + m) * v0 / denom
        c = (-2 * e**2 - 2 * m * root + 2 * e * (m + root + v0)) / ((e + m) * v0)
        c_prime = 2j * np.sqrt(e * m) * v0 / denom
        return AmplitudeSet(
            branch=problem.branch,
            b=complex(b),
            b_prime=complex(c_prime),
            c=complex(c),
            c_prime=complex(c_prime),
        )
    _check_mass_pole(problem)
    root = np.sqrt(e * (v0 - e))
    b = (-e + m) * v0 / ((e + m) * (2 * e - v0 + 2j * root))
    b_prime = 2 * np.sqrt(e * m) * v0 / ((e + m) * (-2j * e + 1j * v0 + 2 * root))
    d = (
        2
        * (e**2 + e * (m - v0) + 1j * (m * root + np.sqrt(e**3 * (v0 - e))))
        / ((e + m) * (2 * e - v0 + 2j * root))
    )
    return AmplitudeSet(
        branch=problem.branch,
        b=complex(b),
        b_prime=complex(b_prime),
        c=complex(d),
        c_prime=complex(b_prime),
    )


def _flux_factor(problem: StepProblem) -> float:
    e, v0, m = problem.energy, problem.v0, problem.mass
    return (e + m) * np.sqrt(e - v0) / ((e - v0 + m) * np.sqrt(e))


def _clamp_unit(value: float, name: str) -> float:
    if value < -CLAMP_EPS or value > 1.0 + CLAMP_EPS:
        raise ValueError(f"{name} = {value!r} is outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class ScatteringCoefficients:
    """Spin-resolved probabilities.  Propagating: t1/t2 (transmitted spin
    up/down) and r1/r2 (reflected spin up/down) with t1+t2+r1+r2 = 1.
    Evanescent: r1_prime/r2_prime with r1_prime + r2_prime = 1 and no
    transmission."""

    branch: Branch
    t1: float | None = None
    t2: float | None = None
    r1: float | None = None
    r2: float | None = None
    r1_prime: float | None = None
    r2_prime: float | None = None

    @property
    def total(self) -> float:
        if self.branch is Branch.PROPAGATING:
            return self.t1 + self.t2 + self.r1 + self.r2
        return self.r1_prime + self.r2_prime

    def to_json_dict(self) -> dict:
        if self.branch is Branch.PROPAGATING:
            return {"t1": self.t1, "t2": self.t2, "r1": self.r1, "r2": self.r2}
        return {"r1_prime": self.r1_prime, "r2_prime": self.r2_prime}


def coefficients(problem: StepProblem, amps: AmplitudeSet) -> ScatteringCoefficients:
    """Probabilities from amplitudes.

    Propagating transmission carries the flux factor
    (E+m)*sqrt(E-V0) / ((E-V0+m)*sqrt(E)) relating region-II to region-I
    current per unit amplitude.  The unit sum is asserted before values are
    clamped onto [0, 1] (clamping is presentation hygiene only; a genuine
    violation raises).
    """
    if amps.branch is not problem.branch or amps.incident_spin is not problem.incident_spin:
        raise ValueError("amplitude set was produced for a different problem")
    if problem.branch is Branch.PROPAGATING:
        flux = _flux_factor(problem)
        t1 = flux * abs(amps.c) ** 2
        t2 = flux * abs(amps.c_prime) ** 2
        r1 = abs(amps.b) ** 2
        r2 = abs(amps.b_prime) ** 2
        total = t1 + t2 + r1 + r2
        if abs(total - 1.0) > COEFFICIENT_SUM_TOL:
            raise ValueError(
                f"coefficient sum {total!r} violates unitarity beyond "
                f"{COEFFICIENT_SUM_TOL:g}"
            )
        return ScatteringCoefficients(
            branch=problem.branch,
            t1=_clamp_unit(t1, "t1"),
            t2=_clamp_unit(t2, "t2"),
            r1=_clamp_unit(r1, "r1"),
            r2=_clamp_unit(r2, "r2"),
        )
    r1p = abs(amps.b) ** 2
    r2p = abs(amps.b_prime) ** 2
    total = r1p + r2p
    if abs(total - 1.0) > COEFFICIENT_SUM_TOL:
        raise ValueError(
            f"reflection sum {total!r} violates unitarity beyond "
            f"{COEFFICIENT_SUM_TOL:g}"
        )
    return ScatteringCoefficients(
        branch=problem.branch,
        r1_prime=_clamp_unit(r1p, "r1_prime"),
        r2_prime=_clamp_unit(r2p, "r2_prime"),
    )


def qm_reference(energy: float, v0: float) -> tuple[float, float]:
    """Spinless step-potential coefficients (T, R) for E > V0 > 0.

    T = 4*sqrt(E)*sqrt(E-V0) / (sqrt(E)+sqrt(E-V0))^2 and R = 1 - T; the
    spin-summed coefficients of the 4-component solution reproduce exactly
    these values, independent of the mass.
    """
    if not (energy > v0 > 0):
        raise ValueError(f"requires E > V0 > 0, got E={energy}, V0={v0}")
    se = np.sqrt(energy)
    st = np.sqrt(energy - v0)
    t_qm = 4.0 * se * st / (se + st) ** 2
    r_qm = ((se - st) / (se + st)) ** 2
    return float(t_qm), float(r_qm)


def current_kernel(rep: EtaRepresentation = EtaRepresentation.REP1) -> np.ndarray:
    """Hermitian kernel eta + eta^dagger of the 1D probability current."""
    return eta(rep) + eta_dagger(rep)


def probability_current(spinor: np.ndarray, rep: EtaRepresentation = EtaRepresentation.REP1) -> float:
    """Probability current u^dagger (eta + eta^dagger) u of a mode."""
    u = np.asarray(spinor, dtype=complex)
    return float(np.vdot(u, current_kernel(rep) @ u).real)


@dataclass(frozen=True)
class CurrentDensities:
    """Signed probability currents of the five boundary modes.

    j_inc > 0; reflected currents are <= 0; transmitted currents are >= 0
    when propagating and exactly 0 in the evanescent branch.
    """

    j_inc: float
    j_refl_up: float
    j_refl_down: float
    j_trans_up: float
    j_trans_down: float

    @property
    def conservation_sum(self) -> float:
        """(|J_r_up| + |J_t_up| + |J_r_down| + |J_t_down|) / |J_inc|."""
        return (
            abs(self.j_refl_up)
            + abs(self.j_trans_up)
            + abs(self.j_refl_down)
            + abs(self.j_trans_down)
        ) / abs(self.j_inc)

    def to_json_dict(self) -> dict:
        return {
            "j_inc": self.j_inc,
            "j_refl_up": self.j_refl_up,
            "j_refl_down": self.j_refl_down,
            "j_trans_up": self.j_trans_up,
            "j_trans_down": self.j_trans_down,
        }


# Relative agreement required between bilinear and closed-form currents.
_CURRENT_CHECK_TOL = 1e-12


def currents(problem: StepProblem, amps: AmplitudeSet) -> CurrentDensities:
    """Currents of the five boundary modes, scaled by their amplitudes.

    Each value is computed as the bilinear u^dagger (eta+eta^dagger) u and
    verified against its closed form (4*p1/(E+m) patterns); disagreement
    beyond rounding raises, as it would indicate inconsistent construction.
    """
    if amps.branch is not problem.branch or amps.incident_spin is not problem.incident_spin:
        raise ValueError("amplitude set was produced for a different problem")
    waves = region_wavefunctions(problem)
    e, v0, m = problem.energy, problem.v0, problem.mass
    p1 = problem.incident_momentum

    j_inc = probability_current(waves.incident.spinor)
    j_r_up = abs(amps.b) ** 2 * probability_current(waves.reflected[0].spinor)
    j_r_down = abs(amps.b_prime) ** 2 * probability_current(waves.reflected[1].spinor)
    j_t_up = abs(amps.c) ** 2 * probability_current(waves.transmitted[0].spinor)
    j_t_down = abs(amps.c_prime) ** 2 * probability_current(waves.transmitted[1].spinor)

    expected = {
        "j_inc": 4.0 * p1 / (e + m),
        "j_refl_up": -4.0 * p1 * abs(amps.b) ** 2 / (e + m),
        "j_refl_down": -4.0 * p1 * abs(amps.b_prime) ** 2 / (e + m),
    }
    if problem.branch is Branch.PROPAGATING:
        p2 = problem.transmitted_momentum
        expected["j_trans_up"] = 4.0 * p2 * abs(amps.c) ** 2 / (e + m - v0)
        expected["j_trans_down"] = 4.0 * p2 * abs(amps.c_prime) ** 2 / (e + m - v0)
    else:
        expected["j_trans_up"] = 0.0
        expected["j_trans_down"] = 0.0

    got = {
        "j_inc": j_inc,
        "j_refl_up": j_r_up,
        "j_refl_down": j_r_down,
        "j_trans_up": j_t_up,
        "j_trans_down": j_t_down,
    }
    for name, want in expected.items():
        scale = max(abs(want), abs(got[name]), j_inc)
        if abs(got[name] - want) > _CURRENT_CHECK_TOL * scale:
            raise RuntimeError(
                f"bilinear current {name} = {got[name]!r} disagrees with its "
                f"closed form {want!r}"
            )
    return CurrentDensities(**got)


def boundary_values(
    problem: StepProblem,
    amps: AmplitudeSet,
    waves: RegionWaves | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Wavefunction values at z = 0 on both sides of the step."""
    if waves is None:
        waves = region_wavefunctions(problem)
    left = (
        waves.incident.spinor
        + amps.b * waves.reflected[0].spinor
        + amps.b_prime * waves.reflected[1].spinor
    )
    right = amps.c * waves.transmitted[0].spinor + amps.c_prime * waves.transmitted[1].spinor
    return left, right


def continuity_residual_1d(psi_left: np.ndarray, psi_right: np.ndarray) -> float:
    """Largest component magnitude of the boundary mismatch at z = 0."""
    return float(np.abs(np.asarray(psi_left) - np.asarray(psi_right)).max())
