"""Momentum-space operator and its plane-wave eigensystem.

The free 1D equation turns, for plane waves, into the eigenvalue problem

    (E*eta + m*eta_dagger) u = p u,

whose operator is non-Hermitian yet carries the real eigenvalues
+-sqrt(2*E*m), each twice: one spin-up and one spin-down state per
propagation direction.  This module builds the operator, constructs the four
closed-form eigenstates, and provides an independent numeric eigensolver used
as an oracle against them.

Units are electron-volts throughout with hbar = c = 1, so momenta are also
measured in eV and the dispersion reads E = p^2 / (2*m).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .algebra import (
    SQRT2,
    AlgebraCheck,
    AlgebraReport,
    EtaRepresentation,
    eta,
    eta_dagger,
    max_abs,
)

__all__ = [
    "ELECTRON_MASS_EV",
    "NORMALIZATION_TOL",
    "Spin",
    "Direction",
    "PlaneWaveState",
    "EigenDecomposition",
    "momentum_operator",
    "analytic_eigenstate",
    "numeric_eigensystem",
    "eigenspace_projection_residual",
    "verify_dispersion",
]

ELECTRON_MASS_EV = 510998.95

NORMALIZATION_TOL = 1e-12

# Below this smallest singular value of the eigenvector matrix the
# decomposition cannot resolve four independent directions.
_DEFECT_SVAL_TOL = 1e-6


class Spin(Enum):
    UP = "up"
    DOWN = "down"


class Direction(Enum):
    POSITIVE_Z = "+z"
    NEGATIVE_Z = "-z"


@dataclass(frozen=True, eq=False)
class PlaneWaveState:
    """One on-shell plane-wave mode: spinor amplitude plus quantum numbers.

    Checked on construction: a finite 4-component spinor with u^dagger u = 2
    to NORMALIZATION_TOL.  The on-shell condition momentum^2 = 2*energy*mass
    is not checked here; on_shell_deviation measures it.
    """

    spinor: np.ndarray
    momentum: float
    energy: float
    spin: Spin
    direction: Direction

    def __post_init__(self):
        u = np.array(self.spinor, dtype=complex)
        u.setflags(write=False)
        object.__setattr__(self, "spinor", u)
        if u.shape != (4,) or not np.all(np.isfinite(u.view(float))):
            raise ValueError("spinor must be a finite 4-vector")
        norm = float(np.vdot(u, u).real)
        if abs(norm - 2.0) > NORMALIZATION_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 2 beyond tolerance")

    def on_shell_deviation(self, mass: float) -> float:
        """Relative deviation of momentum^2 from 2*energy*mass."""
        shell = 2.0 * self.energy * mass
        return abs(self.momentum**2 - shell) / shell

    def norm_squared(self) -> float:
        return float(np.vdot(self.spinor, self.spinor).real)

    def to_json_dict(self) -> dict:
        return {
            "components": [[z.real, z.imag] for z in self.spinor],
            "momentum": self.momentum,
            "energy": self.energy,
            "spin": self.spin.value,
            "direction": self.direction.value,
        }


def momentum_operator(
    energy: float,
    mass: float,
    rep: EtaRepresentation = EtaRepresentation.REP1,
) -> np.ndarray:
    """The 4x4 momentum-space operator E*eta + m*eta_dagger.

    Non-Hermitian, but with real spectrum {+p, +p, -p, -p}, p = sqrt(2*E*m).
    energy = 0 is admitted (the operator degenerates to the nilpotent
    m*eta_dagger with all eigenvalues zero).
    """
    if energy < 0 or not np.isfinite(energy):
        raise ValueError(f"energy must be >= 0 and finite, got {energy}")
    if mass <= 0 or not np.isfinite(mass):
        raise ValueError(f"mass must be positive and finite, got {mass}")
    return energy * eta(rep) + mass * eta_dagger(rep)


def _eigen_spinor(kind: int, energy: float, mass: float, momentum: float) -> np.ndarray:
    a = 1.0 / (energy + mass)
    e_minus_m = energy - mass
    if kind == 1:
        return np.array([1, 0, 1j * a * e_minus_m, -SQRT2 * a * momentum], dtype=complex)
    if kind == 2:
        return np.array([0, 1, SQRT2 * a * momentum, -1j * a * e_minus_m], dtype=complex)
    if kind == 3:
        return np.array([1, 0, 1j * a * e_minus_m, SQRT2 * a * momentum], dtype=complex)
    if kind == 4:
        return np.array([0, 1, -SQRT2 * a * momentum, -1j * a * e_minus_m], dtype=complex)
    raise ValueError(f"eigenstate kind must be 1..4, got {kind}")


_KIND_LABELS = {
    1: (Spin.UP, Direction.POSITIVE_Z),
    2: (Spin.DOWN, Direction.POSITIVE_Z),
    3: (Spin.UP, Direction.NEGATIVE_Z),
    4: (Spin.DOWN, Direction.NEGATIVE_Z),
}


def analytic_eigenstate(kind: int, energy: float, mass: float) -> PlaneWaveState:
    """Closed-form eigenstate u^(kind) of the momentum operator.

    Kinds 1 and 2 move along +z with eigenvalue +sqrt(2*E*m) (spin up and
    down); kinds 3 and 4 move along -z with the opposite eigenvalue.  The
    pairs are related by momentum reversal: u^(3)(p) = u^(1)(-p) and
    u^(4)(p) = u^(2)(-p).  Every state satisfies u^dagger u = 2.
    """
    if energy <= 0 or mass <= 0:
        raise ValueError("energy and mass must be positive")
    spin, direction = _KIND_LABELS[kind] if kind in _KIND_LABELS else (None, None)
    if spin is None:
        raise ValueError(f"eigenstate kind must be 1..4, got {kind}")
    p = float(np.sqrt(2.0 * energy * mass))
    spinor = _eigen_spinor(kind, energy, mass, p)
    signed_p = p if direction is Direction.POSITIVE_Z else -p
    return PlaneWaveState(
        spinor=spinor, momentum=signed_p, energy=energy, spin=spin, direction=direction
    )


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Numeric eigenpairs of a 4x4 matrix with quality diagnostics.

    residuals[k] = |M v_k - lambda_k v_k| / (|M| * |v_k|).  defective is set
    when the eigenvector matrix cannot resolve four independent directions,
    which happens for nilpotent inputs; eigenvalues remain usable.
    """

    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    defective: bool


def numeric_eigensystem(matrix: np.ndarray) -> EigenDecomposition:
    """Eigen-decompose a 4x4 complex matrix, independent of any closed form.

    Uses the QR-iteration eigensolver on the (balanced) small matrix and
    reports per-pair residuals; callers compare eigenspaces rather than raw
    eigenvectors because degenerate eigenvalues leave the basis free.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    values, vectors = np.linalg.eig(m)
    scale = max(max_abs(m), np.finfo(float).tiny)
    residuals = np.array(
        [
            float(np.linalg.norm(m @ vectors[:, k] - values[k] * vectors[:, k]))
            / (scale * float(np.linalg.norm(vectors[:, k])))
            for k in range(4)
        ]
    )
    svals = np.linalg.svd(vectors, compute_uv=False)
    defective = bool(svals.min() < _DEFECT_SVAL_TOL * svals.max())
    return EigenDecomposition(
        values=values, vectors=vectors, residuals=residuals, defective=defective
    )


def eigenspace_projection_residual(
    decomposition: EigenDecomposition,
    eigenvalue: complex,
    vector: np.ndarray,
    value_tol: float = 1e-6,
) -> float:
    """Distance of `vector` from the numeric eigenspace of `eigenvalue`.

    Selects all numeric eigenvalues within value_tol (relative to the
    spectral scale), orthonormalizes their vectors, and returns
    |v - P v| / |v| for the orthogonal projector P onto that span.
    """
    v = np.asarray(vector, dtype=complex)
    scale = max(float(np.abs(decomposition.values).max()), np.finfo(float).tiny)
    cols = [
        decomposition.vectors[:, k]
        for k in range(4)
        if abs(decomposition.values[k] - eigenvalue) <= value_tol * scale
    ]
    if not cols:
        return 1.0
    q, _ = np.linalg.qr(np.column_stack(cols))
    projected = q @ (q.conj().T @ v)
    return float(np.linalg.norm(v - projected) / np.linalg.norm(v))


def verify_dispersion(
    rep: EtaRepresentation = EtaRepresentation.REP1,
    energies: np.ndarray | None = None,
    mass: float = ELECTRON_MASS_EV,
) -> AlgebraReport:
    """Grid verification of the plane-wave sector.

    Checks, over a log grid of energies (default 100 points in
    [1 eV, 10 MeV]): numeric eigenvalues match +-sqrt(2*E*m) with negligible
    imaginary parts, the closed-form states are normalized to 2 and mutually
    orthogonal per direction, solve the eigenproblem, and lie in the numeric
    eigenspaces.  The operator's reality of spectrum is measured, not
    assumed, hence the explicit imaginary-part check.
    """
    if energies is None:
        energies = np.logspace(0.0, 7.0, 100)
    worst = {
        "eigenvalues_match_sqrt_2Em": 0.0,
        "eigenvalue_imaginary_part": 0.0,
        "state_norm_is_2": 0.0,
        "states_orthogonal_per_direction": 0.0,
        "eigen_equation_residual": 0.0,
        "eigenspace_projection": 0.0,
    }
    for energy in energies:
        op = momentum_operator(float(energy), mass, rep)
        p = float(np.sqrt(2.0 * energy * mass))
        decomp = numeric_eigensystem(op)
        for lam in decomp.values:
            rel = min(abs(lam - p), abs(lam + p)) / p
            worst["eigenvalues_match_sqrt_2Em"] = max(
                worst["eigenvalues_match_sqrt_2Em"], float(rel)
            )
            worst["eigenvalue_imaginary_part"] = max(
                worst["eigenvalue_imaginary_part"], float(abs(lam.imag) / p)
            )
        if rep is not EtaRepresentation.REP1:
            continue
        states = {k: analytic_eigenstate(k, float(energy), mass) for k in (1, 2, 3, 4)}
        for k, state in states.items():
            u = state.spinor
            worst["state_norm_is_2"] = max(
                worst["state_norm_is_2"], abs(state.norm_squared() - 2.0)
            )
            lam = p if k in (1, 2) else -p
            resid = float(np.linalg.norm(op @ u - lam * u) / (abs(lam) * np.linalg.norm(u)))
            worst["eigen_equation_residual"] = max(
                worst["eigen_equation_residual"], resid
            )
            worst["eigenspace_projection"] = max(
                worst["eigenspace_projection"],
                eigenspace_projection_residual(decomp, lam, u),
            )
        for a, b in ((1, 2), (3, 4)):
            ortho = abs(np.vdot(states[a].spinor, states[b].spinor))
            worst["states_orthogonal_per_direction"] = max(
                worst["states_orthogonal_per_direction"], float(ortho)
            )
    tols = {
        "eigenvalues_match_sqrt_2Em": 1e-10,
        "eigenvalue_imaginary_part": 1e-10,
        "state_norm_is_2": 1e-12,
        "states_orthogonal_per_direction": 1e-12,
        "eigen_equation_residual": 1e-12,
        "eigenspace_projection": 1e-9,
    }
    checks = tuple(
        AlgebraCheck(name, dev, dev <= tols[name]) for name, dev in worst.items()
    )
    return AlgebraReport(checks)
