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
from .scattering import ELECTRON_MASS_EV, Spin

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

NORMALIZATION_TOL = 1e-12

# Below this smallest singular value of the eigenvector matrix the
# decomposition cannot resolve four independent directions.
_DEFECT_SVAL_TOL = 1e-6


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
    energy,
    mass: float,
    rep: EtaRepresentation = EtaRepresentation.REP1,
) -> np.ndarray:
    """The 4x4 momentum-space operator E*eta + m*eta_dagger, or the stack of
    them, shape (N, 4, 4), for an array of N energies.

    Non-Hermitian, but with real spectrum {+p, +p, -p, -p}, p = sqrt(2*E*m).
    energy = 0 is admitted (the operator degenerates to the nilpotent
    m*eta_dagger with all eigenvalues zero).
    """
    energy = np.asarray(energy, dtype=float)
    if not np.all((energy >= 0) & np.isfinite(energy)):
        raise ValueError(f"energy must be >= 0 and finite, got {energy}")
    if mass <= 0 or not np.isfinite(mass):
        raise ValueError(f"mass must be positive and finite, got {mass}")
    return energy[..., None, None] * eta(rep) + mass * eta_dagger(rep)


def _eigen_spinor(kind: int, energy, mass: float, momentum) -> np.ndarray:
    """Closed-form spinor u^(kind), shape (4,), or (4, N) for arrays of N
    energies and momenta."""
    a = 1.0 / (energy + mass)
    e_minus_m = energy - mass
    zero = 0.0 * a  # shaped like the energies
    one = zero + 1.0
    if kind == 1:
        return np.array([one, zero, 1j * a * e_minus_m, -SQRT2 * a * momentum], dtype=complex)
    if kind == 2:
        return np.array([zero, one, SQRT2 * a * momentum, -1j * a * e_minus_m], dtype=complex)
    if kind == 3:
        return np.array([one, zero, 1j * a * e_minus_m, SQRT2 * a * momentum], dtype=complex)
    if kind == 4:
        return np.array([zero, one, -SQRT2 * a * momentum, -1j * a * e_minus_m], dtype=complex)
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


def _projection_residuals(values, vectors, eigenvalues, states, value_tol: float):
    """|v - P v| / |v| for each state v against its eigenvalue lambda, where
    P projects orthogonally onto the span of the numeric eigenvectors whose
    eigenvalues lie within value_tol (relative to the spectral scale) of
    lambda; 1 where none does.

    values (..., 4) and vectors (..., 4, 4), eigenvectors in the columns, as
    np.linalg.eig returns them; eigenvalues (..., K) and states (..., K, 4).
    """
    scale = np.maximum(np.abs(values).max(axis=-1), np.finfo(float).tiny)
    selected = (
        np.abs(values[..., None, :] - eigenvalues[..., None])
        <= value_tol * scale[..., None, None]
    )
    # the selected eigenvectors first: the leading columns of Q then span them
    order = np.argsort(~selected, axis=-1, kind="stable")
    q, _ = np.linalg.qr(np.take_along_axis(vectors[..., None, :, :], order[..., None, :], axis=-1))
    q = q * (np.arange(4) < selected.sum(axis=-1)[..., None])[..., None, :]
    projected = (q @ (q.conj().swapaxes(-1, -2) @ states[..., None]))[..., 0]
    return np.linalg.norm(states - projected, axis=-1) / np.linalg.norm(states, axis=-1)


def eigenspace_projection_residual(
    decomposition: EigenDecomposition,
    eigenvalue: complex,
    vector: np.ndarray,
    value_tol: float = 1e-6,
) -> float:
    """Distance of `vector` from the numeric eigenspace of `eigenvalue`.

    Selects all numeric eigenvalues within value_tol (relative to the
    spectral scale), orthonormalizes their vectors, and returns
    |v - P v| / |v| for the orthogonal projector P onto that span (1 when
    no eigenvalue is selected).
    """
    residuals = _projection_residuals(
        decomposition.values,
        decomposition.vectors,
        np.array([eigenvalue]),
        np.asarray(vector, dtype=complex)[None],
        value_tol,
    )
    return float(residuals[0])


_DISPERSION_TOLS = {
    "eigenvalues_match_sqrt_2Em": 1e-10,
    "eigenvalue_imaginary_part": 1e-10,
    "state_norm_is_2": 1e-12,
    "states_orthogonal_per_direction": 1e-12,
    "eigen_equation_residual": 1e-12,
    "eigenspace_projection": 1e-9,
}


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
    assumed, hence the explicit imaginary-part check.  The whole grid is
    one stacked eigensolve and array expressions.
    """
    if energies is None:
        energies = np.logspace(0.0, 7.0, 100)
    energies = np.asarray(energies, dtype=float)
    ops = momentum_operator(energies, mass, rep)
    p = np.sqrt(2.0 * energies * mass)
    values, vectors = np.linalg.eig(ops)
    column_p = p[:, None]
    worst = dict.fromkeys(_DISPERSION_TOLS, 0.0)
    worst["eigenvalues_match_sqrt_2Em"] = float(
        (np.minimum(np.abs(values - column_p), np.abs(values + column_p)) / column_p).max()
    )
    worst["eigenvalue_imaginary_part"] = float((np.abs(values.imag) / column_p).max())
    if rep is EtaRepresentation.REP1:
        # states[n, k - 1] is u^(k) at energies[n]; lam its eigenvalue
        states = np.stack([_eigen_spinor(k, energies, mass, p) for k in (1, 2, 3, 4)])
        states = states.transpose(2, 0, 1)
        lam = column_p * np.array([1.0, 1.0, -1.0, -1.0])
        norms = np.linalg.norm(states, axis=-1)
        residual = (ops[:, None] @ states[..., None])[..., 0] - lam[..., None] * states
        worst["state_norm_is_2"] = float(np.abs(norms * norms - 2.0).max())
        worst["states_orthogonal_per_direction"] = float(
            np.abs(np.sum(states[:, 0::2].conj() * states[:, 1::2], axis=-1)).max()
        )
        worst["eigen_equation_residual"] = float(
            (np.linalg.norm(residual, axis=-1) / (np.abs(lam) * norms)).max()
        )
        worst["eigenspace_projection"] = float(
            _projection_residuals(values, vectors, lam, states, 1e-6).max()
        )
    checks = tuple(
        AlgebraCheck(name, dev, dev <= _DISPERSION_TOLS[name]) for name, dev in worst.items()
    )
    return AlgebraReport(checks)
