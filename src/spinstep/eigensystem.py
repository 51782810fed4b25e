"""Momentum-space operator and its plane-wave eigensystem.

The free 1D equation turns, for plane waves, into the eigenvalue problem

    (E*eta + m*eta_dagger) u = p u,

whose operator is non-Hermitian yet carries the real eigenvalues
+-sqrt(2*E*m), each twice: one spin-up and one spin-down state per
propagation direction.  This module builds the operator and the four
closed-form eigenstates, and verify_dispersion checks those states against
one stacked LAPACK eigensolve over an energy grid.

Units are electron-volts throughout with hbar = c = 1, so momenta are also
measured in eV and the dispersion reads E = p^2 / (2*m).
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    SQRT2,
    AlgebraReport,
    EtaRepresentation,
    _check,
    eta,
    eta_dagger,
)
from .scattering import ELECTRON_MASS_EV, Spin

__all__ = [
    "ELECTRON_MASS_EV",
    "Spin",
    "momentum_operator",
    "analytic_eigenstate",
    "verify_dispersion",
]


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


def _eigen_spinor(kind: int, energy, mass: float, momentum) -> tuple:
    """Closed-form spinor u^(kind) as a tuple of its four components: Python
    scalars for a point, arrays of N for arrays of N energies and momenta."""
    a = 1.0 / (energy + mass)
    e_minus_m = energy - mass
    zero = 0.0 * a  # shaped like the energies
    one = zero + 1.0
    if kind == 1:
        return one, zero, 1j * a * e_minus_m, -SQRT2 * a * momentum
    if kind == 2:
        return zero, one, SQRT2 * a * momentum, -1j * a * e_minus_m
    if kind == 3:
        return one, zero, 1j * a * e_minus_m, SQRT2 * a * momentum
    if kind == 4:
        return zero, one, -SQRT2 * a * momentum, -1j * a * e_minus_m
    raise ValueError(f"eigenstate kind must be 1..4, got {kind}")


def analytic_eigenstate(kind: int, energy: float, mass: float) -> np.ndarray:
    """Closed-form eigenstate u^(kind) of the momentum operator, shape (4,).

    Kinds 1 and 2 are spin up and down moving along +z, with eigenvalue
    +sqrt(2*E*m); kinds 3 and 4 are the same spins moving along -z, with
    the opposite eigenvalue.  The pairs are related by momentum reversal:
    u^(3)(p) = u^(1)(-p) and u^(4)(p) = u^(2)(-p).  Every state satisfies
    u^dagger u = 2.  Raises ValueError, and warns of nothing, for a kind
    outside 1..4, an energy or mass that is not positive, or one whose
    spinor is not finite in double precision.
    """
    energy, mass = float(energy), float(mass)  # numpy scalars warn on overflow
    if not (energy > 0 and mass > 0):
        raise ValueError(f"energy and mass must be positive, got {energy}, {mass}")
    momentum = math.sqrt(2.0 * energy * mass)
    u = np.array(_eigen_spinor(kind, energy, mass, momentum), dtype=complex)
    if not np.isfinite(u).all():
        raise ValueError(f"eigenstate not finite at energy {energy}, mass {mass}")
    return u


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
) -> AlgebraReport:
    """Grid verification of the plane-wave sector, at the electron mass.

    Checks, over a log grid of energies (default 100 points in
    [1 eV, 10 MeV]), each within its bound in _DISPERSION_TOLS: numeric
    eigenvalues match +-sqrt(2*E*m) with negligible imaginary parts, the
    closed-form states are normalized to 2 and mutually orthogonal per
    direction, solve the eigenproblem, and lie in the numeric eigenspaces.
    The operator's reality of spectrum is measured, not assumed, hence the
    explicit imaginary-part check.  The whole grid is one stacked eigensolve
    and array expressions.  Raises ValueError unless every energy is
    positive and finite.
    """
    if energies is None:
        energies = np.logspace(0.0, 7.0, 100)
    energies = np.asarray(energies, dtype=float)
    if not np.all((energies > 0) & np.isfinite(energies)):
        raise ValueError(f"energies must be positive and finite, got {energies}")
    mass = ELECTRON_MASS_EV
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
        states = np.array(
            [_eigen_spinor(k, energies, mass, p) for k in (1, 2, 3, 4)], dtype=complex
        )
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
    checks = (_check(name, dev, _DISPERSION_TOLS[name]) for name, dev in worst.items())
    return AlgebraReport(tuple(checks))
