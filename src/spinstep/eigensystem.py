"""Momentum-space operator and its plane-wave eigensystem.

The free 1D equation turns, for plane waves, into the eigenvalue problem

    (E*eta + m*eta_dagger) u = p u,

whose operator is non-Hermitian yet carries the real eigenvalues
+-sqrt(2*E*m), each twice: one spin-up and one spin-down state per
propagation direction.  This module builds the operator and the four
closed-form eigenstates as arrays, from the formulas that
scattering._eigen_spinors writes once for them and for the continuity
basis.  verify_dispersion proves that spectrum on algebra's exact tables and
checks the closed-form states over an energy grid, in Python numbers:
numpy is imported only by the functions that return arrays.

Units are electron-volts throughout with hbar = c = 1, so momenta are also
measured in eV and the dispersion reads E = p^2 / (2*m).
"""

from __future__ import annotations

import math
import sys
from operator import mul
from typing import TYPE_CHECKING

from .algebra import (
    SQRT2,
    AlgebraReport,
    EtaRepresentation,
    _SQRT2_ETA,
    _adj,
    _check,
    _normal,
    _scaled,
    _square_deviation,
    _worst,
    eta,
    eta_dagger,
)
# Spin is not used here: perfbench's point_queries workload reads eigensystem.Spin
from .scattering import ELECTRON_MASS_EV, PrecisionError, Spin, _eigen_spinors, _positive_finite

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "momentum_operator",
    "analytic_eigenstate",
    "verify_dispersion",
]


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
    if energy != 0:
        _positive_finite("energy", energy)
    mass = float(_positive_finite("mass", mass))
    return float(energy) * eta(rep) + mass * eta_dagger(rep)


def analytic_eigenstate(kind: int, energy: float, mass: float) -> np.ndarray:
    """Closed-form eigenstate u^(kind) of the momentum operator, shape (4,).

    Kinds 1 and 2 are spin up and down moving along +z, with eigenvalue
    +sqrt(2*E*m); kinds 3 and 4 are the same spins moving along -z, with
    the opposite eigenvalue.  The pairs are related by momentum reversal:
    u^(3)(p) = u^(1)(-p) and u^(4)(p) = u^(2)(-p).  Every state satisfies
    u^dagger u = 2.  Raises ValueError, and warns of nothing, for a kind
    outside 1..4 or an energy or mass that is not positive and finite, and
    PrecisionError for finite ones whose spinor is not finite in double
    precision.
    """
    import numpy as np

    # as floats: numpy scalars warn on overflow
    energy = float(_positive_finite("energy", energy))
    mass = float(_positive_finite("mass", mass))
    momentum = math.sqrt(2.0 * energy * mass)
    if kind not in (1, 2, 3, 4):
        raise ValueError(f"eigenstate kind must be 1..4, got {kind}")
    u = np.array(_eigen_spinors(energy, mass, momentum)[int(kind) - 1], dtype=complex)
    if not np.isfinite(u).all():
        raise PrecisionError("the eigenstate is not finite", E=energy, m=mass)
    return u


_STATE_TOL = 1e-12


def verify_dispersion(
    rep: EtaRepresentation = EtaRepresentation.REP1,
    energies=None,
) -> AlgebraReport:
    """The plane-wave sector at the electron mass over a log grid of energies
    (default 100 points in [1 eV, 10 MeV]), each (E, m) scaled by a power of
    two, which leaves every check as it is.

    (E*eta + m*eta_dagger)^2 = 2*E*m*I is checked exactly, on the square
    expanded over algebra's tables.  With the zero trace verify_eta_algebra
    checks, it proves the spectrum +-sqrt(2*E*m), each value twice, on a
    diagonalizable operator.  For REP1, the basis of the closed-form states,
    each state is checked, within 1e-12, for norm 2, orthogonality per
    direction, and the residual |A u - lambda u| / (|lambda| |u|), 2 for a
    state of the opposite eigenvalue; REP2 runs none of these three
    checks, so its report omits them.  That residual rounds to about
    eps*|A|/p, |A| = 2*hypot(E, m) the Frobenius norm, which exceeds its
    bound unless E/m lies within about [1e-7, 1e7] ([0.05 eV, 5e12 eV] at
    the electron mass).  Raises ValueError if energies is empty or an energy
    is not positive and finite, PrecisionError if a scaled 2*E*m underflows
    or, for REP1, the residual's rounding exceeds its bound.
    """
    if energies is None:
        energies = [10.0 ** (7.0 * k / 99) for k in range(100)]
    energies = [float(_positive_finite("energy", energy)) for energy in energies]
    if not energies:
        raise ValueError("energies is empty: a report of no energy would check nothing")
    n = _SQRT2_ETA[rep]
    # each row of sqrt(2)*eta beside the same row of sqrt(2)*eta_dagger, entry by entry
    rows = [tuple(zip(*pair)) for pair in zip(n, _adj(n))]
    pairs, norms, overlaps, residuals = [], [], [], []
    for energy in energies:
        e, m = _scaled(energy, ELECTRON_MASS_EV)
        p = math.sqrt(_normal(2.0 * e * m, "2*E*m", E=energy, m=ELECTRON_MASS_EV))
        pairs.append((e, m))
        if rep is not EtaRepresentation.REP1:
            continue
        if sys.float_info.epsilon * 2.0 * math.hypot(e, m) / p > _STATE_TOL:
            raise PrecisionError(
                "the eigen-equation residual rounds above its bound", E=energy, m=ELECTRON_MASS_EV
            )
        a, b = e / SQRT2, m / SQRT2
        op = [[a * x + b * y for x, y in row] for row in rows]
        states = _eigen_spinors(e, m, p)
        for u, lam in zip(states, (p, p, -p, -p)):
            u_norm = math.hypot(*map(abs, u))
            residual = [sum(map(mul, row, u)) - lam * x for row, x in zip(op, u)]
            norms.append(abs(u_norm * u_norm - 2.0))
            residuals.append(math.hypot(*map(abs, residual)) / (p * u_norm))
        for up, down in (states[:2], states[2:]):
            overlaps.append(abs(sum(x.conjugate() * y for x, y in zip(up, down))))
    square = (_check("operator_square_is_2Em_identity", _square_deviation(n, pairs)),)
    if rep is not EtaRepresentation.REP1:
        return AlgebraReport(square)
    return AlgebraReport(square + (
        _check("state_norm_is_2", _worst(norms), _STATE_TOL),
        _check("states_orthogonal_per_direction", _worst(overlaps), _STATE_TOL),
        _check("eigen_equation_residual", _worst(residuals), _STATE_TOL),
    ))
