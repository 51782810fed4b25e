"""Momentum-space operator and its plane-wave eigenstates, as arrays.

The free 1D equation turns, for plane waves, into the eigenvalue problem

    (E*eta + m*eta_dagger) u = p u,

whose operator is non-Hermitian yet carries the real eigenvalues
+-sqrt(2*E*m), each twice: one spin-up and one spin-down state per
propagation direction.  This module builds the operator and the four
closed-form eigenstates as numpy arrays, from the formulas that
scattering._eigen_spinors writes once for them and for the continuity
basis; algebra.verify_dispersion proves that spectrum on the exact tables.
numpy is imported by the functions, not by the module.

Units are electron-volts throughout with hbar = c = 1, so momenta are also
measured in eV and the dispersion reads E = p^2 / (2*m).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .algebra import EtaRepresentation, eta, eta_dagger
# Spin is not used here: perfbench's point_queries workload reads eigensystem.Spin
from .scattering import PrecisionError, Spin, _eigen_spinors, _positive_finite

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "momentum_operator",
    "analytic_eigenstate",
]


def momentum_operator(
    energy: float,
    mass: float,
    rep: EtaRepresentation = EtaRepresentation.REP1,
) -> np.ndarray:
    """The 4x4 momentum-space operator E*eta + m*eta_dagger.

    Non-Hermitian, but with real spectrum {+p, +p, -p, -p}, p = sqrt(2*E*m).
    Raises ValueError unless energy and mass are positive and finite.
    """
    energy = float(_positive_finite("energy", energy))
    mass = float(_positive_finite("mass", mass))
    return energy * eta(rep) + mass * eta_dagger(rep)


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
