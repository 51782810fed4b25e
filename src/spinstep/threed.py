"""Three-dimensional operator algebra.

The 3D form of the first-order equation replaces the plain z-derivative with
mu_i d_i, where the three Hermitian 4x4 matrices mu_i obey the Clifford
relation {mu_i, mu_j} = 2*delta_ij*I.  This module builds the mu triple,
algebra's block-form tables (checked against the gamma-matrix products),
the Hermitian kernels of the 3D continuity equation

    Sigma_i = i * mu_i * (eta + eta^dagger) * gamma3,
    Gamma   = i * eta^dagger * eta * gamma3,

and verifies every commutation/anticommutation relation that derivation
rests on, exactly, on the tables, each within algebra.IDENTITY_TOL.  It
also probes the singularity structure of the momentum-space operator
mu.p - E*eta - m*eta_dagger, built in REP1, and checks its two squared
identities within a relative 1e-12.  Each bound is fixed where its check is
defined; no check takes a tolerance.  Only the functions that return arrays
or take a LAPACK determinant import numpy.

A fact worth knowing before reading further: each mu_i anticommutes with
both eta and eta_dagger (in the default representation), so the squared
operator is (mu.p - E*eta - m*eta_dagger)^2 = (|p|^2 + 2*E*m)*I.  With
that mass-term sign the operator is therefore nonsingular for every real
momentum; flipping the sign of the mass term yields (|p|^2 - 2*E*m)*I
instead, which is singular exactly on the Schrodinger shell
|p|^2 = 2*E*m.  shell_determinant exposes both signs so the structure can
be inspected directly.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from .algebra import (
    SQRT2,
    AlgebraReport,
    EtaRepresentation,
    _EYE,
    _GAMMA,
    _MU,
    _SQRT2_ETA,
    _adj,
    _array,
    _bracket,
    _check,
    _dev,
    _mul,
    _normal,
    _scaled,
    _square_deviation,
    _sum,
    eta,
    eta_dagger,
)
from .scattering import PrecisionError, _positive_finite

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MuTriple",
    "ContinuityObjects",
    "mu_matrices",
    "continuity_objects",
    "verify_continuity_identities",
    "shell_determinant",
    "schrodinger_reduction_check",
    "squared_operator_check",
]

# A determinant normalized by the product of row norms below this value
# counts as singular.
SINGULARITY_TOL = 1e-10

# Relative bound of squared_operator_check's two identities.
_SQUARED_OPERATOR_TOL = 1e-12


class MuTriple(NamedTuple):
    """The three Hermitian generators of the spatial derivative terms."""

    mu1: np.ndarray
    mu2: np.ndarray
    mu3: np.ndarray


class ContinuityObjects(NamedTuple):
    """Hermitian current kernels Sigma_i and density kernel Gamma of the 3D
    continuity equation."""

    sigma1: np.ndarray
    sigma2: np.ndarray
    sigma3: np.ndarray
    density: np.ndarray

    @property
    def sigmas(self):
        return (self.sigma1, self.sigma2, self.sigma3)


def mu_matrices() -> MuTriple:
    """mu1 = i*gamma1*gamma2, mu2 = gamma0*gamma2, mu3 = gamma2*gamma5, as
    read-only arrays of algebra's block-form tables diag(sigma3, sigma3),
    antidiag(sigma2, sigma2) and diag(sigma2, -sigma2), which
    verify_continuity_identities compares with the gamma products."""
    return MuTriple(*map(_array, _MU))


def _continuity_tables(rep: EtaRepresentation):
    """sqrt(2)*Sigma_1..3 and 2*Gamma as tables, from sqrt(2)*eta."""
    n = _SQRT2_ETA[rep]
    nd = _adj(n)
    total = _sum((1, n), (1, nd))
    g3 = _GAMMA[3]
    sigmas = tuple(_sum((1j, _mul(_mul(mu, total), g3))) for mu in _MU)
    return sigmas, _sum((1j, _mul(_mul(nd, n), g3)))


def continuity_objects(rep: EtaRepresentation = EtaRepresentation.REP1) -> ContinuityObjects:
    """The Hermitian kernels of the 3D continuity equation, as arrays."""
    sigmas, density = _continuity_tables(rep)
    return ContinuityObjects(*(_array(s, SQRT2) for s in sigmas), _array(density, 2))


def verify_continuity_identities(
    rep: EtaRepresentation = EtaRepresentation.REP1,
) -> AlgebraReport:
    """Verify all relations the 3D continuity derivation uses, exactly, on
    algebra's tables, each within algebra.IDENTITY_TOL.

    Covers, for i, j in 1..3: Hermiticity of mu_i, the Clifford relation
    {mu_i, mu_j} = 2*delta_ij*I, block-form agreement, [mu_i, gamma3] = 0,
    {mu_i, eta + eta^dagger} = 0, plus [eta*eta^dagger, gamma3] = 0,
    {eta + eta^dagger, gamma3} = 0, and Hermiticity of every Sigma_i and of
    Gamma.  Deviations are in the units of eta, whose table is sqrt(2)*eta.
    """
    n = _SQRT2_ETA[rep]
    total = _sum((1, n), (1, _adj(n)))
    g = _GAMMA
    products = (_sum((1j, _mul(g[1], g[2]))), _mul(g[0], g[2]), _mul(g[2], g[5]))
    checks = []

    def add(name, table, scale=1):
        checks.append(_check(name, _dev(table, scale)))

    def add_hermitian(name, table, scale=1):
        add(name, _sum((1, table), (-1, _adj(table))), scale)

    for k, (mu, product) in enumerate(zip(_MU, products), start=1):
        add_hermitian(f"mu{k}_hermitian", mu)
        add(f"mu{k}_matches_block_form", _sum((1, product), (-1, mu)))
    for i in range(3):
        for j in range(i, 3):
            clifford = _sum((1, _bracket(_MU[i], _MU[j], 1)), (-2 if i == j else 0, _EYE))
            add(f"anticommutator_mu{i + 1}_mu{j + 1}", clifford)
    for k, mu in enumerate(_MU, start=1):
        add(f"commutator_mu{k}_gamma3", _bracket(mu, g[3], -1))
        add(f"anticommutator_mu{k}_eta_plus_dagger", _bracket(mu, total, 1), SQRT2)
    add("commutator_eta_etadagger_gamma3", _bracket(_mul(n, _adj(n)), g[3], -1), 2)
    add("anticommutator_eta_plus_dagger_gamma3", _bracket(total, g[3], 1), SQRT2)
    sigmas, density = _continuity_tables(rep)
    for k, sigma in enumerate(sigmas, start=1):
        add_hermitian(f"sigma{k}_hermitian", sigma, SQRT2)
    add_hermitian("density_kernel_hermitian", density, 2)
    return AlgebraReport(tuple(checks))


def _momentum(momentum) -> tuple:
    try:
        p = tuple(map(float, momentum))
    except (TypeError, OverflowError):  # not a sequence, or an int beyond the double range
        p = ()
    if len(p) != 3 or not all(map(math.isfinite, p)):
        raise ValueError(f"momentum must be a finite real 3-vector, got {momentum!r}")
    return p


def _momentum_matrix(p) -> np.ndarray:
    mus = mu_matrices()
    return p[0] * mus.mu1 + p[1] * mus.mu2 + p[2] * mus.mu3


def shell_determinant(energy: float, mass: float, momentum, mass_sign: int = +1) -> float:
    """Normalized |det(mu.p - E*eta - mass_sign*m*eta_dagger)|.

    The determinant is divided by max(|p|^2, 2*E*m)^2, the operator's own
    spectral scale, making the value dimensionless and comparable across eV
    magnitudes (a row-norm normalization would drown the determinant in
    mass-dominated rows whenever E << m).  With mass_sign = +1 the raw
    determinant magnitude equals (|p|^2 + 2*E*m)^2, so the normalized value
    is bounded below by 1 for every real momentum; with mass_sign = -1 it is
    (|p|^2 - 2*E*m)^2, vanishing exactly on the shell |p|^2 = 2*E*m.  The
    operator is built in REP1, on (p, E, m) scaled together by a power of
    two (the value is homogeneous of degree 0).  Raises ValueError unless
    energy and mass are positive and finite and momentum is a finite real
    3-vector, PrecisionError if the scaled normalization underflows or
    LAPACK's determinant is not finite (an exactly zero complex pivot,
    where E*eta and m*eta_dagger lie too many decades apart to add).
    """
    _positive_finite("energy", energy)
    _positive_finite("mass", mass)
    if mass_sign not in (+1, -1):
        raise ValueError(f"mass_sign must be +1 or -1, got {mass_sign}")
    import numpy as np

    p = list(_momentum(momentum))
    e, m, *p_scaled = _scaled(energy, mass, *p)
    op = _momentum_matrix(p_scaled) - e * eta() - mass_sign * m * eta_dagger()
    scale = max(sum(x * x for x in p_scaled), 2.0 * e * m)
    _normal(scale * scale, "max(|p|^2, 2*E*m)^2", E=energy, m=mass, p=p)
    with np.errstate(divide="ignore", invalid="ignore"):
        det = abs(np.linalg.det(op))
    if not math.isfinite(det):
        raise PrecisionError("the determinant is not finite", E=energy, m=mass, p=p)
    return float(det / scale**2)


def schrodinger_reduction_check(energy: float, mass: float, momentum) -> tuple[bool, float]:
    """Probe the momentum-space operator mu.p - E*eta - m*eta_dagger for
    plane-wave solvability at the given real momentum.

    Returns (is_singular, normalized_det) where is_singular means the
    normalized determinant falls below SINGULARITY_TOL.  See the module
    docstring: with the mass-term sign as built here the operator is never
    singular for real momenta, so is_singular is False both on and off the
    shell |p|^2 = 2*E*m; the on-shell singularity appears only for the
    flipped mass sign (shell_determinant with mass_sign=-1).
    """
    value = shell_determinant(energy, mass, momentum, mass_sign=+1)
    return value <= SINGULARITY_TOL, value


def squared_operator_check(
    momentum,
    energy: float = 1.0,
    mass: float = 1.0,
    rep: EtaRepresentation = EtaRepresentation.REP1,
) -> AlgebraReport:
    """Verify the two squared-operator identities behind the free-particle
    dispersion: (mu.p)^2 = |p|^2 * I and (E*eta + m*eta_dagger)^2 = 2*E*m*I.

    Deviations are measured relative to the respective scale (|p|^2 and
    2*E*m) and bounded by 1e-12.  Each identity is homogeneous, so p, and
    (E, m) together, are scaled by a power of two first, which leaves the
    deviations as they are.  Both run on algebra's tables in Python numbers;
    the second is expanded over them, which makes it exact.  Raises
    ValueError unless energy and mass are positive and finite and momentum
    is a finite real 3-vector, PrecisionError if the scaled 2*E*m
    underflows.
    """
    _positive_finite("energy", energy)
    _positive_finite("mass", mass)
    p = _scaled(*_momentum(momentum))
    mp = _sum(*zip(p, _MU))
    p_squared = sum(x * x for x in p)
    dev_momentum = _dev(
        _sum((1, _mul(mp, mp)), (-p_squared, _EYE)), max(p_squared, sys.float_info.min)
    )
    e, m = _scaled(energy, mass)
    _normal(2.0 * e * m, "2*E*m", E=energy, m=mass)
    dev_energy = _square_deviation(_SQRT2_ETA[rep], [(e, m)])
    return AlgebraReport(
        (
            _check("momentum_square_is_p2_identity", dev_momentum, _SQUARED_OPERATOR_TOL),
            _check("energy_mass_square_is_2Em_identity", dev_energy, _SQUARED_OPERATOR_TOL),
        )
    )
