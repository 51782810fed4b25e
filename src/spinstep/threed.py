"""Three-dimensional operator algebra.

The 3D form of the first-order equation replaces the plain z-derivative with
mu_i d_i, where the three Hermitian 4x4 matrices mu_i obey the Clifford
relation {mu_i, mu_j} = 2*delta_ij*I.  This module builds the mu triple
from gamma-matrix products (checked against their explicit block forms),
the Hermitian kernels of the 3D continuity equation

    Sigma_i = i * mu_i * (eta + eta^dagger) * gamma3,
    Gamma   = i * eta^dagger * eta * gamma3,

and verifies every commutation/anticommutation relation that derivation
rests on, each within algebra.IDENTITY_TOL.  It also probes the singularity
structure of the momentum-space operator mu.p - E*eta - m*eta_dagger, built
in REP1, and checks its two squared identities within a relative 1e-12.
Each bound is fixed where its check is defined; no check takes a tolerance.

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
from typing import NamedTuple

import numpy as np

from .algebra import (
    AlgebraReport,
    EtaRepresentation,
    _check,
    _readonly,
    anticommutator,
    commutator,
    dagger,
    eta,
    eta_dagger,
    gamma,
    max_abs,
    pauli,
)
from .scattering import PrecisionError

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


def _block_forms() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    z = np.zeros((2, 2), dtype=complex)
    s2, s3 = pauli(2), pauli(3)
    mu1 = np.block([[s3, z], [z, s3]])
    mu2 = np.block([[z, s2], [s2, z]])
    mu3 = np.block([[s2, z], [z, -s2]])
    return mu1, mu2, mu3


def mu_matrices() -> MuTriple:
    """mu1 = i*gamma1*gamma2, mu2 = gamma0*gamma2, mu3 = gamma2*gamma5.

    Their block forms diag(sigma3, sigma3), antidiag(sigma2, sigma2) and
    diag(sigma2, -sigma2) are compared with these products by
    verify_continuity_identities.
    """
    return MuTriple(
        _readonly(1j * gamma(1) @ gamma(2)),
        _readonly(gamma(0) @ gamma(2)),
        _readonly(gamma(2) @ gamma(5)),
    )


def continuity_objects(rep: EtaRepresentation = EtaRepresentation.REP1) -> ContinuityObjects:
    """The Hermitian kernels entering the 3D continuity equation."""
    mus = mu_matrices()
    e, ed = eta(rep), eta_dagger(rep)
    g3 = gamma(3)
    total = e + ed
    sigmas = tuple(_readonly(1j * mu @ total @ g3) for mu in mus)
    density = _readonly(1j * (ed @ e) @ g3)
    return ContinuityObjects(*sigmas, density)


def verify_continuity_identities(
    rep: EtaRepresentation = EtaRepresentation.REP1,
) -> AlgebraReport:
    """Verify all relations the 3D continuity derivation uses, each within
    algebra.IDENTITY_TOL.

    Covers, for i, j in 1..3: Hermiticity of mu_i, the Clifford relation
    {mu_i, mu_j} = 2*delta_ij*I, block-form agreement, [mu_i, gamma3] = 0,
    {mu_i, eta + eta^dagger} = 0, plus [eta*eta^dagger, gamma3] = 0,
    {eta + eta^dagger, gamma3} = 0, and Hermiticity of every Sigma_i and of
    Gamma.
    """
    mus = mu_matrices()
    e, ed = eta(rep), eta_dagger(rep)
    g3 = gamma(3)
    total = e + ed
    eye = np.eye(4, dtype=complex)
    checks = []

    def add(name, deviation):
        checks.append(_check(name, deviation))

    for k, (mu, block) in enumerate(zip(mus, _block_forms()), start=1):
        add(f"mu{k}_hermitian", max_abs(mu - dagger(mu)))
        add(f"mu{k}_matches_block_form", max_abs(mu - block))
    for i in range(3):
        for j in range(i, 3):
            target = 2.0 * eye if i == j else 0.0
            add(
                f"anticommutator_mu{i + 1}_mu{j + 1}",
                max_abs(anticommutator(mus[i], mus[j]) - target),
            )
    for k, mu in enumerate(mus, start=1):
        add(f"commutator_mu{k}_gamma3", max_abs(commutator(mu, g3)))
        add(f"anticommutator_mu{k}_eta_plus_dagger", max_abs(anticommutator(mu, total)))
    add("commutator_eta_etadagger_gamma3", max_abs(commutator(e @ ed, g3)))
    add("anticommutator_eta_plus_dagger_gamma3", max_abs(anticommutator(total, g3)))
    objs = continuity_objects(rep)
    for k, sigma in enumerate(objs.sigmas, start=1):
        add(f"sigma{k}_hermitian", max_abs(sigma - dagger(sigma)))
    add("density_kernel_hermitian", max_abs(objs.density - dagger(objs.density)))
    return AlgebraReport(tuple(checks))


def _positive_finite(energy: float, mass: float):
    if not (0 < energy < math.inf and 0 < mass < math.inf):
        raise ValueError(f"energy and mass must be positive and finite, got {energy}, {mass}")


def _momentum(momentum) -> np.ndarray:
    p = np.asarray(momentum, dtype=float)
    if p.shape != (3,):
        raise ValueError(f"momentum must be a real 3-vector, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError(f"momentum must be finite, got {p}")
    return p


def _scaled(*values) -> list:
    """values divided by the power of two that brings the largest magnitude
    into [0.5, 1): exact unless a value underflows, and no product of the
    operators built from them can overflow."""
    k = math.frexp(max(map(abs, values)))[1]
    return [math.ldexp(v, -k) for v in values]


def _normal(value: float, what: str, **inputs) -> float:
    if not value >= np.finfo(float).tiny:
        raise PrecisionError(f"{what} underflows", **inputs)
    return value


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
    _positive_finite(energy, mass)
    if mass_sign not in (+1, -1):
        raise ValueError(f"mass_sign must be +1 or -1, got {mass_sign}")
    p = _momentum(momentum)
    e, m, *p_scaled = _scaled(energy, mass, *p)
    p_scaled = np.array(p_scaled)
    op = _momentum_matrix(p_scaled) - e * eta() - mass_sign * m * eta_dagger()
    scale = max(float(p_scaled @ p_scaled), 2.0 * e * m)
    _normal(scale * scale, "max(|p|^2, 2*E*m)^2", E=energy, m=mass, p=p.tolist())
    with np.errstate(divide="ignore", invalid="ignore"):
        det = abs(np.linalg.det(op))
    if not math.isfinite(det):
        raise PrecisionError("the determinant is not finite", E=energy, m=mass, p=p.tolist())
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
    deviations as they are.  Raises ValueError unless energy and mass are
    positive and finite and momentum is a finite real 3-vector,
    PrecisionError if the scaled 2*E*m underflows.
    """
    _positive_finite(energy, mass)
    p = np.array(_scaled(*_momentum(momentum)))
    mp = _momentum_matrix(p)
    p_squared = float(p @ p)
    eye = np.eye(4, dtype=complex)
    dev_momentum = max_abs(mp @ mp - p_squared * eye) / max(p_squared, np.finfo(float).tiny)
    e, m = _scaled(energy, mass)
    op = e * eta(rep) + m * eta_dagger(rep)
    scale = _normal(2.0 * e * m, "2*E*m", E=energy, m=mass)
    dev_energy = max_abs(op @ op - scale * eye) / scale
    return AlgebraReport(
        (
            _check("momentum_square_is_p2_identity", dev_momentum, _SQUARED_OPERATOR_TOL),
            _check("energy_mass_square_is_2Em_identity", dev_energy, _SQUARED_OPERATOR_TOL),
        )
    )
