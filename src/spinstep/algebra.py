"""Complex 4x4 matrix kernel.

Constructors for the Pauli and Dirac gamma matrices and for the symmetric
nilpotent generator pair (eta, eta^dagger) that factorizes the free
Schrodinger equation, together with structural predicates, characteristic
polynomial coefficients, and a verification report covering every
algebraic identity the generator pair must satisfy:

    eta^2 = 0,  (eta^dagger)^2 = 0,  {eta, eta^dagger} = 2I,
    eta symmetric, traceless, singular, all eigenvalues zero.

All matrices returned by this module are read-only numpy arrays; every
function is pure, so the module is safe for concurrent use.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "EtaRepresentation",
    "AlgebraCheck",
    "AlgebraReport",
    "IDENTITY_TOL",
    "pauli",
    "gamma",
    "eta",
    "eta_dagger",
    "dagger",
    "anticommutator",
    "commutator",
    "max_abs",
    "char_poly_coeffs",
    "verify_eta_matrix",
    "verify_eta_algebra",
]

SQRT2 = float(np.sqrt(2.0))

# Default absolute tolerance for exact algebraic identities.  Entries of the
# generator matrices are 0 and +-1/sqrt(2), so any deviation is pure rounding.
IDENTITY_TOL = 1e-14


class EtaRepresentation(Enum):
    """Selects one of the two built-in realizations of the generator pair.

    Both satisfy the same algebra; REP1 is the engine default because the
    plane-wave eigenstates used downstream are written in that basis.
    """

    REP1 = "rep1"
    REP2 = "rep2"


def _readonly(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


_PAULI = (
    _readonly(np.eye(2, dtype=complex)),
    _readonly(np.array([[0, 1], [1, 0]], dtype=complex)),
    _readonly(np.array([[0, -1j], [1j, 0]], dtype=complex)),
    _readonly(np.array([[1, 0], [0, -1]], dtype=complex)),
)


def pauli(index: int) -> np.ndarray:
    """Pauli matrix sigma_index, index in {0, 1, 2, 3} (0 is the identity)."""
    if index not in (0, 1, 2, 3):
        raise ValueError(f"pauli index must be 0..3, got {index}")
    return _PAULI[index]


def _block(a, b, c, d) -> np.ndarray:
    return np.block([[np.asarray(a), np.asarray(b)], [np.asarray(c), np.asarray(d)]])


_Z2 = np.zeros((2, 2), dtype=complex)

# Dirac basis: gamma0 = diag(1,1,-1,-1), spatial gammas with Pauli
# off-diagonal blocks, gamma5 = i*gamma0*gamma1*gamma2*gamma3.
_GAMMA = {
    0: _readonly(np.diag([1, 1, -1, -1]).astype(complex)),
    1: _readonly(_block(_Z2, _PAULI[1], -_PAULI[1], _Z2)),
    2: _readonly(_block(_Z2, _PAULI[2], -_PAULI[2], _Z2)),
    3: _readonly(_block(_Z2, _PAULI[3], -_PAULI[3], _Z2)),
}
_GAMMA[5] = _readonly(1j * _GAMMA[0] @ _GAMMA[1] @ _GAMMA[2] @ _GAMMA[3])


def gamma(index: int) -> np.ndarray:
    """Dirac-basis gamma matrix for index in {0, 1, 2, 3, 5}."""
    try:
        return _GAMMA[index]
    except KeyError:
        raise ValueError(f"gamma index must be one of 0,1,2,3,5, got {index}") from None


_ETA = {
    EtaRepresentation.REP1: _readonly(
        np.array(
            [
                [0, -1j, 0, -1],
                [-1j, 0, 1, 0],
                [0, 1, 0, -1j],
                [-1, 0, -1j, 0],
            ],
            dtype=complex,
        )
        / SQRT2
    ),
    EtaRepresentation.REP2: _readonly(
        (1j / SQRT2)
        * _block(_Z2, _PAULI[0] + _PAULI[2], _PAULI[0] - _PAULI[2], _Z2)
    ),
}

_ETA_DAGGER = {rep: _readonly(m.conj().T.copy()) for rep, m in _ETA.items()}


def eta(rep: EtaRepresentation = EtaRepresentation.REP1) -> np.ndarray:
    """The symmetric nilpotent generator in the chosen representation.

    A 4x4 complex matrix with eta^2 = 0, {eta, eta^dagger} = 2I, eta^T = eta,
    zero trace and determinant, and all eigenvalues zero.
    """
    return _ETA[rep]


def eta_dagger(rep: EtaRepresentation = EtaRepresentation.REP1) -> np.ndarray:
    """Conjugate transpose of eta(rep); equals the entrywise conjugate
    because eta is symmetric."""
    return _ETA_DAGGER[rep]


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude; the deviation measure used by all reports."""
    return float(np.abs(np.asarray(m)).max())


def char_poly_coeffs(m: np.ndarray) -> np.ndarray:
    """Coefficients (c3, c2, c1, c0) of det(lambda*I - M) = lambda^4 +
    c3*lambda^3 + c2*lambda^2 + c1*lambda + c0, by Faddeev-LeVerrier.

    All eigenvalues of M are zero exactly when every coefficient vanishes,
    which avoids the accuracy cliff of rooting a degenerate quartic.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    eye = np.eye(4, dtype=complex)
    coeffs = []
    mk = m.copy()
    for k in range(1, 5):
        ck = -np.trace(mk) / k
        coeffs.append(ck)
        if k < 4:
            mk = m @ (mk + ck * eye)
    return np.array(coeffs)


@dataclass(frozen=True)
class AlgebraCheck:
    """One named identity check: its max-entry deviation and verdict."""

    name: str
    max_deviation: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "check_name": self.name,
            "max_deviation": self.max_deviation,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class AlgebraReport:
    """Ordered collection of AlgebraCheck results."""

    checks: tuple[AlgebraCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_deviation(self) -> float:
        return max((c.max_deviation for c in self.checks), default=0.0)

    def __iter__(self):
        return iter(self.checks)

    def __getitem__(self, name: str) -> AlgebraCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dicts(self) -> list[dict]:
        return [c.as_dict() for c in self.checks]

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dicts(), indent=indent)

    @staticmethod
    def merge(*reports: "AlgebraReport") -> "AlgebraReport":
        checks: list[AlgebraCheck] = []
        for r in reports:
            checks.extend(r.checks)
        return AlgebraReport(tuple(checks))


def _check(name: str, deviation: float, tol: float) -> AlgebraCheck:
    return AlgebraCheck(name, float(deviation), float(deviation) <= tol)


def verify_eta_matrix(
    candidate: np.ndarray,
    tol: float = IDENTITY_TOL,
    check_gamma_identities: bool = False,
) -> AlgebraReport:
    """Run the full identity suite against an arbitrary candidate generator.

    Useful for validating perturbed or externally supplied matrices; the
    expected dagger is taken to be the entrywise conjugate transpose of the
    candidate itself.  With check_gamma_identities, additionally tests the
    REP1-basis relations eta + eta^dagger = s*i*sqrt(2)*gamma2 and
    eta^dagger @ eta = I + s*i*gamma3, resolving the sign s = +-1 that fits
    best rather than hard-coding one.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    m = np.asarray(candidate, dtype=complex)
    md = m.conj().T
    eye = np.eye(4, dtype=complex)
    checks = [
        _check("square_is_zero", max_abs(m @ m), tol),
        _check("dagger_square_is_zero", max_abs(md @ md), tol),
        _check("anticommutator_is_2I", max_abs(anticommutator(m, md) - 2 * eye), tol),
        _check("symmetric", max_abs(m - m.T), tol),
        _check("dagger_is_entrywise_conjugate", max_abs(md - m.conj()), tol),
        _check("trace_is_zero", abs(np.trace(m)), tol),
        _check("determinant_is_zero", abs(np.linalg.det(m)), tol),
        _check("eigenvalues_all_zero", max_abs(char_poly_coeffs(m)), tol),
    ]
    if check_gamma_identities:
        checks.extend(_gamma_identity_checks(m, md, tol))
    return AlgebraReport(tuple(checks))


def _gamma_identity_checks(m, md, tol) -> list[AlgebraCheck]:
    eye = np.eye(4, dtype=complex)
    total = m + md
    dev_by_sign = {
        s: max_abs(total - s * 1j * SQRT2 * gamma(2)) for s in (+1, -1)
    }
    s2_sign = min(dev_by_sign, key=dev_by_sign.get)
    prod = md @ m
    prod_dev = {s: max_abs(prod - (eye + s * 1j * gamma(3))) for s in (+1, -1)}
    s3_sign = min(prod_dev, key=prod_dev.get)
    fmt = {+1: "+i", -1: "-i"}
    return [
        _check(
            f"eta_plus_dagger_equals_{fmt[s2_sign]}*sqrt2*gamma2",
            dev_by_sign[s2_sign],
            tol,
        ),
        _check(
            f"dagger_times_eta_equals_I{fmt[s3_sign]}*gamma3",
            prod_dev[s3_sign],
            tol,
        ),
    ]


def verify_eta_algebra(
    rep: EtaRepresentation = EtaRepresentation.REP1,
    tol: float = IDENTITY_TOL,
) -> AlgebraReport:
    """Verify every defining identity of the chosen generator representation.

    For REP1 the report also records which sign of the gamma2/gamma3
    relations the representation realizes (the relations are specific to
    that basis and are skipped for REP2, where neither sign applies).
    """
    return verify_eta_matrix(
        eta(rep), tol, check_gamma_identities=(rep is EtaRepresentation.REP1)
    )
