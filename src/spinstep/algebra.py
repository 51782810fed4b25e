"""Complex 4x4 matrix kernel.

The Pauli, Dirac gamma and mu matrices, and the symmetric nilpotent
generator pair (eta, eta^dagger) that factorizes the free Schrodinger
equation, are held here as exact tables: tuples of rows of Python numbers
with entries in {0, +-1, +-i}, eta scaled by sqrt(2) to get there.
Python's complex arithmetic is exact on such Gaussian integers, so the
generator pair's identity report,

    eta^2 = 0,  (eta^dagger)^2 = 0,  {eta, eta^dagger} = 2I,
    eta symmetric, traceless, singular, all eigenvalues zero,

and, for REP1, eta + eta^dagger = -i*sqrt(2)*gamma2 and eta^dagger @ eta =
I + i*gamma3, has every deviation exactly 0.  Every check is bounded by
IDENTITY_TOL, fixed here; verify_eta_matrix runs the suite on any candidate
in floating point.  gamma, eta and eta_dagger return read-only numpy
arrays built from the tables on first call; numpy is imported by the
functions that take or return arrays, not by the module.  Every function is
pure, so the module is safe for concurrent use.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from functools import cache
from itertools import chain
from operator import mul
from typing import NamedTuple

from .scattering import PrecisionError

__all__ = [
    "EtaRepresentation",
    "AlgebraCheck",
    "AlgebraReport",
    "gamma",
    "eta",
    "eta_dagger",
    "verify_eta_matrix",
    "verify_eta_algebra",
]

SQRT2 = math.sqrt(2.0)

# Absolute bound of every exact algebraic identity check.  On the tables the
# deviations are exactly 0; a candidate's are its own rounding.
IDENTITY_TOL = 1e-14


class EtaRepresentation(Enum):
    """Selects one of the two built-in realizations of the generator pair.

    Both satisfy the same algebra; REP1 is the engine default because the
    plane-wave eigenstates used downstream are written in that basis.
    """

    REP1 = "rep1"
    REP2 = "rep2"


def _sum(*terms):
    """The entrywise sum of c*a over (c, a) pairs of a number and a table."""
    coefficients, tables = zip(*terms)
    return tuple(
        tuple([sum(map(mul, coefficients, entries)) for entries in zip(*rows)])
        for rows in zip(*tables)
    )


def _mul(a, b):
    """The matrix product of two tables."""
    columns = tuple(zip(*b))
    return tuple(tuple([sum(map(mul, row, column)) for column in columns]) for row in a)


def _bracket(a, b, sign: int):
    """a*b + sign*b*a of two tables: {a, b} for +1, [a, b] for -1."""
    return _sum((1, _mul(a, b)), (sign, _mul(b, a)))


def _adj(a):
    """The conjugate transpose of a table."""
    return tuple(tuple(x.conjugate() for x in column) for column in zip(*a))


def _worst(values) -> float:
    """The largest of some magnitudes, nan if any is nan: max alone keeps the
    value it met first, so a nan met later would be lost."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values, default=0.0)


def _dev(a, scale=1) -> float:
    """The largest entry magnitude of a table over scale: every deviation."""
    return _worst(abs(x) for row in a for x in row) / scale


def _block(a, b, c, d):
    """The 4x4 table [[a, b], [c, d]] of four 2x2 tables."""
    return tuple(x + y for x, y in zip(a, b)) + tuple(x + y for x, y in zip(c, d))


_Z2 = ((0, 0), (0, 0))
_PAULI = (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1)))
_EYE = _block(_PAULI[0], _Z2, _Z2, _PAULI[0])

# Dirac basis: gamma0 = diag(1,1,-1,-1), spatial gammas with Pauli
# off-diagonal blocks, gamma5 = i*gamma0*gamma1*gamma2*gamma3.
_GAMMA = {
    0: _block(_PAULI[0], _Z2, _Z2, _sum((-1, _PAULI[0]))),
    **{k: _block(_Z2, _PAULI[k], _sum((-1, _PAULI[k])), _Z2) for k in (1, 2, 3)},
}
_GAMMA[5] = _sum((1j, _mul(_mul(_GAMMA[0], _GAMMA[1]), _mul(_GAMMA[2], _GAMMA[3]))))

# The block forms diag(sigma3, sigma3), antidiag(sigma2, sigma2) and
# diag(sigma2, -sigma2) of the 3D equation's mu1, mu2, mu3 (see threed).
_MU = (
    _block(_PAULI[3], _Z2, _Z2, _PAULI[3]),
    _block(_Z2, _PAULI[2], _PAULI[2], _Z2),
    _block(_PAULI[2], _Z2, _Z2, _sum((-1, _PAULI[2]))),
)

# sqrt(2)*eta in each representation; REP2 is i*[[0, s0 + s2], [s0 - s2, 0]]
_SQRT2_ETA = {
    EtaRepresentation.REP1: ((0, -1j, 0, -1), (-1j, 0, 1, 0), (0, 1, 0, -1j), (-1, 0, -1j, 0)),
    EtaRepresentation.REP2: ((0, 0, 1j, 1), (0, 0, -1, 1j), (1j, -1, 0, 0), (1, 1j, 0, 0)),
}


@cache
def _array(table, divisor=1):
    """table / divisor as a read-only complex numpy array, built once."""
    import numpy as np

    m = np.array(table, dtype=complex) / divisor
    m.setflags(write=False)
    return m


def gamma(index: int):
    """Dirac-basis gamma matrix for index in {0, 1, 2, 3, 5}."""
    try:
        return _array(_GAMMA[index])
    except KeyError:
        raise ValueError(f"gamma index must be one of 0,1,2,3,5, got {index}") from None


def eta(rep: EtaRepresentation = EtaRepresentation.REP1):
    """The symmetric nilpotent generator in the chosen representation.

    A 4x4 complex matrix with eta^2 = 0, {eta, eta^dagger} = 2I, eta^T = eta,
    zero trace and determinant, and all eigenvalues zero.
    """
    return _array(_SQRT2_ETA[rep], SQRT2)


def eta_dagger(rep: EtaRepresentation = EtaRepresentation.REP1):
    """Conjugate transpose of eta(rep); equals the entrywise conjugate
    because eta is symmetric."""
    return _array(_adj(_SQRT2_ETA[rep]), SQRT2)


def _char_poly_coeffs(m) -> tuple:
    """Coefficients (c3, c2, c1, c0) of det(lambda*I - M) = lambda^4 +
    c3*lambda^3 + c2*lambda^2 + c1*lambda + c0 of a 4x4 table, by
    Faddeev-LeVerrier; c3 = -tr(M) and c0 = det(M).  All eigenvalues are
    zero exactly when every coefficient vanishes, with no quartic to root.
    """
    coeffs = []
    mk = m
    for k in (1, 2, 3, 4):
        ck = -sum(mk[i][i] for i in range(4)) / k
        coeffs.append(ck)
        mk = _mul(m, _sum((1, mk), (ck, _EYE)))
    return tuple(coeffs)


def _square_terms(n, norm):
    """n^2, {n, n^dagger} - 2*norm*I and (n^dagger)^2 for n = s*eta, s*s =
    norm: the coefficients of E^2, E*m and m^2 in (E*n + m*n^dagger)^2 -
    2*norm*E*m*I, each 0 exactly when its identity holds."""
    nd = _adj(n)
    cross = _sum((1, _bracket(n, nd, 1)), (-2 * norm, _EYE))
    return _mul(n, n), cross, _mul(nd, nd)


def _square_deviation(n, pairs) -> float:
    """The largest |(e*eta + m*eta^dagger)^2 - 2*e*m*I| / (2*e*m) over the
    (e, m) pairs, 4*e*m normal, from the table n = sqrt(2)*eta: expanded over
    its exact _square_terms, an exact pair gives 0 however far apart e, m."""
    terms = zip(*(chain.from_iterable(table) for table in _square_terms(n, 2)))
    nonzero = [t for t in terms if any(t)]
    return _worst(
        abs(e * e * s + e * m * c + m * m * d) / (4 * e * m)
        for e, m in pairs
        for s, c, d in nonzero
    )


def _scaled(*values) -> list:
    """values divided by the power of two that brings the largest magnitude
    into [0.5, 1): exact unless a value underflows, and no product of the
    operators built from them can overflow."""
    k = math.frexp(max(map(abs, values)))[1]
    return [math.ldexp(v, -k) for v in values]


def _normal(value: float, what: str, **inputs) -> float:
    if not value >= sys.float_info.min:
        raise PrecisionError(f"{what} underflows", **inputs)
    return value


class AlgebraCheck(NamedTuple):
    """One named identity check: its max-entry deviation and verdict."""

    name: str
    max_deviation: float
    passed: bool


class AlgebraReport:
    """Ordered collection of AlgebraCheck results."""

    __slots__ = ("checks",)

    def __init__(self, checks: tuple[AlgebraCheck, ...]):
        self.checks = checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_deviation(self) -> float:
        return _worst(c.max_deviation for c in self.checks)

    def as_dicts(self) -> list[dict]:
        return [
            {"check_name": c.name, "max_deviation": c.max_deviation, "pass": c.passed}
            for c in self.checks
        ]

    @staticmethod
    def merge(*reports: "AlgebraReport") -> "AlgebraReport":
        return AlgebraReport(tuple(c for r in reports for c in r.checks))


def _check(name: str, deviation: float, tol: float = IDENTITY_TOL) -> AlgebraCheck:
    """A named check: the deviation as a float, passed when within tol."""
    return AlgebraCheck(name, float(deviation), float(deviation) <= tol)


def _generator_checks(n, norm) -> tuple[AlgebraCheck, ...]:
    """The defining identity suite of a generator n = s*eta given as a 4x4
    table, s*s = norm, each deviation measured in eta's own units."""
    s = math.sqrt(norm)
    square, cross, dagger_square = _square_terms(n, norm)
    coeffs = _char_poly_coeffs(n)
    return (
        _check("square_is_zero", _dev(square, norm)),
        _check("dagger_square_is_zero", _dev(dagger_square, norm)),
        _check("anticommutator_is_2I", _dev(cross, norm)),
        _check("symmetric", _dev(_sum((1, n), (-1, tuple(zip(*n)))), s)),
        _check("trace_is_zero", abs(coeffs[0]) / s),
        _check("determinant_is_zero", abs(coeffs[3]) / (norm * norm)),
        # c_k of n is s^k times c_k of eta
        _check("eigenvalues_all_zero", _worst(abs(c) / s**k for k, c in enumerate(coeffs, 1))),
    )


def verify_eta_matrix(candidate) -> AlgebraReport:
    """Run the defining identity suite, in floating point, against any 4x4
    candidate generator, such as a perturbed or externally supplied matrix,
    each check within IDENTITY_TOL; its dagger is taken to be its own
    entrywise conjugate transpose."""
    rows = tuple(tuple(complex(x) for x in row) for row in candidate)
    if len(rows) != 4 or any(len(row) != 4 for row in rows):
        raise ValueError(f"expected a 4x4 matrix, got rows of lengths {[len(r) for r in rows]}")
    return AlgebraReport(_generator_checks(rows, 1))


def verify_eta_algebra(rep: EtaRepresentation = EtaRepresentation.REP1) -> AlgebraReport:
    """Verify every defining identity of the chosen generator representation,
    exactly, on its table, each within IDENTITY_TOL.

    For REP1 the report also checks the two gamma relations of that basis,
    with their fixed signs: eta + eta^dagger = -i*sqrt(2)*gamma2 and
    eta^dagger @ eta = I + i*gamma3.  REP2 realizes neither, with either
    sign, so its report omits them.
    """
    n = _SQRT2_ETA[rep]
    checks = _generator_checks(n, 2)
    if rep is not EtaRepresentation.REP1:
        return AlgebraReport(checks)
    nd = _adj(n)
    # on the table: N + N^dagger = -2i*gamma2 and N^dagger N = 2I + 2i*gamma3
    plus = _sum((1, n), (1, nd), (2j, _GAMMA[2]))
    times = _sum((1, _mul(nd, n)), (-2, _EYE), (-2j, _GAMMA[3]))
    return AlgebraReport(checks + (
        _check("eta_plus_dagger_equals_-i*sqrt2*gamma2", _dev(plus, SQRT2)),
        _check("dagger_times_eta_equals_I+i*gamma3", _dev(times, 2)),
    ))
