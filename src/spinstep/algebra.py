"""Exact 4x4 tables of the generator algebra, and every identity suite.

The Pauli, Dirac gamma and mu matrices, and the symmetric nilpotent
generator pair (eta, eta^dagger) that factorizes the free Schrodinger
equation, are held here as exact tables: tuples of rows of Python numbers
with entries in {0, +-1, +-i}, eta scaled by sqrt(2) to get there.
Python's complex arithmetic is exact on such Gaussian integers, so each
suite has every deviation of the tables exactly 0: verify_eta_algebra
(eta^2 = 0, (eta^dagger)^2 = 0, {eta, eta^dagger} = 2I, eta symmetric,
traceless, singular, all eigenvalues zero, and, for REP1, eta + eta^dagger
= -i*sqrt(2)*gamma2 and eta^dagger @ eta = I + i*gamma3), verify_dispersion
(the plane-wave spectrum +-sqrt(2*E*m) and its closed-form eigenstates),
verify_continuity_identities (the relations behind the continuity equation
of the 3D form, whose z-derivative becomes mu_i d_i for three Hermitian
mu_i with {mu_i, mu_j} = 2*delta_ij*I) and squared_operator_check.  Each
check's bound is fixed where the check is defined; verify_eta_matrix runs
the generator suite on any candidate in floating point.

shell_determinant and schrodinger_reduction_check probe the momentum-space
operator mu.p - E*eta - m*eta_dagger, built in REP1.  A fact worth knowing
before reading them: each mu_i anticommutes with both eta and eta_dagger
(in the default representation), so (mu.p - E*eta - m*eta_dagger)^2 =
(|p|^2 + 2*E*m)*I.  With that mass-term sign the operator is nonsingular
for every real momentum; flipping the sign of the mass term yields
(|p|^2 - 2*E*m)*I instead, which is singular exactly on the Schrodinger
shell |p|^2 = 2*E*m.  shell_determinant exposes both signs.

gamma, eta, eta_dagger and mu_matrices return read-only numpy arrays built
from the tables on first call; numpy is imported only by them and by
shell_determinant's LAPACK determinant.  Every entry point looks its rep up
in one place, which refuses a non-member with a ValueError naming it.
Every function is pure, so the module is safe for concurrent use.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from functools import cache
from itertools import chain
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .scattering import ELECTRON_MASS_EV, PrecisionError, _eigen_spinors, _positive_finite

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EtaRepresentation",
    "AlgebraCheck",
    "AlgebraReport",
    "gamma",
    "eta",
    "eta_dagger",
    "verify_eta_matrix",
    "verify_eta_algebra",
    "verify_dispersion",
    "MuTriple",
    "mu_matrices",
    "verify_continuity_identities",
    "shell_determinant",
    "schrodinger_reduction_check",
    "squared_operator_check",
]

SQRT2 = math.sqrt(2.0)

# Absolute bound of every exact algebraic identity check.  On the tables the
# deviations are exactly 0; a candidate's are its own rounding.
IDENTITY_TOL = 1e-14

# Bound of verify_dispersion's state checks.
_STATE_TOL = 1e-12

# A normalized shell_determinant at or below this value counts as singular.
SINGULARITY_TOL = 1e-10

# Relative bound of squared_operator_check's two identities.
_SQUARED_OPERATOR_TOL = 1e-12


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
# diag(sigma2, -sigma2) of the 3D equation's mu1, mu2, mu3.
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


def _sqrt2_eta(rep) -> tuple:
    """The table sqrt(2)*eta of rep, the one lookup of every entry point
    that takes a rep."""
    if not isinstance(rep, EtaRepresentation):
        raise ValueError(f"rep must be an EtaRepresentation, got {rep!r}")
    return _SQRT2_ETA[rep]


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
        table = _GAMMA[index]
    except (KeyError, TypeError):  # not an index, or unhashable
        raise ValueError(f"gamma index must be one of 0,1,2,3,5, got {index}") from None
    return _array(table)


def eta(rep: EtaRepresentation = EtaRepresentation.REP1):
    """The symmetric nilpotent generator in the chosen representation.

    A 4x4 complex matrix with eta^2 = 0, {eta, eta^dagger} = 2I, eta^T = eta,
    zero trace and determinant, and all eigenvalues zero.
    """
    return _array(_sqrt2_eta(rep), SQRT2)


def eta_dagger(rep: EtaRepresentation = EtaRepresentation.REP1):
    """Conjugate transpose of eta(rep); equals the entrywise conjugate
    because eta is symmetric."""
    return _array(_adj(_sqrt2_eta(rep)), SQRT2)


class MuTriple(NamedTuple):
    """The three Hermitian generators of the spatial derivative terms."""

    mu1: np.ndarray
    mu2: np.ndarray
    mu3: np.ndarray


def mu_matrices() -> MuTriple:
    """mu1 = i*gamma1*gamma2, mu2 = gamma0*gamma2, mu3 = gamma2*gamma5, as
    read-only arrays of the block-form tables diag(sigma3, sigma3),
    antidiag(sigma2, sigma2) and diag(sigma2, -sigma2), which
    verify_continuity_identities compares with the gamma products."""
    return MuTriple(*map(_array, _MU))


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
    n = _sqrt2_eta(rep)
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


def verify_dispersion(
    rep: EtaRepresentation = EtaRepresentation.REP1,
    energies=None,
) -> AlgebraReport:
    """The plane-wave sector at the electron mass over a log grid of energies
    (default 100 points in [1 eV, 10 MeV]), each (E, m) scaled by a power of
    two, which leaves every check as it is.

    (E*eta + m*eta_dagger)^2 = 2*E*m*I is checked exactly, on the square
    expanded over the tables.  With the zero trace verify_eta_algebra
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
    n = _sqrt2_eta(rep)
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


def _continuity_tables(rep: EtaRepresentation):
    """sqrt(2)*Sigma_1..3 and 2*Gamma as tables, from sqrt(2)*eta."""
    n = _sqrt2_eta(rep)
    nd = _adj(n)
    total = _sum((1, n), (1, nd))
    g3 = _GAMMA[3]
    sigmas = tuple(_sum((1j, _mul(_mul(mu, total), g3))) for mu in _MU)
    return sigmas, _sum((1j, _mul(_mul(nd, n), g3)))


def verify_continuity_identities(
    rep: EtaRepresentation = EtaRepresentation.REP1,
) -> AlgebraReport:
    """Verify all relations the 3D continuity derivation uses, exactly, on
    the tables, each within IDENTITY_TOL.

    Covers, for i, j in 1..3: Hermiticity of mu_i, the Clifford relation
    {mu_i, mu_j} = 2*delta_ij*I, block-form agreement, [mu_i, gamma3] = 0,
    {mu_i, eta + eta^dagger} = 0, plus [eta*eta^dagger, gamma3] = 0,
    {eta + eta^dagger, gamma3} = 0, and Hermiticity of every Sigma_i and of
    Gamma.  Deviations are in the units of eta, whose table is sqrt(2)*eta.
    """
    n = _sqrt2_eta(rep)
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
    deviations as they are.  Both run on the tables in Python numbers;
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
    dev_energy = _square_deviation(_sqrt2_eta(rep), [(e, m)])
    return AlgebraReport(
        (
            _check("momentum_square_is_p2_identity", dev_momentum, _SQUARED_OPERATOR_TOL),
            _check("energy_mass_square_is_2Em_identity", dev_energy, _SQUARED_OPERATOR_TOL),
        )
    )
