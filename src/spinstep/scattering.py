"""Spin-resolved scattering of an electron off a 1D potential step.

The step V(z) = 0 for z < 0, V0 for z > 0 is solved with 4-component
plane-wave modes for an incident spin-up (default) or spin-down electron, in
both energy regimes:

* propagating (E > V0): oscillating transmitted wave with momentum
  p2 = sqrt(2*(E - V0)*m); spin-resolved transmission and reflection
  probabilities T1, T2, R1, R2 summing to 1, whose spin sums reproduce the
  textbook spinless coefficients and are independent of the mass.
* evanescent (E <= V0): transmitted amplitude decays as exp(-p2'*z) with
  p2' = sqrt(2*m*(V0 - E)), carries exactly zero probability current, and the
  reflection probabilities reduce to R1' = (E-m)^2/(E+m)^2 and
  R2' = 4*E*m/(E+m)^2, independent of the barrier height.

Amplitudes come from closed forms factored over k1 = sqrt(E) and
k2 = sqrt(E - V0) (k2 = i*sqrt(V0 - E) below the step), written once per
branch in real arithmetic, on Python floats.  The factored forms subtract
no nearly equal numbers, so every amplitude is accurate to a few ulps over
the whole domain, on the mass pole V0 - E = m too, and for arbitrarily
small V0/E.  c and c' are the upper components of psi_II(0) in both
branches.  A Gaussian elimination
of the wavefunction continuity condition at z = 0, on one pole-free mode basis,
is kept as the independent oracle the tests compare against, and
continuity_residual measures any amplitudes against the same basis.  The
spinor formulas of that basis, the closed-form eigenstates of the momentum
operator, are written once, in _eigen_spinors, which algebra and
eigensystem read too.  Probability currents come from their closed forms.
That the closed forms solve the continuity condition, sum to 1, reduce to
the spinless T and R, and that each current equals the bilinear u^dagger
(eta + eta^dagger) u of its mode, is proven exactly, on symbols, in
tests/test_symbolic_identities.py.

An AmplitudeSet carries the StepProblem it was computed for, whose E > V0
is its branch; coefficients and currents refuse amplitudes of any other
problem.  coefficients returns one fixed-field row per branch,
PropagatingRow or EvanescentRow: the type, and the values, of the sweep
row at that energy.  A row type is a NamedTuple built from its FIELDS
table, which lists its fields once, for every output.  _rows, the grid
kernel of every sweep, evaluates each point for spin-up incidence in one
inline loop body per branch, a copy of _amplitudes' and _curves'
expressions, and sends a point that fails its checks through _amplitudes
and _curves themselves, so a sweep row is its spin-up point query's row
bit for bit; spin-down incidence is a point query only.  Unitarity is
worded once, in _curves; StepProblem validates in its constructor,
_replace included.

The one kind of domain refusal is PrecisionError, a ValueError subclass
worded in one place: valid inputs whose result underflows or overflows
(algebra and eigensystem raise it too).  The threshold E = V0 is no
refusal: it takes the evanescent branch, where nothing divides by
V0 - E.  An input that is not positive and finite is a plain ValueError,
from the one check every module's entry points call, _positive_finite.

Nothing here imports numpy: StepProblem, both amplitude routes,
coefficients, currents, continuity_residual and every sweep run on Python
numbers.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from functools import reduce
from operator import add
from typing import NamedTuple

__all__ = [
    "ELECTRON_MASS_EV",
    "Spin",
    "PrecisionError",
    "StepProblem",
    "AmplitudeSet",
    "PropagatingRow",
    "EvanescentRow",
    "CurrentDensities",
    "solve_amplitudes_linear",
    "closed_form_amplitudes",
    "coefficients",
    "currents",
    "continuity_residual",
]

# Bound on the relative backward error |Mx - b| / (|M| |x| + |b|), infinity
# norms, of the z = 0 continuity solve M x = b.
CONTINUITY_TOL = 1e-11

COEFFICIENT_SUM_TOL = 1e-12
CLAMP_EPS = 1e-12

ELECTRON_MASS_EV = 510998.95
_SQRT2 = math.sqrt(2.0)
_MAX = sys.float_info.max  # 0.0 < x <= _MAX refuses nan, inf and ints beyond it


def _positive_finite(name: str, value):
    """value if 0.0 < value <= _MAX, else a ValueError naming it.  Callers
    check before any float() or frexp, which raise OverflowError on an int
    beyond the double range."""
    if not 0.0 < value <= _MAX:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


class Spin(Enum):
    UP = "up"
    DOWN = "down"


# Never raised, and not exported: perfbench reads them until ROADMAP item 8a
class ThresholdDegeneracyError(ValueError):
    pass


class MassPoleError(ValueError):
    pass


class PrecisionError(ValueError):
    """Valid inputs, named in eV in the message with what failed, whose result
    double precision cannot resolve: a value underflows to 0 or overflows."""

    def __init__(self, what: str, **inputs):
        values = ", ".join(f"{name} = {value!r}" for name, value in inputs.items())
        super().__init__(f"{values} eV are beyond what double precision resolves: {what}")


class _StepFields(NamedTuple):
    energy: float
    v0: float
    mass: float = ELECTRON_MASS_EV
    incident_spin: Spin = Spin.UP


class StepProblem(_StepFields):
    """Physical configuration of one step-scattering computation.

    The constructor, which _replace and _make call too, refuses an energy,
    v0 or mass that is not positive and finite and an incident_spin that is
    not a Spin; it binds the fields once, energy, v0 and mass as Python
    floats.  Every such E is accepted, E = V0 included."""

    __slots__ = ()

    def __new__(cls, energy, v0, mass=ELECTRON_MASS_EV, incident_spin=Spin.UP):
        if not (0.0 < energy <= _MAX and 0.0 < v0 <= _MAX and 0.0 < mass <= _MAX):
            for name, value in (("energy", energy), ("v0", v0), ("mass", mass)):
                _positive_finite(name, value)
        energy, v0, mass = float(energy), float(v0), float(mass)
        if not isinstance(incident_spin, Spin):
            raise ValueError(f"incident_spin must be a Spin, got {incident_spin!r}")
        return tuple.__new__(cls, (energy, v0, mass, incident_spin))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class AmplitudeSet(NamedTuple):
    """Mode amplitudes relative to a unit incident amplitude, of `problem`.

    problem is the StepProblem the amplitudes were computed for, whose
    E > V0 is their branch; coefficients and currents refuse them for any
    other problem (an equal StepProblem is the same problem).  b and b_prime
    multiply the spin-up and spin-down reflected modes; c and c_prime are
    the upper components of psi_II(0), the region-II wave at the step (the
    transmitted plane-wave amplitudes when propagating).  For spin-up
    incidence, b preserves the spin and b_prime flips it.
    """

    problem: StepProblem
    b: complex
    b_prime: complex
    c: complex
    c_prime: complex


def _eigen_spinors(energy, mass: float, momentum) -> tuple:
    """The closed-form eigenstates u^(1)..u^(4) of the momentum operator in
    REP1 (see eigensystem.analytic_eigenstate), at p = momentum, each a tuple
    of its four components, Python numbers."""
    a = 1.0 / (energy + mass)
    e_minus_m = energy - mass
    # not -plus_i: CPython's complex products give its zeros another sign
    plus_i = 1j * a * e_minus_m
    minus_i = -1j * a * e_minus_m
    ap = _SQRT2 * a * momentum
    return (
        (1.0, 0.0, plus_i, -ap),
        (0.0, 1.0, ap, minus_i),
        (1.0, 0.0, plus_i, ap),
        (0.0, 1.0, -ap, minus_i),
    )


def _continuity_matrix(problem: StepProblem):
    """Rows and right-hand side of the z = 0 continuity system, the one mode
    basis of the step, as lists of Python numbers (assembled once per point).

    The columns are the reflected modes u^(3), u^(4) at E, whose
    coefficients are b and b', then two region-II columns, negated.  Above
    the step these are the transmitted modes u^(1), u^(2) at E - V0, whose
    coefficients are c and c'.  Below it a decaying mode normalized to the
    upper components [1, 0] or [0, 1] diverges at V0 - E = m, so the
    decaying space is spanned instead by the pole-free pair
    (s = sqrt(V0 - E), r = sqrt(m))

        v1 = [s+r, s+r, i(s-r), -i(s-r)],  v2 = [s-r, r-s, i(s+r), i(s+r)].

    In both branches the two region-II columns are orthogonal and of equal
    norm, sqrt(2) above the step and 2 sqrt(s^2 + r^2) below it, for every
    V0 - E and m (tests/test_symbolic_identities.py).  The mode
    components come from _eigen_spinors, where their formulas are written,
    built once at E and, above the step, once at E - V0.  The right-hand
    side is minus the incident mode.
    """
    e, v0, m, spin = problem
    u1, u2, r_up, r_down = _eigen_spinors(e, m, math.sqrt(2.0 * e * m))
    incident = u1 if spin is Spin.UP else u2
    if e > v0:
        v1, v2, _, _ = _eigen_spinors(e - v0, m, math.sqrt(2.0 * (e - v0) * m))
    else:
        s = math.sqrt(v0 - e)
        r = math.sqrt(m)
        v1 = (s + r, s + r, 1j * (s - r), -1j * (s - r))
        v2 = (s - r, r - s, 1j * (s + r), 1j * (s + r))
    return [(a, b, -c, -d) for a, b, c, d in zip(r_up, r_down, v1, v2)], [-z for z in incident]


def _parts(vector) -> list:
    """The real and imaginary parts of a vector of Python numbers, in order."""
    return [x for z in vector for x in (z.real, z.imag)]


def _not_finite(problem: StepProblem) -> PrecisionError:
    """The refusal of a continuity system with an entry that is not finite."""
    e, v0, m, _ = problem
    return PrecisionError("the continuity system is not finite", E=e, V0=v0, m=m)


def _solve_continuity(rows, rhs) -> list:
    """x with rows x = rhs for identity-led rows, as solve_amplitudes_linear describes."""
    (_, _, a2, a3), (_, _, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
    y0, y1, y2, y3 = rhs
    c2, c3, y2 = c2 - c0 * a2 - c1 * b2, c3 - c0 * a3 - c1 * b3, y2 - c0 * y0 - c1 * y1
    d2, d3, y3 = d2 - d0 * a2 - d1 * b2, d3 - d0 * a3 - d1 * b3, y3 - d0 * y0 - d1 * y1
    if abs(d2) > abs(c2):
        c2, c3, y2, d2, d3, y3 = d2, d3, y3, c2, c3, y2
    ld = d2 / c2
    x3 = (y3 - ld * y2) / (d3 - ld * c3)
    x2 = (y2 - c3 * x3) / c2
    return [y0 - a2 * x2 - a3 * x3, y1 - b2 * x2 - b3 * x3, x2, x3]


def solve_amplitudes_linear(problem: StepProblem) -> AmplitudeSet:
    """Amplitudes from a Gaussian elimination, in Python numbers, of the
    continuity condition psi_I(0) + psi_I_reflected(0) = psi_II(0).

    This is the independent oracle for closed_form_amplitudes: it matches the
    boundary modes of _continuity_matrix numerically instead of evaluating a
    formula.  Rows 0 and 1 are (1, 0, ., .) and (0, 1, ., .): the reflected
    modes' upper components are 1 and 0, and their lower ones, +-i a(E-m) and
    +-sqrt(2) a p with a = 1/(E+m), have modulus <= 1, so partial pivoting
    would pivot on them (Higham, ch. 9).  The elimination is therefore the
    Schur complement of that identity block, which never multiplies by its
    exact 1s and 0s, then the trailing 2x2 pivoted by modulus; a zero pivot
    raises PrecisionError.  c and c' are the upper components of psi_II(0):
    the region-II terms of the first two rows, with the columns' sign undone
    (c = alpha(s+r) + beta(s-r) and c' = alpha(s+r) - beta(s-r) on the
    pole-free basis).  The solution is rejected if its relative backward
    error |Mx - b| / (|M| |x| + |b|), infinity norms on the full M (Higham,
    ch. 7), exceeds CONTINUITY_TOL: with a RuntimeError, or a PrecisionError
    if it is nan, which an entry of M that overflows leaves.  In the spin
    channel with no incident wave, whose right-hand side is -0.0, b' == c'
    (spin-up incidence) or b == c (spin-down) holds exactly: both are one
    rounded sum, negated.  The returned set carries problem.  Its accuracy
    is backward, not relative: small amplitudes (V0 << E, or E, V0 and m
    decades apart) can carry large relative errors, and M, well conditioned
    through V0 - E = m, reaches an infinity-norm condition number of 9.8e14
    where E/m is extreme (E = 1.66e-6, V0 = 2.61e-6, m = 7.9e11 eV: 8.7e-9
    from a 50-digit solve).
    """
    e, v0, m, _ = problem
    rows, rhs = _continuity_matrix(problem)
    try:
        x0, x1, x2, x3 = _solve_continuity(rows, rhs)
    except ZeroDivisionError:
        raise PrecisionError("a pivot of the continuity solve is 0", E=e, V0=v0, m=m) from None
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
    y0, y1, y2, y3 = rhs
    scale = max(
        abs(a0) + abs(a1) + abs(a2) + abs(a3), abs(b0) + abs(b1) + abs(b2) + abs(b3),
        abs(c0) + abs(c1) + abs(c2) + abs(c3), abs(d0) + abs(d1) + abs(d2) + abs(d3),
    ) * max(abs(x0), abs(x1), abs(x2), abs(x3)) + max(abs(y0), abs(y1), abs(y2), abs(y3))
    backward_error = max(
        abs(a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3 - y0),
        abs(b0 * x0 + b1 * x1 + b2 * x2 + b3 * x3 - y1),
        abs(c0 * x0 + c1 * x1 + c2 * x2 + c3 * x3 - y2),
        abs(d0 * x0 + d1 * x1 + d2 * x2 + d3 * x3 - y3),
    ) / scale
    if not backward_error <= CONTINUITY_TOL:
        if backward_error != backward_error:  # nan: an entry of the system overflows
            raise _not_finite(problem)
        raise RuntimeError(
            f"continuity backward error {backward_error:.3e} exceeds "
            f"{CONTINUITY_TOL:g} after linear solve"
        )
    c, c_prime = -(a2 * x2 + a3 * x3), -(b2 * x2 + b3 * x3)
    return tuple.__new__(AmplitudeSet, (problem, x0, x1, c, c_prime))


def _amplitudes(propagating: bool, energy, v0, mass, spin: Spin, sqrt):
    """Closed-form amplitudes (b, b', c, c') as (real, imaginary) pairs, on
    the branch propagating = E > V0, which the caller decides.

    energy is a float, with sqrt = math.sqrt; the sympy proofs of
    tests/test_symbolic_identities.py pass symbols and sympy's sqrt.  _rows
    copies these expressions inline.  For spin-up incidence, with
    k1 = sqrt(E): above the step, with k2 = sqrt(E - V0),

        b = (m - E) V0 / ((E+m)(k1+k2)^2)
        b' = c' = i 2 sqrt(E m) V0 / ((E+m)(k1+k2)^2)
        c = 2 k1 (m + k1 k2) / ((E+m)(k1+k2));

    below it, with s = sqrt(V0 - E), so that k2 = i s and |k1 + i s|^2 = V0,

        b = (m - E) [(2E - V0) - 2i k1 s] / ((E+m) V0)
        b' = c' = 2 sqrt(E m) [2 k1 s + i (2E - V0)] / ((E+m) V0)
        c = 2 k1 [k1 (m + V0 - E) + i s (E - m)] / ((E+m) V0).

    Spin-down incidence relabels (b, b', c, c') as (b', b, c', c).  c and
    c' are the upper components of psi_II(0).  Inputs so small that a
    denominator underflows to 0 are refused with PrecisionError.
    """
    k1 = sqrt(energy)
    try:
        if propagating:
            k2 = sqrt(energy - v0)
            k_sum = k1 + k2
            denom = (energy + mass) * (k_sum * k_sum)
            b = ((mass - energy) * v0 / denom, 0.0)
            b_prime = (0.0, 2.0 * sqrt(energy * mass) * v0 / denom)
            c = (2.0 * k1 * (mass + k1 * k2) / ((energy + mass) * k_sum), 0.0)
        else:
            gap = v0 - energy
            scale = (energy + mass) * v0
            re_sq = 2.0 * energy - v0  # (k1 + k2)^2 = re_sq + i im_sq
            im_sq = 2.0 * sqrt(energy * gap)
            keep = (mass - energy) / scale
            flip = 2.0 * sqrt(energy * mass) / scale
            b = (keep * re_sq, -keep * im_sq)
            b_prime = (flip * im_sq, flip * re_sq)
            c = (2.0 * energy * ((mass + gap) / scale), im_sq * (energy - mass) / scale)
    except ZeroDivisionError:
        raise PrecisionError("a denominator underflows to 0", E=energy, V0=v0, m=mass) from None
    if spin is Spin.UP:
        return b, b_prime, c, b_prime
    return b_prime, b, b_prime, c


def closed_form_amplitudes(problem: StepProblem) -> AmplitudeSet:
    """Amplitudes from the factored closed forms of _amplitudes.

    This is the primary route, for either incident spin: accurate to a few
    ulps relative over the whole domain, with solve_amplitudes_linear as its
    oracle.  A sweep's grid kernel evaluates the same expressions, so a
    point and its sweep row agree bit for bit.  c and c' are
    the upper components of psi_II(0).
    """
    energy, v0, mass, spin = problem
    (b, b_im), (b_prime, b_prime_im), (c, c_im), (c_prime, c_prime_im) = _amplitudes(
        energy > v0, energy, v0, mass, spin, math.sqrt
    )
    return tuple.__new__(AmplitudeSet, (
        problem, complex(b, b_im), complex(b_prime, b_prime_im), complex(c, c_im),
        complex(c_prime, c_prime_im),
    ))


def _abs2(re, im):
    """|z|^2 of z = re + i*im, floats or symbols."""
    return re * re + im * im


# The grid columns that lead every row; the columns after them are curves.
_GRID_FIELDS = (("e_ev", "E_eV", None), ("e_over_v0", "E_over_V0", None))


class _RenderedOnce:
    """A row's CSV text: rendered by its %-template on first lookup, into the
    instance dict, where every later lookup finds it first (no lock)."""

    def __get__(self, row, owner=None):
        if row is None:
            return self
        text = row.__dict__["_csv_text"] = row._CSV_LINE % row
        return text


def _row_type(name: str, doc: str, curve_fields: tuple) -> type:
    """A row type: a NamedTuple of one float field per entry of its FIELDS
    table, _GRID_FIELDS + curve_fields, of (attribute, CSV header, SVG
    colour or None) in emission order.  Every other list of a row's columns
    derives from the table.  Rows keep an instance dict for the CSV text
    that sweep_io.emit_csv and emit_json share."""
    fields = _GRID_FIELDS + curve_fields
    keys = tuple("sum" if attr == "total" else attr for attr, _, _ in fields)
    grid = len(_GRID_FIELDS)

    class Row(NamedTuple(name, [(attr, float) for attr, _, _ in fields])):
        __doc__ = doc
        FIELDS = fields
        CSV_HEADER = ",".join(header for _, header, _ in fields)
        _KEYS = keys
        # %.17g renders as sweep_io.format_float does (one CPython routine)
        _CSV_LINE = ",".join(["%.17g"] * len(fields))
        _JSON_LINE = "  {" + ", ".join(f'"{key}": %s' for key in keys) + "}"
        # curve column name -> (position in the row, SVG colour or None)
        CURVES = {keys[i]: (i, fields[i][2]) for i in range(grid, len(fields))}
        _csv_text = _RenderedOnce()

        def to_json_dict(self) -> dict:
            return dict(zip(self._KEYS, self))

    Row.__name__ = Row.__qualname__ = name
    return Row


PropagatingRow = _row_type(
    "PropagatingRow",
    """Coefficients above the step: t1/t2 (transmitted spin up/down) and
    r1/r2 (reflected spin up/down) with t1+t2+r1+r2 = 1, and the spinless
    t_qm, r_qm their spin sums reproduce.""",
    (
        ("t1", "T1", "red"),
        ("t2", "T2", "blue"),
        ("r1", "R1", "red"),
        ("r2", "R2", "blue"),
        ("total", "sum", None),
        ("t_qm", "T_QM", None),
        ("r_qm", "R_QM", None),
    ),
)

EvanescentRow = _row_type(
    "EvanescentRow",
    """Coefficients below the step: r1_prime/r2_prime (reflected spin
    up/down) with r1_prime + r2_prime = 1 and no transmission.""",
    (
        ("r1_prime", "R1_prime", "red"),
        ("r2_prime", "R2_prime", "blue"),
        ("total", "sum", None),
    ),
)


def _curves(propagating: bool, energy: float, v0: float, mass: float, abs2) -> list:
    """The curve columns of the branch's row, in FIELDS order, from abs2 =
    (|b|^2, |b'|^2, |c|^2, |c'|^2), floats: the probabilities, their sum,
    the row's `total`, and, above the step, the spinless T and R.  Above
    the step k1 = sqrt(E) and k2 = sqrt(E - V0) are taken once, for the flux
    factor and for _spinless.  Each part is |z|^2, or |z|^2 times the flux
    factor, positive above the step, so it is >= 0 or nan.  Unitarity is
    checked here, once per point or refused sweep point: each probability
    at most CLAMP_EPS above 1 before it is clamped onto 1, and their clamped
    sum, added left to right, within COEFFICIENT_SUM_TOL of 1.  A failure
    names its energy, in a PrecisionError if a value is not finite.
    """
    r_up, r_down, t_up, t_down = abs2
    if propagating:
        k1 = math.sqrt(energy)
        k2 = math.sqrt(energy - v0)
        flux = (energy + mass) * k2 / ((energy - v0 + mass) * k1)
        parts = [flux * t_up, flux * t_down, r_up, r_down]
    else:
        parts = [r_up, r_down]
    # min(v, 1.0), without the builtin's call cost
    probs = [1.0 if v > 1.0 else v for v in parts]
    total = reduce(add, probs)
    valid = abs(total - 1.0) <= COEFFICIENT_SUM_TOL
    for value in parts:
        valid = valid and value <= 1.0 + CLAMP_EPS
    if not valid:
        row_type = PropagatingRow if propagating else EvanescentRow
        named = dict(zip(row_type._fields[len(_GRID_FIELDS) :], parts))
        if not all(map(math.isfinite, parts)):  # overflow, not physics
            raise PrecisionError(f"probabilities {named} are not finite", E=energy, V0=v0, m=mass)
        raise ValueError(
            f"probabilities {named} at E = {energy!r} eV violate unitarity: the sum must be "
            f"within {COEFFICIENT_SUM_TOL:g} of 1 and each within {CLAMP_EPS:g} of [0, 1]"
        )
    if propagating:
        return [*probs, total, *_spinless(k1, k2, v0)]
    return [*probs, total]


def coefficients(problem: StepProblem, amps: AmplitudeSet) -> PropagatingRow | EvanescentRow:
    """Probabilities from amplitudes, as the branch's row: the type, and
    field for field the values, of the sweep row at this energy, with
    e_over_v0 = E/V0.  Amplitudes of any problem but this one (or an equal
    one) are refused with a ValueError.

    Propagating transmission carries the flux factor
    (E+m)*sqrt(E-V0) / ((E-V0+m)*sqrt(E)) relating region-II to region-I
    current per unit amplitude.  _curves asserts the range before the
    values are clamped onto 1, and the unit sum of the clamped values,
    the row's total; a genuine violation raises ValueError, and an E/V0
    beyond the double range PrecisionError.
    """
    e, v0, mass, _ = problem
    source, b, b_prime, c, c_prime = amps
    if source is not problem and source != problem:
        raise ValueError("amplitude set was produced for a different problem")
    propagating = e > v0
    abs2 = [
        _abs2(b.real, b.imag), _abs2(b_prime.real, b_prime.imag),
        _abs2(c.real, c.imag), _abs2(c_prime.real, c_prime.imag),
    ]
    curves = _curves(propagating, e, v0, mass, abs2)
    e_over_v0 = e / v0
    if e_over_v0 == math.inf:
        raise PrecisionError("E/V0 overflows", E=e, V0=v0)
    row_type = PropagatingRow if propagating else EvanescentRow
    return tuple.__new__(row_type, (e, e_over_v0, *curves))


def _rows(grid: list, v0: float, mass: float) -> tuple:
    """The spin-up rows of a grid of E/V0 values, Python floats: each
    E = x*V0, split by E > V0, gives its point query's row bit for bit, but
    for e_over_v0, the grid value, or the sweep refuses as the point query
    at its first failing energy does.

    Each branch's loop body copies the expressions of _amplitudes and
    _curves for that branch, in their operations and order, but for the
    zero parts and the sign of b's imaginary part, which leave |b|^2,
    |b'|^2 and |c|^2 as they are.  Every probability it forms is >= 0 or
    nan, so a point whose probabilities are all <= 1 and whose sum is
    within COEFFICIENT_SUM_TOL of 1 is the row _curves returns, unclamped.
    Any other point, and one that divides by zero, runs through _amplitudes
    and _curves themselves, which clamp it or word its refusal: a check
    stricter than _curves' only sends more points there.
    test_sweep_rows_equal_point_queries, test_sweep_returns_or_refuses_as_
    its_point_queries and test_figure_sweeps_never_leave_the_inline_loop
    hold the copy bit-equal to the point route.
    """
    rows = []
    append, new, sqrt, tol = rows.append, tuple.__new__, math.sqrt, COEFFICIENT_SUM_TOL
    for x in grid:
        e = x * v0
        if not 0.0 < e <= _MAX:  # a log-grid point past the largest double is inf
            _positive_finite("energy", e)
        propagating = e > v0
        e_m = e + mass
        try:
            if propagating:
                k1 = sqrt(e)
                k2 = sqrt(e - v0)
                k_sum = k1 + k2
                k_sum2 = k_sum * k_sum
                denom = e_m * k_sum2
                b = (mass - e) * v0 / denom
                b_flip = 2.0 * sqrt(e * mass) * v0 / denom  # b' = c' = i b_flip
                c = 2.0 * k1 * (mass + k1 * k2) / (e_m * k_sum)
                flux = e_m * k2 / ((e - v0 + mass) * k1)
                r1, r2 = b * b, b_flip * b_flip
                t1, t2 = flux * (c * c), flux * r2
                total = t1 + t2 + r1 + r2
                if t1 <= 1.0 and t2 <= 1.0 and r1 <= 1.0 and r2 <= 1.0 and abs(total - 1.0) <= tol:
                    ratio = v0 / k_sum2
                    append(new(PropagatingRow, (
                        e, x, t1, t2, r1, r2, total, 4.0 * k1 * k2 / k_sum2, ratio * ratio
                    )))
                    continue
            else:
                scale = e_m * v0
                re_sq = 2.0 * e - v0
                im_sq = 2.0 * sqrt(e * (v0 - e))
                keep = (mass - e) / scale
                flip = 2.0 * sqrt(e * mass) / scale
                b_re, b_im, f_re, f_im = keep * re_sq, keep * im_sq, flip * im_sq, flip * re_sq
                r1, r2 = b_re * b_re + b_im * b_im, f_re * f_re + f_im * f_im
                total = r1 + r2
                if r1 <= 1.0 and r2 <= 1.0 and abs(total - 1.0) <= tol:
                    append(new(EvanescentRow, (e, x, r1, r2, total)))
                    continue
        except ZeroDivisionError:
            pass
        # to clamp or to refuse, as its point query does
        amps = _amplitudes(propagating, e, v0, mass, Spin.UP, sqrt)
        curves = _curves(propagating, e, v0, mass, [_abs2(*a) for a in amps])
        append(new(PropagatingRow if propagating else EvanescentRow, (e, x, *curves)))
    return tuple(rows)


def _spinless(k1, k2, v0):
    """The spinless step coefficients (T, R) above the step, the t_qm and
    r_qm columns of a propagating row, from k1 = sqrt(E) and k2 = sqrt(E-V0),
    floats or symbols.

    T = 4*k1*k2/(k1+k2)^2 and R = ((k1-k2)/(k1+k2))^2, evaluated as
    (V0/(k1+k2)^2)^2 so that no nearly equal numbers are subtracted as
    V0/E -> 0.  The spin sums of the 4-component solution reproduce these
    values, independent of the mass.
    """
    k_sum2 = (k1 + k2) * (k1 + k2)
    ratio = v0 / k_sum2
    return 4.0 * k1 * k2 / k_sum2, ratio * ratio


class CurrentDensities(NamedTuple):
    """Signed probability currents of the five boundary modes.

    j_inc > 0; reflected currents are <= 0; transmitted currents are >= 0
    when propagating and exactly 0 in the evanescent branch.
    """

    j_inc: float
    j_refl_up: float
    j_refl_down: float
    j_trans_up: float
    j_trans_down: float

    @property
    def conservation_sum(self) -> float:
        """(|J_r_up| + |J_t_up| + |J_r_down| + |J_t_down|) / |J_inc|."""
        return (
            abs(self.j_refl_up)
            + abs(self.j_trans_up)
            + abs(self.j_refl_down)
            + abs(self.j_trans_down)
        ) / abs(self.j_inc)

    def to_json_dict(self) -> dict:
        return self._asdict()


def currents(problem: StepProblem, amps: AmplitudeSet) -> CurrentDensities:
    """Currents of the five boundary modes, scaled by their amplitudes.

    Closed forms of the bilinears u^dagger (eta+eta^dagger) u:
    j_inc = 4*p1/(E+m), reflected -j_inc*|b|^2 and -j_inc*|b'|^2,
    transmitted 4*p2*|c|^2/(E+m-V0) when propagating and exactly 0 in the
    evanescent branch, with p1 = sqrt(2 E m) and p2 = sqrt(2 (E - V0) m).
    Amplitudes of any problem but this one (or an equal one) are refused
    with a ValueError; a current that overflows, or that an overflowing
    amplitude leaves undefined, raises PrecisionError.
    """
    e, v0, m, _ = problem
    source, b, b_prime, c, c_prime = amps
    if source is not problem and source != problem:
        raise ValueError("amplitude set was produced for a different problem")
    propagating = e > v0
    j_inc = 4.0 * math.sqrt(2.0 * e * m) / (e + m)
    j_trans_up = j_trans_down = 0.0
    if propagating:
        per_amplitude = 4.0 * math.sqrt(2.0 * (e - v0) * m) / (e + m - v0)
        j_trans_up = per_amplitude * _abs2(c.real, c.imag)
        j_trans_down = per_amplitude * _abs2(c_prime.real, c_prime.imag)
    j_refl_up = -j_inc * _abs2(b.real, b.imag)
    j_refl_down = -j_inc * _abs2(b_prime.real, b_prime.imag)
    if not math.isfinite(j_inc + j_refl_up + j_refl_down + j_trans_up + j_trans_down):
        raise PrecisionError("a current is not finite", E=e, V0=v0, m=m)
    return tuple.__new__(
        CurrentDensities, (j_inc, j_refl_up, j_refl_down, j_trans_up, j_trans_down)
    )


def continuity_residual(problem: StepProblem, amps: AmplitudeSet) -> float:
    """Continuity mismatch of amps at z = 0, on the basis of the oracle.

    It measures any amplitudes against problem, whatever problem amps
    carries (zero amplitudes, say).  With left = psi_I(0), the incident mode plus b and b' times the
    reflected modes, this is the larger of the distance of left from the
    span of the region-II columns and |left[:2] - (c, c')|, since c and c'
    are the upper components of psi_II(0), both 2-norms.  The columns are
    orthogonal (_continuity_matrix), so the projection removes each one
    once, normalized by math.hypot, in Python numbers: no factorization and
    no squared norm to overflow.  Nothing divides by V0 - E - m, so the
    residual stays at the rounding level through the mass pole.  Zero
    amplitudes give 1, non-finite ones nan or inf; a system with an entry
    that is not finite raises PrecisionError.
    """
    rows, rhs = _continuity_matrix(problem)
    if not all(map(math.isfinite, _parts(z for row in rows for z in row))):
        raise _not_finite(problem)
    b, b_prime = amps.b, amps.b_prime
    left = [up * b + down * b_prime - y for (up, down, _, _), y in zip(rows, rhs)]
    off_span = left
    for column in list(zip(*rows))[2:]:
        norm = math.hypot(*_parts(column))
        unit = [z / norm for z in column]
        overlap = reduce(add, [q.conjugate() * w for q, w in zip(unit, off_span)])
        off_span = [w - q * overlap for q, w in zip(unit, off_span)]
    upper = (left[0] - amps.c, left[1] - amps.c_prime)
    # upper first: a non-finite amplitude leaves it nan or inf, which max keeps
    return max(math.hypot(*_parts(upper)), math.hypot(*_parts(off_span)))
