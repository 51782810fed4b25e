"""Spin-resolved scattering of an electron off a 1D potential step.

The step V(z) = 0 for z < 0, V0 for z > 0 is solved with 4-component
plane-wave modes for an incident spin-up (default) or spin-down electron, in
both energy regimes:

* propagating (E > V0): oscillating transmitted wave with momentum
  p2 = sqrt(2*(E - V0)*m); spin-resolved transmission and reflection
  probabilities T1, T2, R1, R2 summing to 1, whose spin sums reproduce the
  textbook spinless coefficients and are independent of the mass.
* evanescent (E < V0): transmitted amplitude decays as exp(-p2'*z) with
  p2' = sqrt(2*m*(V0 - E)), carries exactly zero probability current, and the
  reflection probabilities reduce to R1' = (E-m)^2/(E+m)^2 and
  R2' = 4*E*m/(E+m)^2, independent of the barrier height.

Amplitudes come from closed forms factored over k1 = sqrt(E) and
k2 = sqrt(E - V0) (k2 = i*sqrt(V0 - E) below the step), written once per
branch in real arithmetic: the same expressions run on Python floats for a
point and on numpy arrays for a sweep grid, and give the same bits.  The
factored forms subtract no nearly equal numbers, so every amplitude is
accurate to a few ulps over the whole domain, through the mass pole
V0 - E = m and for arbitrarily small V0/E.  c and c' are the upper
components of psi_II(0) in both branches.  An LU solve (LAPACK, via numpy)
of the wavefunction continuity condition at z = 0, on one pole-free mode
basis, is kept as the independent oracle the tests compare against, and
continuity_residual measures any amplitudes against the same basis.
Probability currents come from their closed forms; the bilinears
u^dagger (eta + eta^dagger) u they equal are checked in the tests.

coefficients returns one fixed-field row per branch, PropagatingRow or
EvanescentRow: the type, and the values, of the sweep row at that energy.
A row type is a NamedTuple built from its FIELDS table, which lists its
fields once, for every output.  Unitarity is checked once, in
_probabilities; StepProblem validates in its constructor, _replace included.

numpy is imported only by the verification code (the mode basis, the
continuity oracle and residual, and the current bilinears), so that
StepProblem, closed_form_amplitudes, coefficients, currents and
qm_reference run without it.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "THRESHOLD_EPS",
    "MASS_POLE_EPS",
    "CONTINUITY_TOL",
    "COEFFICIENT_SUM_TOL",
    "CLAMP_EPS",
    "Branch",
    "ThresholdDegeneracyError",
    "MassPoleError",
    "StepProblem",
    "AmplitudeSet",
    "PropagatingRow",
    "EvanescentRow",
    "CurrentDensities",
    "probability_current",
    "solve_amplitudes_linear",
    "closed_form_amplitudes",
    "coefficients",
    "qm_reference",
    "currents",
    "continuity_residual",
]

# Inputs with |E - V0| <= THRESHOLD_EPS * V0 are rejected: the transmitted
# momentum vanishes and both regimes' formulas are singular there.
THRESHOLD_EPS = 1e-9

# Evanescent inputs with |V0 - E - m| <= MASS_POLE_EPS * m are rejected: a
# decaying spinor normalized to unit upper components has a pole there.  The
# closed forms and the pole-free oracle are regular there but refuse the
# same band, so that every route accepts one domain.
MASS_POLE_EPS = 1e-12

# Bound on the relative backward error |Mx - b| / (|M| |x| + |b|), infinity
# norms, of the z = 0 continuity solve M x = b.
CONTINUITY_TOL = 1e-11

COEFFICIENT_SUM_TOL = 1e-12
CLAMP_EPS = 1e-12

ELECTRON_MASS_EV = 510998.95


class Spin(Enum):
    UP = "up"
    DOWN = "down"


class Branch(Enum):
    PROPAGATING = "propagating"  # E > V0
    EVANESCENT = "evanescent"  # E < V0


class ThresholdDegeneracyError(ValueError):
    """E is too close to V0: the transmitted momentum degenerates to zero."""


class MassPoleError(ValueError):
    """Evanescent configuration sits on the transmitted-spinor pole V0 - E = m."""


def _check_mass_pole(gap: float, mass: float):
    """Refuse an evanescent gap V0 - E on the pole V0 - E = m."""
    if abs(gap - mass) <= MASS_POLE_EPS * mass:
        raise MassPoleError(
            f"V0 - E = {gap} sits on the transmitted-spinor pole at the mass m = {mass}"
        )


class _StepFields(NamedTuple):
    energy: float
    v0: float
    mass: float = ELECTRON_MASS_EV
    incident_spin: Spin = Spin.UP


class StepProblem(_StepFields):
    """Physical configuration of one step-scattering computation.

    The constructor, which _replace and _make call too, refuses an energy,
    v0 or mass that is not positive and finite, an incident_spin that is not
    a Spin, and E within THRESHOLD_EPS*V0 of V0."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("energy", "v0", "mass"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not isinstance(self.incident_spin, Spin):
            raise ValueError(f"incident_spin must be a Spin, got {self.incident_spin!r}")
        if abs(self.energy - self.v0) <= THRESHOLD_EPS * self.v0:
            raise ThresholdDegeneracyError(
                f"E = {self.energy} is within {THRESHOLD_EPS:g}*V0 of the step "
                f"height V0 = {self.v0}; the transmitted momentum degenerates"
            )
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def branch(self) -> Branch:
        return Branch.PROPAGATING if self.energy > self.v0 else Branch.EVANESCENT

    @property
    def incident_momentum(self) -> float:
        return math.sqrt(2.0 * self.energy * self.mass)

    @property
    def transmitted_momentum(self) -> float:
        """Real momentum p2 (propagating) or decay constant p2' (evanescent)."""
        return math.sqrt(2.0 * abs(self.energy - self.v0) * self.mass)


class AmplitudeSet(NamedTuple):
    """Mode amplitudes relative to a unit incident amplitude.

    b and b_prime multiply the spin-up and spin-down reflected modes; c and
    c_prime are the upper components of psi_II(0), the region-II wave at
    the step (the transmitted plane-wave amplitudes when propagating).  For
    the default spin-up incidence, b preserves the spin and b_prime flips it.
    """

    branch: Branch
    b: complex
    b_prime: complex
    c: complex
    c_prime: complex
    incident_spin: Spin = Spin.UP


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

        v1 = [s+r, s+r, i(s-r), -i(s-r)],  v2 = [s-r, r-s, i(s+r), i(s+r)],

    which stay at least 60 degrees apart for every V0 - E and m.  The mode
    components come from eigensystem._eigen_spinor, where their formulas
    are written.  The right-hand side is minus the incident mode.  The
    evanescent mass pole is refused, as on every route.
    """
    from .eigensystem import _eigen_spinor

    e, v0, m = problem.energy, problem.v0, problem.mass
    p1 = problem.incident_momentum
    incident = _eigen_spinor(1 if problem.incident_spin is Spin.UP else 2, e, m, p1)
    r_up, r_down = (_eigen_spinor(kind, e, m, p1) for kind in (3, 4))
    if problem.branch is Branch.PROPAGATING:
        p2 = problem.transmitted_momentum
        v1, v2 = (_eigen_spinor(kind, e - v0, m, p2) for kind in (1, 2))
    else:
        _check_mass_pole(v0 - e, m)
        s = math.sqrt(v0 - e)
        r = math.sqrt(m)
        v1 = (s + r, s + r, 1j * (s - r), -1j * (s - r))
        v2 = (s - r, r - s, 1j * (s + r), 1j * (s + r))
    return [(a, b, -c, -d) for a, b, c, d in zip(r_up, r_down, v1, v2)], [-z for z in incident]


def solve_amplitudes_linear(problem: StepProblem) -> AmplitudeSet:
    """Amplitudes from an LU solve (LAPACK, via numpy) of the continuity
    condition psi_I(0) + psi_I_reflected(0) = psi_II(0).

    This is the independent oracle for closed_form_amplitudes: it matches
    the boundary modes of _continuity_matrix numerically instead of
    evaluating a formula, and its conditioning stays flat through
    V0 - E = m.  The system goes to numpy as one 4x4 array; the solution
    comes back as Python numbers, and the rest is scalar arithmetic.  c and
    c' are the upper components of psi_II(0): the region-II terms of the
    first two rows, with the columns' sign undone (on the pole-free basis,
    c = alpha(s+r) + beta(s-r) and c' = alpha(s+r) - beta(s-r)).  The solution is rejected if its
    relative backward error |Mx - b| / (|M| |x| + |b|), infinity norms
    (Higham, ch. 7), exceeds CONTINUITY_TOL, which would signal a solver
    bug, and so is a propagating solution whose amplitudes differ across the
    step by more than 1e-12 in the spin channel carrying no incident wave
    (b_prime == c_prime for spin-up incidence, b == c for spin-down).  Its
    accuracy is backward, not relative: small amplitudes (V0 << E, or E, V0
    and m decades apart) can carry large relative errors.
    """
    import numpy as np

    rows, rhs = _continuity_matrix(problem)
    x = np.linalg.solve(np.array(rows, dtype=complex), rhs).tolist()
    x0, x1, x2, x3 = x
    residual = max(
        abs(row[0] * x0 + row[1] * x1 + row[2] * x2 + row[3] * x3 - b)
        for row, b in zip(rows, rhs)
    )
    matrix_norm = max(abs(row[0]) + abs(row[1]) + abs(row[2]) + abs(row[3]) for row in rows)
    backward_error = residual / (matrix_norm * max(map(abs, x)) + max(map(abs, rhs)))
    if not backward_error <= CONTINUITY_TOL:
        raise RuntimeError(
            f"continuity backward error {backward_error:.3e} exceeds "
            f"{CONTINUITY_TOL:g} after linear solve"
        )
    c, c_prime = (-(row[2] * x2 + row[3] * x3) for row in rows[:2])
    up = problem.incident_spin is Spin.UP
    mismatch = abs(x1 - c_prime) if up else abs(x0 - c)
    if problem.branch is Branch.PROPAGATING and mismatch > 1e-12:
        relation = "b_prime == c_prime" if up else "b == c"
        raise ValueError(
            f"propagating amplitudes must satisfy {relation}, got difference {mismatch:.3e}"
        )
    return AmplitudeSet(problem.branch, x0, x1, c, c_prime, problem.incident_spin)


def _amplitudes(branch: Branch, energy, v0, mass, spin: Spin, sqrt):
    """Closed-form amplitudes (b, b', c, c') as (real, imaginary) pairs.

    energy is a float, with sqrt = math.sqrt, or an array of energies of one
    branch, with sqrt = numpy.sqrt.  The arithmetic is real, so both give
    the same bits.  For spin-up incidence, with k1 = sqrt(E): above the
    step, with k2 = sqrt(E - V0),

        b = (m - E) V0 / ((E+m)(k1+k2)^2)
        b' = c' = i 2 sqrt(E m) V0 / ((E+m)(k1+k2)^2)
        c = 2 k1 (m + k1 k2) / ((E+m)(k1+k2));

    below it, with s = sqrt(V0 - E), so that k2 = i s and |k1 + i s|^2 = V0,

        b = (m - E) [(2E - V0) - 2i k1 s] / ((E+m) V0)
        b' = c' = 2 sqrt(E m) [2 k1 s + i (2E - V0)] / ((E+m) V0)
        c = 2 k1 [k1 (m + V0 - E) + i s (E - m)] / ((E+m) V0).

    Spin-down incidence relabels (b, b', c, c') as (b', b, c', c).  c and
    c' are the upper components of psi_II(0).  The caller refuses the
    evanescent mass pole.
    """
    k1 = sqrt(energy)
    if branch is Branch.PROPAGATING:
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
        c = (2.0 * energy * (mass + gap) / scale, im_sq * (energy - mass) / scale)
    if spin is Spin.UP:
        return b, b_prime, c, b_prime
    return b_prime, b, b_prime, c


def closed_form_amplitudes(problem: StepProblem) -> AmplitudeSet:
    """Amplitudes from the factored closed forms of _amplitudes.

    This is the primary route, for either incident spin: accurate to a few
    ulps relative over the whole domain, with solve_amplitudes_linear as its
    oracle.  It evaluates on floats the expressions run_sweep evaluates on
    a grid, so a point and its sweep row agree bit for bit.  c and c' are
    the upper components of psi_II(0).  The evanescent mass pole is
    refused, as on every route, and so, with ValueError, are inputs so
    small that a denominator of the closed forms underflows to 0.
    """
    energy, v0, mass, spin = problem
    branch = problem.branch
    if branch is Branch.EVANESCENT:
        _check_mass_pole(v0 - energy, mass)
    try:
        pairs = _amplitudes(branch, energy, v0, mass, spin, math.sqrt)
    except ZeroDivisionError:
        raise ValueError(
            f"E = {energy!r}, V0 = {v0!r}, m = {mass!r} eV are beyond what the closed "
            "forms resolve in double precision: a denominator underflows to 0"
        ) from None
    return AmplitudeSet(branch, *(complex(*pair) for pair in pairs), spin)


def _abs2(re, im):
    """|z|^2 of z = re + i*im, in the same operations for floats and arrays."""
    return re * re + im * im


def _probabilities(branch: Branch, energy, v0, mass, abs2, sqrt) -> dict:
    """The probabilities of coefficients by row field, their sum last as
    `total`, from abs2 = (|b|^2, |b'|^2, |c|^2, |c'|^2).  energy and abs2
    are floats (sqrt = math.sqrt) or arrays (sqrt = numpy.sqrt), as for
    _amplitudes.  Unitarity is checked here, once per point or sweep row:
    each value within CLAMP_EPS of [0, 1] before it is clamped onto [0, 1],
    and their clamped sum, the row's total, within COEFFICIENT_SUM_TOL of 1.
    """
    r_up, r_down, t_up, t_down = abs2
    if branch is Branch.PROPAGATING:
        flux = (energy + mass) * sqrt(energy - v0) / ((energy - v0 + mass) * sqrt(energy))
        parts = {"t1": flux * t_up, "t2": flux * t_down, "r1": r_up, "r2": r_down}
    else:
        parts = {"r1_prime": r_up, "r2_prime": r_down}
    valid = True
    for value in parts.values():
        valid = valid & (value >= -CLAMP_EPS) & (value <= 1.0 + CLAMP_EPS)
    arrays = hasattr(valid, "all")  # numpy arrays (or numpy scalars)
    if arrays:
        probs = {name: v.clip(0.0, 1.0) for name, v in parts.items()}
    else:
        probs = {name: min(max(v, 0.0), 1.0) for name, v in parts.items()}
    probs["total"] = total = reduce(add, probs.values())
    valid = valid & (abs(total - 1.0) <= COEFFICIENT_SUM_TOL)
    if not (valid.all() if arrays else valid):
        at = ""
        if arrays and total.ndim:  # name the first failing grid point, not whole columns
            i = (~valid).argmax()
            parts = {name: float(v[i]) for name, v in parts.items()}
            at = f" at E = {float(energy[i])!r} eV"
        raise ValueError(
            f"probabilities {parts}{at} violate unitarity: the sum must be within "
            f"{COEFFICIENT_SUM_TOL:g} of 1 and each within {CLAMP_EPS:g} of [0, 1]"
        )
    return probs


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
        # SVG column name -> (attribute, colour), for the curve columns
        _CURVES = {
            key: (attr, colour) for key, (attr, _, colour) in zip(keys[grid:], fields[grid:])
        }
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


def _curves(branch: Branch, energy, v0, mass, abs2, sqrt) -> list:
    """The curve columns of the branch's row, in FIELDS order: the
    probabilities, their sum and, above the step, the spinless T and R.
    Arguments as for _probabilities; the same operations on floats and on
    arrays give the same bits."""
    curves = list(_probabilities(branch, energy, v0, mass, abs2, sqrt).values())
    if branch is Branch.PROPAGATING:
        curves += _spinless(energy, v0, sqrt)
    return curves


def coefficients(problem: StepProblem, amps: AmplitudeSet) -> PropagatingRow | EvanescentRow:
    """Probabilities from amplitudes, as the branch's row: the type, and
    field for field the values, of the sweep row at this energy, with
    e_over_v0 = E/V0.

    Propagating transmission carries the flux factor
    (E+m)*sqrt(E-V0) / ((E-V0+m)*sqrt(E)) relating region-II to region-I
    current per unit amplitude.  _probabilities asserts the range before
    the values are clamped onto [0, 1], and the unit sum of the clamped
    values, the row's total; a genuine violation raises.
    """
    if amps.branch is not problem.branch or amps.incident_spin is not problem.incident_spin:
        raise ValueError("amplitude set was produced for a different problem")
    e, v0 = problem.energy, problem.v0
    curves = _curves(
        problem.branch, e, v0, problem.mass,
        [_abs2(z.real, z.imag) for z in (amps.b, amps.b_prime, amps.c, amps.c_prime)],
        math.sqrt,
    )
    row_type = PropagatingRow if problem.branch is Branch.PROPAGATING else EvanescentRow
    return row_type(*map(float, (e, e / v0, *curves)))


def _spinless(energy, v0, sqrt):
    """(T, R) of qm_reference; energy is a float (sqrt = math.sqrt) or an
    array (sqrt = numpy.sqrt)."""
    k1 = sqrt(energy)
    k2 = sqrt(energy - v0)
    k_sum2 = (k1 + k2) * (k1 + k2)
    ratio = v0 / k_sum2
    return 4.0 * k1 * k2 / k_sum2, ratio * ratio


def qm_reference(energy: float, v0: float) -> tuple[float, float]:
    """Spinless step-potential coefficients (T, R) for E > V0 > 0.

    With k1 = sqrt(E) and k2 = sqrt(E-V0), T = 4*k1*k2/(k1+k2)^2 and
    R = ((k1-k2)/(k1+k2))^2, evaluated as (V0/(k1+k2)^2)^2 so that no
    nearly equal numbers are subtracted as V0/E -> 0.  The spin-summed
    coefficients of the 4-component solution reproduce exactly these
    values, independent of the mass.
    """
    if not (math.inf > energy > v0 > 0):
        raise ValueError(f"requires finite E > V0 > 0, got E={energy}, V0={v0}")
    t_qm, r_qm = _spinless(energy, v0, math.sqrt)
    return float(t_qm), float(r_qm)


def probability_current(spinor: np.ndarray) -> float:
    """Probability current u^dagger (eta + eta^dagger) u of a mode, in REP1,
    the representation the mode spinors are written in."""
    import numpy as np

    from .algebra import eta, eta_dagger

    u = np.asarray(spinor, dtype=complex)
    return float(np.vdot(u, (eta() + eta_dagger()) @ u).real)


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
    evanescent branch.
    """
    if amps.branch is not problem.branch or amps.incident_spin is not problem.incident_spin:
        raise ValueError("amplitude set was produced for a different problem")
    e, v0, m = problem.energy, problem.v0, problem.mass
    j_inc = 4.0 * problem.incident_momentum / (e + m)
    j_trans_up = j_trans_down = 0.0
    if problem.branch is Branch.PROPAGATING:
        per_amplitude = 4.0 * problem.transmitted_momentum / (e + m - v0)
        j_trans_up = per_amplitude * _abs2(amps.c.real, amps.c.imag)
        j_trans_down = per_amplitude * _abs2(amps.c_prime.real, amps.c_prime.imag)
    j_refl_up = -j_inc * _abs2(amps.b.real, amps.b.imag)
    j_refl_down = -j_inc * _abs2(amps.b_prime.real, amps.b_prime.imag)
    return CurrentDensities(j_inc, j_refl_up, j_refl_down, j_trans_up, j_trans_down)


def continuity_residual(problem: StepProblem, amps: AmplitudeSet) -> float:
    """Continuity mismatch of amps at z = 0, on the basis of the oracle.

    With left = psi_I(0), the incident mode plus b and b' times the
    reflected modes, this is the larger of the distance of left from the
    span of the region-II columns (by orthogonal projection) and
    |left[:2] - (c, c')|, since c and c' are the upper components of
    psi_II(0).  Nothing divides by V0 - E - m, so the residual stays at the
    rounding level through the mass pole.  Zero amplitudes give 1.
    """
    import numpy as np

    rows, rhs = _continuity_matrix(problem)
    matrix = np.array(rows, dtype=complex)
    left = matrix[:, :2] @ [amps.b, amps.b_prime] - rhs
    q, _ = np.linalg.qr(matrix[:, 2:])
    off_span = left - q @ (q.conj().T @ left)
    upper = left[:2] - [amps.c, amps.c_prime]
    return float(max(np.linalg.norm(off_span), np.linalg.norm(upper)))
