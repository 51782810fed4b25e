"""The paper's 1D identities, proven exactly on symbols.

Every formula is the code's own, evaluated on positive sympy symbols: the
closed-form amplitudes of _amplitudes, the mode spinors of _eigen_spinors,
the spinless T and R of _spinless, the pole-free decaying pair of
_continuity_matrix and the closed-form currents of `currents`; the mode
momenta are the point route's p1 = sqrt(2Em) and p2 = sqrt(2|E-V0|m).
Float literals are made exact by nsimplify.  Each energy is the square of a
symbol, so every square root the code takes is a symbol too and each
identity's residual is a rational function, whose numerator expands to
exactly 0, for both branches and both incident spins, and at the
threshold E = V0, which takes the evanescent branch:

* continuity at z = 0, u_inc + b u3 + b' u4 = c u1(E-V0) + c' u2(E-V0),
  multiplied through by E - V0 + m so that it holds at the mass pole too;
* below the step, psi_I(0) in the span of the oracle's pole-free pair;
* the oracle's two region-II columns are orthogonal and of equal norm, on
  which continuity_residual's projection rests;
* the unit sum of the probabilities, transmission weighted by the ratio of
  the transmitted to the incident mode current;
* T1 + T2 and R1 + R2 equal the textbook spinless 4 k1 k2/(k1+k2)^2 and
  ((k1-k2)/(k1+k2))^2, and so do _spinless's T and R;
* R1' = (E-m)^2/(E+m)^2 for the spin-preserving reflection below the step;
* each current of `currents` equals u^dagger (eta + eta^dagger) u of its
  mode, and the decaying modes carry none.

With E = k1^2 and m = r^2: above the step V0 = E - k2^2, so that
sqrt(E - V0) = k2; below it V0 = E + s^2, so that the mass pole
V0 - E = m is s = r and the threshold is s = 0, where the evanescent
denominator (E+m)V0 does not vanish.
"""

from itertools import combinations
from types import SimpleNamespace

import pytest
import sympy

from spinstep import scattering
from spinstep.algebra import eta, eta_dagger
from spinstep.scattering import (
    AmplitudeSet,
    Spin,
    StepProblem,
    _abs2,
    _amplitudes,
    _continuity_matrix,
    _eigen_spinors,
    _spinless,
    currents,
)

k1, k2, s, r = sympy.symbols("k1 k2 s r", positive=True)
E, m = k1**2, r**2
# each branch's step heights, keyed by E > V0, the flag _amplitudes takes:
# the evanescent branch's at s = 0 is E itself
STEP_HEIGHTS = {True: (E - k2**2,), False: (E + s**2, E)}
BRANCHES = pytest.mark.parametrize("propagating", (True, False), ids=("propagating", "evanescent"))
SPINS = pytest.mark.parametrize("spin", Spin, ids=lambda spin: spin.value)

# eta + eta^dagger in REP1, the representation of the mode spinors
KERNEL = sympy.Matrix(
    4, 4, lambda i, j: sympy.nsimplify(complex((eta() + eta_dagger())[i, j]), [sympy.sqrt(2)])
)


def exact(expr):
    return sympy.nsimplify(expr, rational=True)


def sqrt(x):
    """sympy's square root, of x with its float literals made exact."""
    return sympy.sqrt(exact(x))


def is_zero(expr) -> bool:
    return sympy.expand(sympy.numer(sympy.together(exact(expr)))) == 0


@pytest.fixture(autouse=True)
def symbolic_scattering(monkeypatch):
    # the point route on symbols: an exact sqrt(2), and sympy's square root
    # and finiteness in place of math's
    monkeypatch.setattr(scattering, "_SQRT2", sympy.sqrt(2))
    monkeypatch.setattr(
        scattering, "math", SimpleNamespace(sqrt=sqrt, isfinite=lambda x: x.is_finite)
    )


def steps(propagating: bool, spin: Spin) -> list:
    """(problem, closed-form (b, b', c, c') as (real, imaginary) pairs) at
    each step height of the branch, the problem built past StepProblem's
    float checks."""
    # positive symbols decide E > V0 at each height, as the point route does
    assert all(bool(E > v0) is propagating for v0 in STEP_HEIGHTS[propagating])
    return [
        (tuple.__new__(StepProblem, (E, v0, m, spin)),
         _amplitudes(propagating, E, v0, m, spin, sqrt))
        for v0 in STEP_HEIGHTS[propagating]
    ]


def modes(problem: StepProblem) -> tuple:
    """(u_inc, u3, u4, u1(E-V0), u2(E-V0)); below the step the region-II
    modes decay, at the imaginary momentum i*p2'."""
    u1, u2, u3, u4 = _eigen_spinors(E, m, sqrt(2 * E * m))
    p2 = sqrt(2 * abs(E - problem.v0) * m)
    if E < problem.v0:
        p2 = sympy.I * p2
    w1, w2, _, _ = _eigen_spinors(E - problem.v0, m, p2)
    return (u1 if problem.incident_spin is Spin.UP else u2), u3, u4, w1, w2


def mode_current(spinor):
    u = sympy.Matrix(spinor)
    return (u.H * KERNEL * u)[0]


def psi_left(problem: StepProblem, pairs) -> list:
    """psi_I(0) = u_inc + b u3 + b' u4."""
    incident, u3, u4, _, _ = modes(problem)
    b, b_prime = (re + sympy.I * im for re, im in pairs[:2])
    return [u + b * up + b_prime * down for u, up, down in zip(incident, u3, u4)]


@BRANCHES
@SPINS
def test_closed_forms_solve_continuity(propagating, spin):
    for problem, pairs in steps(propagating, spin):
        _, _, _, w1, w2 = modes(problem)
        c, c_prime = (re + sympy.I * im for re, im in pairs[2:])
        pole = E - problem.v0 + m  # the region-II modes' denominator
        for left, right1, right2 in zip(psi_left(problem, pairs), w1, w2):
            assert is_zero(pole * (left - c * right1 - c_prime * right2))


@SPINS
def test_evanescent_wave_lies_in_the_pole_free_span(spin):
    # psi_I(0) is a combination of the oracle's decaying pair, with no
    # denominator at all, so the match holds at V0 - E = m itself
    for problem, pairs in steps(False, spin):
        rows, _ = _continuity_matrix(problem)
        columns = [[row[2] for row in rows], [row[3] for row in rows], psi_left(problem, pairs)]
        for picked in combinations(range(4), 3):  # every 3x3 minor of [v1 v2 psi]
            v1, v2, left = (sympy.Matrix([column[i] for i in picked]) for column in columns)
            assert is_zero(left.dot(v1.cross(v2)))


@BRANCHES
def test_region_two_columns_are_orthogonal_and_of_equal_norm(propagating):
    # removing each normalized column once is the orthogonal projection onto
    # their span only if they are orthogonal: above the step |u1|^2 = |u2|^2
    # = 2, below it |v1|^2 = |v2|^2 = 4(s^2 + r^2) = 4(V0 - E + m), at the
    # threshold s = 0 and on the mass pole s = r too
    heights = STEP_HEIGHTS[propagating]
    if not propagating:
        heights += (E + m,)
    for v0 in heights:
        rows, _ = _continuity_matrix(tuple.__new__(StepProblem, (E, v0, m, Spin.UP)))
        v1, v2 = (sympy.Matrix([row[k] for row in rows]) for k in (2, 3))
        norm2 = 2 if propagating else 4 * (v0 - E + m)
        assert is_zero((v1.H * v2)[0])
        assert is_zero((v1.H * v1)[0] - norm2)
        assert is_zero((v2.H * v2)[0] - norm2)


def spin_sums(problem: StepProblem, pairs) -> tuple:
    """(T1 + T2, R1 + R2) of the closed forms, each |c|^2 weighted by the
    ratio of its mode's current to the incident mode's (0 for a decaying
    mode)."""
    r_up, r_down, t_up, t_down = (_abs2(re, im) for re, im in pairs)
    incident, _, _, w1, w2 = modes(problem)
    transmitted = (t_up * mode_current(w1) + t_down * mode_current(w2)) / mode_current(incident)
    return transmitted, r_up + r_down


@BRANCHES
@SPINS
def test_probabilities_sum_to_one(propagating, spin):
    for problem, pairs in steps(propagating, spin):
        assert is_zero(sum(spin_sums(problem, pairs)) - 1)


@SPINS
def test_spin_sums_are_the_spinless_coefficients(spin):
    textbook_t = 4 * k1 * k2 / (k1 + k2) ** 2
    textbook_r = ((k1 - k2) / (k1 + k2)) ** 2
    [(problem, pairs)] = steps(True, spin)
    t_sum, r_sum = spin_sums(problem, pairs)
    assert is_zero(t_sum - textbook_t)
    assert is_zero(r_sum - textbook_r)
    t_qm, r_qm = _spinless(k1, k2, problem.v0)
    assert is_zero(t_qm - textbook_t)
    assert is_zero(r_qm - textbook_r)


@SPINS
def test_evanescent_spin_preserving_reflection(spin):
    for _, pairs in steps(False, spin):
        kept = pairs[0] if spin is Spin.UP else pairs[1]
        assert is_zero(_abs2(*kept) - (E - m) ** 2 / (E + m) ** 2)


@BRANCHES
@SPINS
def test_currents_are_the_mode_bilinears(propagating, spin):
    # unit amplitudes leave each closed-form current per unit |amplitude|^2
    for problem, _ in steps(propagating, spin):
        incident, u3, u4, w1, w2 = modes(problem)
        j = currents(problem, AmplitudeSet(problem, 1.0, 1.0, 1.0, 1.0))
        assert is_zero(j.j_inc - mode_current(incident))
        assert is_zero(j.j_refl_up - mode_current(u3))
        assert is_zero(j.j_refl_down - mode_current(u4))
        assert is_zero(j.j_trans_up - mode_current(w1))
        assert is_zero(j.j_trans_down - mode_current(w2))
        if not propagating:
            assert j.j_trans_up == j.j_trans_down == 0.0
            rows, _ = _continuity_matrix(problem)
            for k in (2, 3):
                assert is_zero(mode_current([row[k] for row in rows]))
