import inspect
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinstep.algebra import (
    eta,
    eta_dagger,
    shell_determinant,
    squared_operator_check,
)
from spinstep.eigensystem import analytic_eigenstate
from spinstep.scattering import (
    ELECTRON_MASS_EV,
    AmplitudeSet,
    CurrentDensities,
    EvanescentRow,
    PrecisionError,
    PropagatingRow,
    Spin,
    StepProblem,
    _continuity_matrix,
    _eigen_spinors,
    closed_form_amplitudes,
    coefficients,
    continuity_residual,
    currents,
    _abs2,
    _curves,
    _rows,
    solve_amplitudes_linear,
)
from spinstep.sweep_io import SweepSpec, run_sweep

ME = ELECTRON_MASS_EV


def rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def mode_current(spinor) -> float:
    """The probability current u^dagger (eta + eta^dagger) u of a REP1 mode."""
    return np.vdot(spinor, (eta() + eta_dagger()) @ spinor).real


def closed_form_row(energy, v0, **fields):
    problem = StepProblem(energy=energy, v0=v0, **fields)
    return coefficients(problem, closed_form_amplitudes(problem))


# ---------------------------------------------------------------- problem


def test_branch_classification():
    # both amplitude routes carry the problem they were computed for, whose
    # E > V0 decides the branch: the threshold E = V0 is evanescent
    for energy, row_type in (
        (200.0, PropagatingRow), (100.0, EvanescentRow), (50.0, EvanescentRow)
    ):
        problem = StepProblem(energy=energy, v0=100.0)
        for route in (closed_form_amplitudes, solve_amplitudes_linear):
            amps = route(problem)
            assert amps.problem is problem
            assert type(coefficients(problem, amps)) is row_type


def test_fields_are_bound_as_python_floats():
    # an int or numpy field is converted once, in the constructor, so the
    # point route's results hold Python floats, bit for bit those of floats
    reference = StepProblem(2.0, 1.0)
    for problem in (StepProblem(2, 1), StepProblem(np.float64(2.0), 1)):
        assert all(type(field) is float for field in problem[:3])
        assert problem == reference
        row = coefficients(problem, closed_form_amplitudes(problem))
        assert all(type(value) is float for value in row)
        assert list(map(float.hex, row)) == list(
            map(float.hex, coefficients(reference, closed_form_amplitudes(reference)))
        )


def test_positivity_validation():
    for bad in ({"energy": -1.0}, {"v0": 0.0}, {"mass": -ME}):
        kwargs = {"energy": 200.0, "v0": 100.0, "mass": ME}
        kwargs.update(bad)
        with pytest.raises(ValueError):
            StepProblem(**kwargs)
    # zero and an int beyond the double range are refused (the int not with
    # an OverflowError); the largest double is accepted, also next to a
    # refused field, which the message names
    for name in ("energy", "v0", "mass"):
        for bad in (0.0, 10**400):
            kwargs = {"energy": 200.0, "v0": 100.0, "mass": ME, name: bad}
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                StepProblem(**kwargs)
        largest = {"energy": 200.0, "v0": 100.0, "mass": ME, name: sys.float_info.max}
        assert StepProblem(**largest)[StepProblem._fields.index(name)] == sys.float_info.max
    for name in ("v0", "mass"):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            StepProblem(**{"energy": sys.float_info.max, "v0": 1.0, "mass": 1.0, name: -1.0})


@pytest.mark.parametrize("spin", ["up", "down", 1, None])
def test_incident_spin_must_be_a_spin(spin):
    # not coerced: the kernels compare spins by identity, so the string
    # "up" would silently be solved as spin-down incidence
    with pytest.raises(ValueError, match="incident_spin"):
        StepProblem(energy=200.0, v0=100.0, incident_spin=spin)


def test_constructor_defaults_are_the_field_defaults():
    # the constructor restates the defaults that the CLI reads
    params = inspect.signature(StepProblem).parameters
    assert list(params) == list(StepProblem._fields)
    defaults = {name: p.default for name, p in params.items() if p.default is not p.empty}
    assert defaults == StepProblem._field_defaults


def test_replace_validates_like_the_constructor():
    problem = StepProblem(energy=200.0, v0=100.0)
    assert problem._replace(energy=300.0) == StepProblem(energy=300.0, v0=100.0)
    with pytest.raises(ValueError, match="energy must be positive"):
        problem._replace(energy=-1.0)
    with pytest.raises(ValueError, match="incident_spin"):
        problem._replace(incident_spin="down")
    with pytest.raises(ValueError, match="mass must be positive"):
        StepProblem._make((200.0, 100.0, 0.0, Spin.UP))


# ------------------------------------------------------ transmitted momenta


def test_transmitted_momentum_propagating():
    # the transmitted current per unit |c|^2 is 4*p2/(E+m-V0)
    problem = StepProblem(energy=200.0, v0=100.0, mass=ME)
    amps = closed_form_amplitudes(problem)
    p2 = currents(problem, amps).j_trans_up * (200.0 + ME - 100.0) / (4.0 * abs(amps.c) ** 2)
    # frozen oracle: sqrt(2*(200-100)*510998.95)
    assert p2 == pytest.approx(10109.391178503283, rel=1e-14)


def test_decay_constant_evanescent():
    # the oracle's pole-free pair spans the region-II modes that decay as
    # exp(-p2' z); a p2' off by 1e-9 relative leaves a residual near 1e-11
    problem = StepProblem(energy=50.0, v0=100.0, mass=ME)
    rows, _ = _continuity_matrix(problem)
    basis = np.array(rows)[:, 2:]
    # frozen oracle: sqrt(2*510998.95*50)
    for mode in _eigen_spinors(50.0 - 100.0, ME, 1j * 7148.419055987135)[:2]:
        mode = np.array(mode)
        coef, *_ = np.linalg.lstsq(basis, mode, rcond=None)
        assert np.abs(basis @ coef - mode).max() <= 1e-14 * np.abs(mode).max()


@pytest.mark.parametrize("v0, mass", [(100.0, ME), (ME, ME), (2.5e-3, 1e12)])
def test_threshold_region_ii_columns_are_the_pole_free_pair_at_s_0(v0, mass):
    # at E = V0 the oracle stays on the evanescent basis: its region-II
    # columns are minus the pole-free pair at s = sqrt(V0 - E) = 0, not the
    # propagating modes u^(1), u^(2) at p = 0
    rows, _ = _continuity_matrix(StepProblem(energy=v0, v0=v0, mass=mass))
    r = math.sqrt(mass)
    columns = [[row[k] for row in rows] for k in (2, 3)]
    assert columns == [[-r, -r, 1j * r, -1j * r], [r, -r, -1j * r, -1j * r]]


def on_pole_reflection(energy, mass, spin):
    """(R1', R2') of the evanescent closed forms, (E-m)^2/(E+m)^2 kept and
    4Em/(E+m)^2 flipped, at 50 digits, for the incident spin."""
    with mpmath.workdps(50):
        e, m = mpmath.mpf(energy), mpmath.mpf(mass)
        keep, flip = (e - m) ** 2 / (e + m) ** 2, 4 * e * m / (e + m) ** 2
    return (keep, flip) if spin is Spin.UP else (flip, keep)


# (E, m) with V0 = E + m and V0 - E == m in floats; (ME, ME) has E = m too,
# where R1' = 0
ON_POLE = [(1000.0, ME), (ME, ME), (2.5e5, 938.27208816e6), (7.5e11, 1e12),
           (3.0, 105.6583755e6), (1e-6, 1e-3), (1e6, 1.0)]


@pytest.mark.parametrize(
    "route", (closed_form_amplitudes, solve_amplitudes_linear), ids=("closed_form", "oracle")
)
@pytest.mark.parametrize("spin", (Spin.UP, Spin.DOWN), ids=("up", "down"))
@pytest.mark.parametrize("energy, mass", ON_POLE)
def test_mass_pole_values_match_mpmath(energy, mass, spin, route):
    # exactly on the pole V0 - E = m, which a decaying spinor normalized to
    # unit upper components cannot reach, both routes return R1' and R2'
    # within 1e-15 of their closed forms and zero transmitted current
    v0 = energy + mass
    assert v0 - energy == mass
    problem = StepProblem(energy, v0, mass, spin)
    amps = route(problem)
    row = coefficients(problem, amps)
    for got, want in zip((row.r1_prime, row.r2_prime), on_pole_reflection(energy, mass, spin)):
        assert abs(got - want) <= 1e-15
    current = currents(problem, amps)
    assert (current.j_trans_up, current.j_trans_down) == (0.0, 0.0)
    assert current.conservation_sum == pytest.approx(1.0, abs=1e-12)
    assert continuity_residual(problem, amps) <= 1e-12


# ------------------------------------------------------------- amplitudes


def test_linear_solve_continuity_and_bprime_cprime():
    problem = StepProblem(energy=200.0, v0=100.0)
    amps = solve_amplitudes_linear(problem)
    assert amps.b_prime == amps.c_prime  # row of the continuity system
    assert continuity_residual(problem, amps) <= 1e-12


def test_oracle_refuses_a_large_backward_error(monkeypatch):
    # a solution off by one part in 1e6 has a relative backward error near
    # 5e-7, far above CONTINUITY_TOL; the oracle must refuse it
    from spinstep import scattering

    solve = scattering._solve_continuity
    monkeypatch.setattr(
        scattering, "_solve_continuity", lambda a, b: [z * (1.0 + 1e-6) for z in solve(a, b)]
    )
    for energy, v0 in ((200.0, 100.0), (50.0, 100.0)):
        with pytest.raises(RuntimeError, match="backward error"):
            solve_amplitudes_linear(StepProblem(energy=energy, v0=v0))


@pytest.mark.parametrize("spin", (Spin.UP, Spin.DOWN))
def test_oracle_backward_error_bound_is_calibrated(monkeypatch, spin):
    # x(1 + eps) leaves the residual eps*b, so its backward error is
    # eps*|b| / (|M| |x| + |b|), infinity norms: scaled to 0.99 and 1.01 of
    # CONTINUITY_TOL, the first is accepted and the second refused.  Here
    # every row of M has four nonzero entries or a norm below the largest,
    # and |x| is 5% from 1, so a wrong term in the bound moves it by 8% or
    # more
    from spinstep import scattering

    problem = StepProblem(energy=0.3, v0=0.1, mass=1.0, incident_spin=spin)
    rows, rhs = _continuity_matrix(problem)
    solve = scattering._solve_continuity
    x = solve(rows, rhs)
    b_norm = np.abs(rhs).max()
    scale = np.abs(rows).sum(axis=1).max() * np.abs(x).max() + b_norm
    for ratio in (0.99, 1.01):
        eps = ratio * scattering.CONTINUITY_TOL * scale / b_norm
        monkeypatch.setattr(
            scattering, "_solve_continuity", lambda a, b: [z * (1.0 + eps) for z in solve(a, b)]
        )
        if ratio < 1:
            assert solve_amplitudes_linear(problem).b == x[0] * (1.0 + eps)
        else:
            with pytest.raises(RuntimeError, match="backward error"):
                solve_amplitudes_linear(problem)


@pytest.mark.parametrize("row", range(4))
def test_backward_error_bound_is_calibrated_on_every_row(monkeypatch, row):
    # the bound is written out row by row, so it is calibrated as above on
    # general 4x4 systems in which each row in turn has the largest norm, by
    # a factor of 4, with four entries of moduli in [1, 2] times its scale:
    # a wrong term in any row's norm then moves the bound by more than 10%.
    # Below the step the oracle checks no relation between its amplitudes
    from spinstep import scattering

    rng = np.random.default_rng(row)
    matrix = rng.uniform(1.0, 2.0, (4, 4)) * np.exp(2j * np.pi * rng.uniform(size=(4, 4)))
    matrix[row] *= 4.0
    rhs = rng.uniform(1.0, 2.0, 4) * np.exp(2j * np.pi * rng.uniform(size=4))
    x = np.linalg.solve(matrix, rhs)
    b_norm = np.abs(rhs).max()
    scale = np.abs(matrix).sum(axis=1).max() * np.abs(x).max() + b_norm
    monkeypatch.setattr(scattering, "_continuity_matrix", lambda p: (matrix.tolist(), rhs.tolist()))
    problem = StepProblem(energy=50.0, v0=100.0)
    for ratio in (0.99, 1.01):
        eps = ratio * scattering.CONTINUITY_TOL * scale / b_norm
        monkeypatch.setattr(scattering, "_solve_continuity", lambda a, b: (x * (1.0 + eps)).tolist())
        if ratio < 1:
            assert solve_amplitudes_linear(problem).b == x[0] * (1.0 + eps)
        else:
            with pytest.raises(RuntimeError, match="backward error"):
                solve_amplitudes_linear(problem)


def test_continuity_elimination_solves_a_general_system():
    # the elimination is the Schur complement of an identity block, as in
    # the continuity rows; on a general identity-led system [I | A; L | B]
    # it must agree with LAPACK, and the trailing 2x2 must swap rows 2 and 3
    # when the complement's entry in row 2 is the smaller
    from spinstep.scattering import _solve_continuity

    rng = np.random.default_rng(0)
    for trial in range(20):
        matrix = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        matrix[:2, :2] = np.eye(2)
        # odd trials: row 2 holds the complement's smaller pivot; even: row 3
        matrix[2 if trial % 2 else 3] *= 1e-3
        complement = matrix[2:, 2:] - matrix[2:, :2] @ matrix[:2, 2:]
        assert (abs(complement[1, 0]) > abs(complement[0, 0])) == bool(trial % 2)
        rhs = rng.normal(size=4) + 1j * rng.normal(size=4)
        got = _solve_continuity(matrix.tolist(), rhs.tolist())
        want = np.linalg.solve(matrix, rhs)
        assert np.abs(np.array(got) - want).max() <= 1e-10 * np.abs(want).max()
    swapped = [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 1.0, 0.0)]
    assert _solve_continuity(swapped, [1.0, 2.0, 3.0, 4.0]) == [1.0, 2.0, 4.0, 3.0]


def test_linear_matches_closed_form():
    for energy, v0, mass in [
        (200.0, 100.0, ME),
        (101.0, 100.0, ME),
        (2e5, 1e5, ME),
        (3e6, 1e6, 2 * ME),
    ]:
        problem = StepProblem(energy=energy, v0=v0, mass=mass)
        lin = solve_amplitudes_linear(problem)
        closed = closed_form_amplitudes(problem)
        for field in ("b", "b_prime", "c", "c_prime"):
            assert rel_diff(getattr(lin, field), getattr(closed, field)) <= 1e-10


@pytest.mark.parametrize("spin, field", [(Spin.UP, "c"), (Spin.DOWN, "c_prime")])
def test_evanescent_transmitted_amplitude_does_not_overflow(spin, field):
    # 2E(m + V0 - E) overflows here although c = 2: dividing (m + V0 - E)
    # by (E+m)V0 first keeps the closed form finite
    problem = StepProblem(7791267637.645717, 1.5204276115454646e298, 4.0651874101797726e-112, spin)
    got = getattr(closed_form_amplitudes(problem), field)
    want = getattr(solve_amplitudes_linear(problem), field)
    assert math.isfinite(got.real) and math.isfinite(got.imag)
    assert rel_diff(got, want) <= 1e-12


# repr of the oracle's (b, b', c, c') at V0 = 100 eV, recorded from the
# Gaussian elimination of _solve_continuity (a zero may change sign)
ORACLE_PINS = {
    (200.0, Spin.UP): (
        "(0.1714386239019603+0j)", "0.006785997160448504j",
        "(1.1714386239019603-0j)", "(-0+0.006785997160448504j)",
    ),
    (200.0, Spin.DOWN): (
        "0.006785997160448503j", "(0.17143862390196007+0j)",
        "(-0+0.006785997160448503j)", "(1.17143862390196-0j)",
    ),
    (50.0, Spin.UP): (
        "(-8.604228440844963e-15-0.9998043240280605j)",
        "(0.019781649445716754-2.220446049250313e-16j)",
        "(0.9999999999999913-0.9998043240280605j)",
        "(0.019781649445716754-2.220446049250313e-16j)",
    ),
    (50.0, Spin.DOWN): (
        "(0.01978164944571653-1.1102230246251565e-16j)",
        "(-8.826273045769994e-15-0.9998043240280604j)",
        "(0.01978164944571653-1.1102230246251565e-16j)",
        "(0.9999999999999911-0.9998043240280604j)",
    ),
}


@pytest.mark.parametrize("energy,spin", list(ORACLE_PINS))
def test_linear_solve_values_pinned(energy, spin):
    amps = solve_amplitudes_linear(StepProblem(energy=energy, v0=100.0, incident_spin=spin))
    pins = [complex(text) for text in ORACLE_PINS[energy, spin]]
    assert [amps.b, amps.b_prime, amps.c, amps.c_prime] == pins


def test_small_v0_limit_transparent():
    problem = StepProblem(energy=100.0, v0=100.0 * 1e-6, mass=ME)
    amps = solve_amplitudes_linear(problem)
    assert abs(amps.b) <= 1e-5
    assert abs(amps.b_prime) <= 1e-5
    assert abs(amps.c_prime) <= 1e-5
    coeff = coefficients(problem, amps)
    assert coeff.t1 >= 1.0 - 1e-5


def test_closed_form_b_vanishes_at_equal_energy_mass():
    problem = StepProblem(energy=ME, v0=ME / 2, mass=ME)
    assert closed_form_amplitudes(problem).b == 0


def test_evanescent_denominator_modulus_identity():
    # |2E - V0 + 2i sqrt(E(V0-E))|^2 expands to exactly V0^2
    for energy, v0 in [(50.0, 100.0), (1.0, 3.0), (0.3, 0.9)]:
        z = 2 * energy - v0 + 2j * np.sqrt(energy * (v0 - energy))
        assert abs(z) ** 2 == pytest.approx(v0**2, rel=1e-12)


def test_evanescent_amplitudes_and_reflection():
    problem = StepProblem(energy=50.0, v0=100.0, mass=ME)
    for amps in (solve_amplitudes_linear(problem), closed_form_amplitudes(problem)):
        assert abs(amps.b) ** 2 + abs(amps.b_prime) ** 2 == pytest.approx(1.0, abs=1e-12)
        # region-II amplitude continuity rows: c = 1 + b, c' = b'
        assert amps.c == pytest.approx(1 + amps.b, abs=1e-12)
        assert amps.c_prime == pytest.approx(amps.b_prime, abs=1e-12)
        # frozen closed forms of the reflection probabilities
        assert abs(amps.b) ** 2 == pytest.approx((50.0 - ME) ** 2 / (50.0 + ME) ** 2, abs=1e-12)
        assert abs(amps.b_prime) ** 2 == pytest.approx(4 * 50.0 * ME / (50.0 + ME) ** 2, abs=1e-12)


# ------------------------------------------------------------ coefficients


def test_point_row_carries_e_over_v0():
    for energy, ratio in ((200.0, 2.0), (50.0, 0.5)):
        problem = StepProblem(energy=energy, v0=100.0)
        row = coefficients(problem, closed_form_amplitudes(problem))
        assert (row.e_ev, row.e_over_v0) == (energy, ratio)


def test_propagating_coefficients_sum_to_one():
    problem = StepProblem(energy=200.0, v0=100.0)
    coeff = coefficients(problem, solve_amplitudes_linear(problem))
    assert coeff.t1 + coeff.t2 + coeff.r1 + coeff.r2 == pytest.approx(1.0, abs=1e-12)
    for value in (coeff.t1, coeff.t2, coeff.r1, coeff.r2):
        assert 0.0 <= value <= 1.0


def test_row_spinless_values():
    row = closed_form_row(200.0, 100.0)
    # frozen oracle: 4*sqrt(2)/(1+sqrt(2))^2
    assert row.t_qm == pytest.approx(0.9705627484771406, abs=1e-14)
    assert row.t_qm + row.r_qm == pytest.approx(1.0, abs=1e-14)
    # a vanishing step transmits everything
    assert closed_form_row(100.0, 1e-9).t_qm == pytest.approx(1.0, abs=1e-5)


def test_row_spinless_small_step_relative_accuracy():
    # R = ((k1-k2)/(k1+k2))^2 cancels as V0/E -> 0; (V0/(k1+k2)^2)^2 does not
    for energy, v0 in [(1e6, 1e-3), (1e9, 1e-3)]:
        with mpmath.workdps(50):
            k1 = mpmath.sqrt(energy)
            k2 = mpmath.sqrt(mpmath.mpf(energy) - v0)
            want = float(((k1 - k2) / (k1 + k2)) ** 2)
        r_qm = closed_form_row(energy, v0).r_qm
        assert abs(r_qm - want) <= 1e-13 * want


def test_spin_sums_reduce_to_qm():
    for energy, v0 in [(150.0, 100.0), (2e5, 1e5), (9e6, 1e6)]:
        problem = StepProblem(energy=energy, v0=v0)
        coeff = coefficients(problem, solve_amplitudes_linear(problem))
        assert coeff.t1 + coeff.t2 == pytest.approx(coeff.t_qm, abs=1e-10)
        assert coeff.r1 + coeff.r2 == pytest.approx(coeff.r_qm, abs=1e-10)


def test_spin_sums_mass_independent():
    t_qm = closed_form_row(300.0, 100.0).t_qm
    for mass in (ME, 2 * ME, 0.001):
        problem = StepProblem(energy=300.0, v0=100.0, mass=mass)
        coeff = coefficients(problem, solve_amplitudes_linear(problem))
        assert coeff.t1 + coeff.t2 == pytest.approx(t_qm, abs=1e-10)


def test_near_threshold_transmission_small():
    # T1+T2 = T_QM ~ 4*sqrt(x-1) just above threshold: frozen thresholds
    problem = StepProblem(energy=100.0 * (1 + 1e-6), v0=100.0)
    coeff = coefficients(problem, solve_amplitudes_linear(problem))
    assert coeff.t1 + coeff.t2 == pytest.approx(0.0039920099920035005, abs=1e-12)
    problem = StepProblem(energy=100.0 * (1 + 1e-8), v0=100.0)
    coeff = coefficients(problem, solve_amplitudes_linear(problem))
    assert coeff.t1 + coeff.t2 <= 1e-3
    assert coeff.r1 + coeff.r2 >= 1 - 1e-3


def test_evanescent_coefficients_formulas():
    problem = StepProblem(energy=50.0, v0=100.0, mass=ME)
    coeff = coefficients(problem, solve_amplitudes_linear(problem))
    assert coeff.r1_prime == pytest.approx(0.9996086863452066, abs=1e-12)
    assert coeff.r2_prime == pytest.approx(0.000391313654793354, abs=1e-12)
    assert coeff.r1_prime + coeff.r2_prime == pytest.approx(1.0, abs=1e-12)


def test_evanescent_at_energy_equal_mass():
    problem = StepProblem(energy=ME, v0=3 * ME, mass=ME)
    coeff = coefficients(problem, solve_amplitudes_linear(problem))
    assert coeff.r1_prime == pytest.approx(0.0, abs=1e-12)
    assert coeff.r2_prime == pytest.approx(1.0, abs=1e-12)


def test_evanescent_barrier_height_independence():
    results = []
    for v0 in (100.0, 1000.0):
        problem = StepProblem(energy=50.0, v0=v0, mass=ME)
        coeff = coefficients(problem, solve_amplitudes_linear(problem))
        results.append((coeff.r1_prime, coeff.r2_prime))
    assert results[0][0] == pytest.approx(results[1][0], abs=1e-12)
    assert results[0][1] == pytest.approx(results[1][1], abs=1e-12)


def test_coefficients_branch_mismatch_rejected():
    # coefficients and currents refuse amplitudes of any other problem, from
    # either route, in each branch and for either spin: another energy on
    # the same branch, another V0 or mass, the other incident spin and the
    # other branch; an equal but distinct StepProblem is the same problem
    routes = (closed_form_amplitudes, solve_amplitudes_linear)
    for spin, flipped in ((Spin.UP, Spin.DOWN), (Spin.DOWN, Spin.UP)):
        for energy, same_branch, v0, other_branch in ((200.0, 300.0, 150.0, 50.0),
                                                      (50.0, 10.0, 200.0, 200.0)):
            problem = StepProblem(energy, 100.0, ME, spin)
            for other in (
                problem._replace(energy=same_branch),
                problem._replace(v0=v0),
                problem._replace(mass=2.0 * ME),
                problem._replace(incident_spin=flipped),
                problem._replace(energy=other_branch),
            ):
                for amps in (route(other) for route in routes):
                    for use in (coefficients, currents):
                        with pytest.raises(ValueError) as refused:
                            use(problem, amps)
                        assert str(refused.value) == (
                            "amplitude set was produced for a different problem"
                        )
            twin = StepProblem(*problem)
            assert twin is not problem and twin == problem
            for amps in (route(problem) for route in routes):
                assert coefficients(twin, amps) == coefficients(problem, amps)
                assert currents(twin, amps) == currents(problem, amps)


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=1.01, max_value=50.0),
    v0=st.floats(min_value=1e-3, max_value=1e7),
    mass=st.floats(min_value=1e-2, max_value=1e7),
)
def test_property_unitarity_and_qm_reduction(x, v0, mass):
    problem = StepProblem(energy=x * v0, v0=v0, mass=mass)
    coeff = coefficients(problem, solve_amplitudes_linear(problem))
    assert coeff.t1 + coeff.t2 + coeff.r1 + coeff.r2 == pytest.approx(1.0, abs=1e-12)
    assert coeff.t1 + coeff.t2 == pytest.approx(coeff.t_qm, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=1e-4, max_value=0.99),
    v0=st.floats(min_value=1e-3, max_value=1e3),
    mass=st.floats(min_value=1.0, max_value=1e7),
)
def test_property_evanescent_reflection_formulas(x, v0, mass):
    energy = x * v0
    if abs(v0 - energy - mass) <= 1e-4 * mass:
        # the band next to the mass pole is drawn log-uniformly by
        # test_property_evanescent_near_mass_pole
        return
    problem = StepProblem(energy=energy, v0=v0, mass=mass)
    coeff = coefficients(problem, solve_amplitudes_linear(problem))
    assert coeff.r1_prime == pytest.approx(
        (energy - mass) ** 2 / (energy + mass) ** 2, abs=1e-12
    )
    assert coeff.r2_prime == pytest.approx(
        4 * energy * mass / (energy + mass) ** 2, abs=1e-12
    )


def test_incident_spin_down_symmetry():
    problem = StepProblem(energy=250.0, v0=100.0, incident_spin=Spin.DOWN)
    amps = solve_amplitudes_linear(problem)
    # the channel without an incident wave matches across the step
    assert amps.b == amps.c
    coeff = coefficients(problem, amps)
    assert coeff.t1 + coeff.t2 + coeff.r1 + coeff.r2 == pytest.approx(1.0, abs=1e-12)
    assert coeff.t1 + coeff.t2 == pytest.approx(closed_form_row(250.0, 100.0).t_qm, abs=1e-10)


def _unfactored_probabilities(energy, v0, mass, spin):
    """Spin-up closed forms as first written (before factoring), evaluated at
    50 digits; spin down relabels (b, b', c, c') as (b', b, c', c)."""
    with mpmath.workdps(50):
        e, v0, m = mpmath.mpf(energy), mpmath.mpf(v0), mpmath.mpf(mass)
        if e > v0:
            root = mpmath.sqrt(e * (e - v0))
            denom = (e + m) * (2 * e + 2 * root - v0)
            b = (m - e) * v0 / denom
            b_prime = 2j * mpmath.sqrt(e * m) * v0 / denom
            c = (-2 * e**2 - 2 * m * root + 2 * e * (m + root + v0)) / ((e + m) * v0)
            flux = (e + m) * mpmath.sqrt(e - v0) / ((e - v0 + m) * mpmath.sqrt(e))
            if spin is Spin.DOWN:
                b, b_prime, c, c_prime = b_prime, b, b_prime, c
            else:
                c_prime = b_prime
            probs = {
                "t1": flux * abs(c) ** 2,
                "t2": flux * abs(c_prime) ** 2,
                "r1": abs(b) ** 2,
                "r2": abs(b_prime) ** 2,
            }
        else:
            root = mpmath.sqrt(e * (v0 - e))
            b = (m - e) * v0 / ((e + m) * (2 * e - v0 + 2j * root))
            b_prime = 2 * mpmath.sqrt(e * m) * v0 / ((e + m) * (-2j * e + 1j * v0 + 2 * root))
            if spin is Spin.DOWN:
                b, b_prime = b_prime, b
            probs = {"r1_prime": abs(b) ** 2, "r2_prime": abs(b_prime) ** 2}
        return {name: float(value) for name, value in probs.items()}


log_ev = st.floats(min_value=-6.0, max_value=12.0)


# |E/V0 - 1| log-uniform on (1e-16, 1e-3), above, below or at the threshold
NEAR_THRESHOLD = dict(
    near_threshold=st.booleans(),
    log_offset=st.floats(min_value=math.log(1e-16), max_value=math.log(1e-3)),
    side=st.sampled_from((1.0, -1.0, 0.0)),
)


@settings(max_examples=150, deadline=None)
@given(log_e=log_ev, log_v0=log_ev, log_m=log_ev, spin=st.sampled_from((Spin.UP, Spin.DOWN)),
       **NEAR_THRESHOLD)
def test_property_closed_forms_relative_accuracy(
    log_e, log_v0, log_m, spin, near_threshold, log_offset, side
):
    # E, V0 and m log-uniform on 1e-6..1e12 eV: every reported probability
    # within 1e-13 relative of the unfactored closed forms at 50 digits;
    # near_threshold puts E at V0 * (1 + side * offset), at V0 for side 0
    energy, v0, mass = 10.0**log_e, 10.0**log_v0, 10.0**log_m
    if near_threshold:
        energy = v0 * (1.0 + side * math.exp(log_offset))
    problem = StepProblem(energy=energy, v0=v0, mass=mass, incident_spin=spin)
    got = coefficients(problem, closed_form_amplitudes(problem))
    for name, value in _unfactored_probabilities(energy, v0, mass, spin).items():
        assert abs(getattr(got, name) - value) <= 1e-13 * value, name


# E/V0 - 1 at and around the threshold, on both sides
THRESHOLD_OFFSETS = (0.0, *(sign * d for d in (1e-16, 1e-12, 1e-9, 1e-8) for sign in (1.0, -1.0)))


def test_threshold_values_match_mpmath():
    # E = V0 takes the evanescent branch, and neither the closed forms nor
    # the oracle's pole-free basis divides by E - V0: at the threshold and
    # next to it, against the unfactored closed forms at 50 digits, which
    # are continuous through E = V0 (T1, T2 -> 0), the primary route gives
    # every probability within 1e-13 relative and the oracle, whose
    # accuracy is backward, within 1e-14 absolute (as at E/V0 = 1 +- 1e-3);
    # a decaying wave carries no current
    for v0, mass in ((100.0, ME), (1e6, 1.0), (1.5e-3, 1e9)):
        for offset in THRESHOLD_OFFSETS:
            energy = v0 + offset * v0
            assert (energy == v0) == (offset == 0.0)
            for spin in Spin:
                problem = StepProblem(energy, v0, mass, spin)
                want = _unfactored_probabilities(energy, v0, mass, spin)
                for route, rel, tol in ((closed_form_amplitudes, 1e-13, 0.0),
                                        (solve_amplitudes_linear, 0.0, 1e-14)):
                    amps = route(problem)
                    row = coefficients(problem, amps)
                    assert type(row) is (PropagatingRow if offset > 0 else EvanescentRow)
                    for name, value in want.items():
                        error = abs(getattr(row, name) - value)
                        assert error <= rel * value + tol, (route.__name__, name, offset)
                    current = currents(problem, amps)
                    if offset <= 0:
                        assert (current.j_trans_up, current.j_trans_down) == (0.0, 0.0)
                    assert current.conservation_sum == pytest.approx(1.0, abs=1e-12)
                    assert continuity_residual(problem, amps) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(
    log_e=log_ev, log_v0=log_ev, log_m=log_ev,
    near_pole=st.booleans(),
    log_delta=st.floats(min_value=np.log(2e-12), max_value=np.log(1e-3)),
    sign=st.sampled_from((1.0, -1.0, 0.0)),
    **NEAR_THRESHOLD,
)
def test_property_grid_kernel_bits_equal_the_point_route(
    log_e, log_v0, log_m, near_pole, log_delta, sign, near_threshold, log_offset, side
):
    # the grid kernel's inline loop copies _amplitudes' and _curves'
    # expressions: its row at x = E/V0 is the spin-up point query's at
    # x*V0, bit for bit; near_pole puts V0 - E at m * (1 + sign * delta), on the pole
    # for sign 0, and near_threshold E at V0 * (1 + side * offset), at V0
    # for side 0
    energy, v0, mass = 10.0**log_e, 10.0**log_v0, 10.0**log_m
    if near_pole:
        v0 = energy + mass * (1.0 + sign * np.exp(log_delta))
    if near_threshold:
        energy = v0 * (1.0 + side * math.exp(log_offset))
    x = energy / v0
    (row,) = _rows([x], v0, mass)
    problem = StepProblem(x * v0, v0, mass)
    point = coefficients(problem, closed_form_amplitudes(problem))._replace(e_over_v0=x)
    assert type(row) is type(point)
    assert list(map(float.hex, row)) == list(map(float.hex, point))


@settings(max_examples=300, deadline=None)
@given(log_e=log_ev, log_m=log_ev)
def test_property_eigen_spinors_bits_equal_on_floats_and_arrays(log_e, log_m):
    # analytic_eigenstate is, bit for bit, the spinor of its kind that the
    # point route builds on floats
    energy, mass = 10.0**log_e, 10.0**log_m
    momentum = math.sqrt(2.0 * energy * mass)
    point = _eigen_spinors(energy, mass, momentum)
    assert len(point) == 4
    for kind, scalar in enumerate(point, start=1):
        state = analytic_eigenstate(kind, energy, mass)
        assert state.tobytes() == np.array(scalar, dtype=complex).tobytes(), kind


def test_unitarity_refusal_names_one_point():
    # a refusal, of a point or of a sweep's grid point, names its energy
    bad = (0.5, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError) as point:
        _curves(False, 50.0, 100.0, ME, bad)
    assert str(point.value) == (
        "probabilities {'r1_prime': 0.5, 'r2_prime': 0.0} at E = 50.0 eV violate unitarity: "
        "the sum must be within 1e-12 of 1 and each within 1e-12 of [0, 1]"
    )


@pytest.mark.parametrize("excess", (1e-11, 1e-7))
@pytest.mark.parametrize("energy", (200.0, 50.0))
def test_a_probability_just_above_1_is_refused(energy, excess):
    # past CLAMP_EPS = 1e-12 above 1 a probability is refused, not clamped
    # onto 1, however little past, in both branches, at a point or at a
    # sweep's grid point that the grid kernel's inline loop leaves to _curves
    bad = (1.0 + excess, 0.0, 0.0, 0.0)
    propagating = energy > 100.0
    with pytest.raises(ValueError, match=f"at E = {energy!r} eV violate unitarity") as point:
        _curves(propagating, energy, 100.0, ME, bad)
    assert type(point.value) is ValueError


# ------------------------------------------------------- around the pole


def test_reflection_formulas_across_mass_pole():
    # the transmitted-spinor normalization has a pole at V0 - E = m; the
    # reflection probabilities stay regular across it
    energy = 1000.0
    for delta in (1e-3, 1e-5, -1e-3, -1e-5):
        v0 = energy + ME * (1 + delta)
        problem = StepProblem(energy=energy, v0=v0, mass=ME)
        coeff = coefficients(problem, solve_amplitudes_linear(problem))
        assert coeff.r1_prime == pytest.approx(
            (energy - ME) ** 2 / (energy + ME) ** 2, abs=1e-12
        )
        assert coeff.r2_prime == pytest.approx(
            4 * energy * ME / (energy + ME) ** 2, abs=1e-12
        )


# electron, muon, proton and a 1 eV mass
POLE_MASSES = (ME, 105.6583755e6, 938.27208816e6, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    log_delta=st.floats(min_value=np.log(2e-12), max_value=np.log(1e-3)),
    sign=st.sampled_from((1.0, -1.0, 0.0)),
    mass=st.sampled_from(POLE_MASSES),
    log_ratio=st.floats(min_value=np.log(1e-6), max_value=np.log(0.999)),
    spin=st.sampled_from((Spin.UP, Spin.DOWN)),
)
def test_property_evanescent_near_mass_pole(log_delta, sign, mass, log_ratio, spin):
    # V0 - E = m * (1 + sign * delta) with E / V0 = ratio, on the pole for
    # sign 0; a decaying spinor normalized to unit upper components diverges
    # there, while the reflection closed forms and the pole-free continuity
    # basis do not
    gap = mass * (1.0 + sign * np.exp(log_delta))
    ratio = np.exp(log_ratio)
    energy = ratio * gap / (1.0 - ratio)
    problem = StepProblem(energy=energy, v0=energy + gap, mass=mass, incident_spin=spin)
    amps = solve_amplitudes_linear(problem)
    coeff = coefficients(problem, amps)
    keep = (energy - mass) ** 2 / (energy + mass) ** 2
    flip = 4 * energy * mass / (energy + mass) ** 2
    assert abs(abs(amps.b) ** 2 + abs(amps.b_prime) ** 2 - 1.0) <= 1e-12
    if spin is Spin.UP:
        expected, rows = (keep, flip), ((amps.c, 1 + amps.b), (amps.c_prime, amps.b_prime))
    else:
        expected, rows = (flip, keep), ((amps.c, amps.b), (amps.c_prime, 1 + amps.b_prime))
    assert coeff.r1_prime == pytest.approx(expected[0], abs=1e-13)
    assert coeff.r2_prime == pytest.approx(expected[1], abs=1e-13)
    # the first two continuity rows: c and c' are the upper components of
    # psi_II(0)
    for got, want in rows:
        assert abs(got - want) <= 1e-13
    assert continuity_residual(problem, amps) <= 1e-12
    assert continuity_residual(problem, closed_form_amplitudes(problem)) <= 1e-12


def test_reflection_spin_dominance_crossover():
    # R2/R1 = 4*E*m/(E-m)^2 crosses 1 at E = (3 + 2*sqrt(2))*m; below that
    # energy the reflected electron is dominantly spin-flipped for a barrier
    # above the mass scale, and the dominance inverts just beyond it
    v0 = 1e6
    crossover = (3 + 2 * np.sqrt(2)) * ME
    for x in (1.01, 1.5, 2.0, 2.9):
        problem = StepProblem(energy=x * v0, v0=v0, mass=ME)
        coeff = coefficients(problem, solve_amplitudes_linear(problem))
        assert coeff.r2 > coeff.r1
    problem = StepProblem(energy=3.0 * v0, v0=v0, mass=ME)
    assert 3.0 * v0 > crossover
    coeff = coefficients(problem, solve_amplitudes_linear(problem))
    assert coeff.r1 > coeff.r2
    # ratio matches the closed form at the boundary sample
    assert coeff.r2 / coeff.r1 == pytest.approx(
        4 * 3e6 * ME / (3e6 - ME) ** 2, rel=1e-9
    )


# ---------------------------------------------------------------- currents


def test_current_closed_forms():
    problem = StepProblem(energy=200.0, v0=100.0, mass=ME)
    amps = solve_amplitudes_linear(problem)
    j = currents(problem, amps)
    e, v0, m = 200.0, 100.0, ME
    p1 = np.sqrt(2 * e * m)
    p2 = np.sqrt(2 * (e - v0) * m)
    assert j.j_inc == pytest.approx(4 * p1 / (e + m), rel=1e-12)
    assert j.j_refl_up == pytest.approx(-4 * p1 * abs(amps.b) ** 2 / (e + m), rel=1e-12)
    assert j.j_refl_down == pytest.approx(
        -4 * p1 * abs(amps.b_prime) ** 2 / (e + m), rel=1e-12
    )
    assert j.j_trans_up == pytest.approx(
        4 * p2 * abs(amps.c) ** 2 / (e + m - v0), rel=1e-12
    )
    assert j.j_trans_down == pytest.approx(
        4 * p2 * abs(amps.c_prime) ** 2 / (e + m - v0), rel=1e-12
    )


def test_current_signs_and_conservation():
    for energy, v0 in [(150.0, 100.0), (1.5e6, 1e6), (5e5, 1e5)]:
        problem = StepProblem(energy=energy, v0=v0)
        j = currents(problem, solve_amplitudes_linear(problem))
        assert j.j_inc > 0
        assert j.j_refl_up <= 0 and j.j_refl_down <= 0
        assert j.j_trans_up >= 0 and j.j_trans_down >= 0
        assert j.conservation_sum == pytest.approx(1.0, abs=1e-12)


def test_evanescent_transmitted_current_exactly_zero():
    problem = StepProblem(energy=50.0, v0=100.0)
    j = currents(problem, solve_amplitudes_linear(problem))
    assert j.j_trans_up == 0.0
    assert j.j_trans_down == 0.0
    assert j.conservation_sum == pytest.approx(1.0, abs=1e-12)
    # the pole-free decaying columns carry no current before amplitude
    # weighting
    rows, _ = _continuity_matrix(problem)
    matrix = np.array(rows)
    assert mode_current(matrix[:, 2]) == 0.0
    assert mode_current(matrix[:, 3]) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    x=st.floats(min_value=1.001, max_value=20.0),
    v0=st.floats(min_value=0.1, max_value=1e6),
)
def test_property_current_conservation(x, v0):
    problem = StepProblem(energy=x * v0, v0=v0)
    j = currents(problem, solve_amplitudes_linear(problem))
    assert j.conservation_sum == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    log_ratio=st.floats(min_value=-4.0, max_value=2.0),
    log_v0=st.floats(min_value=-2.0, max_value=7.0),
    mass=st.sampled_from(POLE_MASSES),
    spin=st.sampled_from((Spin.UP, Spin.DOWN)),
    route=st.sampled_from((closed_form_amplitudes, solve_amplitudes_linear)),
)
def test_property_currents_equal_bilinears(log_ratio, log_v0, mass, spin, route):
    # each closed-form current equals the bilinear u^dagger (eta+eta^dagger) u
    # of its boundary mode, weighted by the mode's |amplitude|^2; decaying
    # modes carry none (test_evanescent_transmitted_current_exactly_zero)
    v0 = 10.0**log_v0
    energy = v0 * 10.0**log_ratio
    problem = StepProblem(energy=energy, v0=v0, mass=mass, incident_spin=spin)
    amps = route(problem)

    def current(kind, kinetic_energy):
        return mode_current(analytic_eigenstate(kind, kinetic_energy, mass))

    incident_kind = 1 if spin is Spin.UP else 2
    bilinear = {
        "j_inc": current(incident_kind, energy),
        "j_refl_up": abs(amps.b) ** 2 * current(3, energy),
        "j_refl_down": abs(amps.b_prime) ** 2 * current(4, energy),
        "j_trans_up": 0.0,
        "j_trans_down": 0.0,
    }
    if energy > v0:
        bilinear["j_trans_up"] = abs(amps.c) ** 2 * current(1, energy - v0)
        bilinear["j_trans_down"] = abs(amps.c_prime) ** 2 * current(2, energy - v0)
    closed = currents(problem, amps).to_json_dict()
    for name, want in bilinear.items():
        scale = max(abs(want), abs(closed[name]), bilinear["j_inc"])
        assert abs(closed[name] - want) <= 1e-12 * scale, name


# --------------------------------------------------------------- boundary


@pytest.mark.parametrize("spin", (Spin.UP, Spin.DOWN))
@pytest.mark.parametrize("energy,v0,mass", [
    (200.0, 100.0, ME),
    (3e6, 1e6, 2 * ME),
    (50.0, 100.0, ME),
    (1.0, 2e6, 1.0),
])
def test_continuity_basis_is_the_eigenstates(energy, v0, mass, spin):
    # the oracle's columns come from the eigenstate formulas, written once:
    # they equal analytic_eigenstate exactly, and reach the elimination as
    # Python numbers
    problem = StepProblem(energy=energy, v0=v0, mass=mass, incident_spin=spin)
    rows, rhs = _continuity_matrix(problem)
    assert all(type(z) in (float, complex) for row in [*rows, rhs] for z in row)
    matrix = np.array(rows)
    assert np.array_equal(matrix[:, 0], analytic_eigenstate(3, energy, mass))
    assert np.array_equal(matrix[:, 1], analytic_eigenstate(4, energy, mass))
    if energy > v0:
        region_two = [analytic_eigenstate(kind, energy - v0, mass) for kind in (1, 2)]
    else:
        s, r = math.sqrt(v0 - energy), math.sqrt(mass)
        region_two = [
            np.array([s + r, s + r, 1j * (s - r), -1j * (s - r)]),
            np.array([s - r, r - s, 1j * (s + r), 1j * (s + r)]),
        ]
    assert np.array_equal(matrix[:, 2], -region_two[0])
    assert np.array_equal(matrix[:, 3], -region_two[1])
    incident = analytic_eigenstate(1 if spin is Spin.UP else 2, energy, mass)
    assert np.array_equal(np.array(rhs), -incident)


def residual_of_zero_amplitudes(problem: StepProblem) -> float:
    return continuity_residual(problem, AmplitudeSet(problem, 0j, 0j, 0j, 0j))


def test_continuity_residual_zero_amplitudes():
    assert residual_of_zero_amplitudes(StepProblem(energy=200.0, v0=100.0)) >= 1.0


def test_continuity_residual_of_non_finite_amplitudes_is_not_finite():
    # a nan or an infinite amplitude, in any slot, never reads as continuous
    problem = StepProblem(energy=200.0, v0=100.0)
    amps = closed_form_amplitudes(problem)
    for field in ("b", "b_prime", "c", "c_prime"):
        for bad in (math.nan, math.inf):
            residual = continuity_residual(problem, amps._replace(**{field: complex(bad, 0.0)}))
            assert not math.isfinite(residual), (field, bad)


def test_continuity_residual_closed_form_path():
    for energy, v0 in [(200.0, 100.0), (50.0, 100.0), (2e6, 1e6)]:
        problem = StepProblem(energy=energy, v0=v0)
        closed = closed_form_amplitudes(problem)
        assert continuity_residual(problem, closed) <= 1e-10


# every positive double, subnormals and the largest included
POSITIVE_DOUBLES = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def qr_residual(problem, amps) -> float:
    """continuity_residual's measure with the projection onto the region-II
    columns taken from numpy's Householder QR, which assumes nothing of the
    columns."""
    rows, rhs = _continuity_matrix(problem)
    matrix = np.array(rows, dtype=complex)
    left = matrix[:, :2] @ [amps.b, amps.b_prime] - rhs
    q, _ = np.linalg.qr(matrix[:, 2:])
    off_span = left - q @ (q.conj().T @ left)
    upper = left[:2] - [amps.c, amps.c_prime]
    return float(max(np.linalg.norm(off_span), np.linalg.norm(upper)))


@settings(max_examples=300, deadline=None)
@example(1e3, 1e3 + ME, ME, Spin.UP)  # the mass pole V0 - E = m
@example(1e3, 1e3 + ME, ME, Spin.DOWN)
@example(100.0, 100.0, ME, Spin.UP)  # the threshold E = V0
@example(4.474999244675128e-52, 4.474999244675128e-52, 8.213591773403413e-300, Spin.DOWN)
# 2*E*m overflows: the system is not finite, the closed forms are
@example(2.661956350506187e56, 2.147996056811728e-171, 4.537048608995691e251, Spin.UP)
@given(energy=POSITIVE_DOUBLES, v0=POSITIVE_DOUBLES, mass=POSITIVE_DOUBLES,
       spin=st.sampled_from((Spin.UP, Spin.DOWN)))
def test_continuity_residual_is_the_qr_projection(energy, v0, mass, spin):
    # the region-II columns are orthogonal and of equal norm, so removing
    # each normalized column once is the orthogonal projection: on both
    # routes' finite amplitudes, wherever the system is finite, the residual
    # is within 1e-14 of the one projected through numpy's QR; where an
    # entry of the system is not finite it is refused
    problem = StepProblem(energy, v0, mass, spin)
    rows, _ = _continuity_matrix(problem)
    finite = np.isfinite(np.array(rows, dtype=complex)).all()
    for route in (closed_form_amplitudes, solve_amplitudes_linear):
        try:
            amps = route(problem)
        except (PrecisionError, RuntimeError):
            continue
        if not all(math.isfinite(x) for z in amps[1:] for x in (z.real, z.imag)):
            continue
        if not finite:
            with pytest.raises(PrecisionError, match="the continuity system is not finite"):
                continuity_residual(problem, amps)
            continue
        assert abs(continuity_residual(problem, amps) - qr_residual(problem, amps)) <= 1e-14


@settings(max_examples=300, deadline=None)
@example(1e-200, 1e-250, 1e-250, Spin.UP)
@example(1.909664723458892e-279, 1.047440777301433e-211, 1.3463167317287237e-146, Spin.DOWN)
# overflow: nan currents, an infinite j_inc, an infinite E/V0
@example(1e300, 1e299, ME, Spin.UP)
@example(8.642789733510597e29, 2.8657905150671188e-148, 1.2517607382783581e278, Spin.DOWN)
@example(7.796878006602118e100, 4.849439980930081e-300, 1.401909178672337e-4, Spin.UP)
@given(energy=POSITIVE_DOUBLES, v0=POSITIVE_DOUBLES, mass=POSITIVE_DOUBLES,
       spin=st.sampled_from((Spin.UP, Spin.DOWN)))
def test_point_route_returns_or_refuses_every_positive_double(energy, v0, mass, spin):
    # StepProblem -> closed_form_amplitudes -> coefficients -> currents ends
    # in a result of finite numbers or a typed refusal: never a
    # ZeroDivisionError from a denominator that underflows to 0, nor nan or
    # inf from an overflow
    try:
        problem = StepProblem(energy=energy, v0=v0, mass=mass, incident_spin=spin)
        amps = closed_form_amplitudes(problem)
        row = coefficients(problem, amps)
        current = currents(problem, amps)
    except PrecisionError:
        return
    except ValueError as exc:
        # the one untyped refusal: where a closed-form denominator overflows
        # or goes subnormal, finite probabilities fail the unit sum
        assert type(exc) is ValueError and "violate unitarity" in str(exc)
        return
    assert abs(row.total - 1.0) <= 1e-12
    assert all(map(math.isfinite, (*row, *current)))
    # the route derives the branch and momenta inline and builds its results
    # with tuple.__new__: bit for bit these expressions' values, and the
    # types and values of the generated constructors
    propagating = energy > v0
    assert type(amps) is AmplitudeSet
    assert amps == AmplitudeSet(problem, *amps[1:]) and amps.problem is problem
    assert type(row) is (PropagatingRow if propagating else EvanescentRow)
    assert row == type(row)(*row)
    r_up, r_down, t_up, t_down = (_abs2(z.real, z.imag) for z in amps[1:])
    j_inc = 4.0 * math.sqrt(2.0 * energy * mass) / (energy + mass)
    j_trans = (0.0, 0.0)
    if propagating:
        per_amplitude = 4.0 * math.sqrt(2.0 * abs(energy - v0) * mass) / (energy + mass - v0)
        j_trans = (per_amplitude * t_up, per_amplitude * t_down)
    expected = CurrentDensities(j_inc, -j_inc * r_up, -j_inc * r_down, *j_trans)
    assert type(current) is CurrentDensities
    assert current == expected and repr(current) == repr(expected)


@settings(max_examples=300, deadline=None)
# a zero pivot of the elimination
@example(4.474999244675128e-52, 3.160220296519332e90, 8.213591773403413e-300, Spin.UP)
# an entry of the system overflows: a nan backward error
@example(1.900779840119371e279, 3.6026157030657704e-09, 8.721658367086122e250, Spin.DOWN)
@given(energy=POSITIVE_DOUBLES, v0=POSITIVE_DOUBLES, mass=POSITIVE_DOUBLES,
       spin=st.sampled_from((Spin.UP, Spin.DOWN)))
def test_oracle_returns_or_refuses_every_positive_double(energy, v0, mass, spin):
    # StepProblem -> solve_amplitudes_linear ends in finite amplitudes, a
    # typed refusal or the refusal of a finite backward error above the
    # bound: never an untyped exception, never a nan backward error, and
    # never nan or inf accepted
    try:
        problem = StepProblem(energy, v0, mass, spin)
        amps = solve_amplitudes_linear(problem)
    except PrecisionError:
        return
    except RuntimeError as exc:
        words = str(exc).split()
        assert words[:3] == ["continuity", "backward", "error"]
        assert math.isfinite(float(words[3]))
        return
    assert all(math.isfinite(z.real) and math.isfinite(z.imag) for z in amps[1:])
    assert type(amps) is AmplitudeSet
    assert amps == AmplitudeSet(problem, *amps[1:]) and amps.problem is problem


@settings(max_examples=300, deadline=None)
@example(200.0, 100.0, ME, Spin.UP)
@example(200.0, 100.0, ME, Spin.DOWN)
@given(energy=POSITIVE_DOUBLES, v0=POSITIVE_DOUBLES, mass=POSITIVE_DOUBLES,
       spin=st.sampled_from((Spin.UP, Spin.DOWN)))
def test_oracle_channel_without_incident_wave_is_continuous_exactly(energy, v0, mass, spin):
    # row 1 (row 0 for spin down) of the continuity system has a zero
    # right-hand side, -0.0, so the elimination's b' = (-0.0 - b2 x2) - b3 x3
    # and c' = -(b2 x2 + b3 x3) are one rounded sum, negated: equal under
    # ==, in both branches, wherever the oracle returns
    try:
        amps = solve_amplitudes_linear(StepProblem(energy, v0, mass, spin))
    except (PrecisionError, RuntimeError):
        return
    if spin is Spin.UP:
        assert amps.b_prime == amps.c_prime
    else:
        assert amps.b == amps.c


def _point_route(energy, v0, mass=ME):
    problem = StepProblem(energy, v0, mass)
    amps = closed_form_amplitudes(problem)
    return coefficients(problem, amps), currents(problem, amps)


@pytest.mark.parametrize("refused, what", [
    (lambda: _point_route(1e-200, 1e-250, 1e-250), "a denominator underflows to 0"),
    (lambda: _point_route(1e300, 1e299), "probabilities {'t1': nan"),
    (lambda: _point_route(7.796878006602118e100, 4.849439980930081e-300, 1.4e-4),
     "E/V0 overflows"),
    (lambda: _point_route(8.642789733510597e29, 2.8657905150671188e-148, 1.25e278),
     "a current is not finite"),
    (lambda: run_sweep(SweepSpec(v0=1e300)), "probabilities {'t1': nan"),
    (lambda: analytic_eigenstate(1, 1e300, 1e300), "the eigenstate is not finite"),
    (lambda: shell_determinant(1e200, 1e-200, (0, 0, 1e-200)),
     "max(|p|^2, 2*E*m)^2 underflows"),
    (lambda: squared_operator_check((0, 0, 0), energy=1e200, mass=1e-200), "2*E*m underflows"),
    (lambda: solve_amplitudes_linear(
        StepProblem(4.474999244675128e-52, 3.160220296519332e90, 8.213591773403413e-300)),
     "a pivot of the continuity solve is 0"),
    (lambda: solve_amplitudes_linear(
        StepProblem(1.900779840119371e279, 3.6026157030657704e-09, 8.721658367086122e250)),
     "the continuity system is not finite"),
    # 2*E*m overflows, so the reflected modes' lower components are not finite
    (lambda: residual_of_zero_amplitudes(
        StepProblem(2.661956350506187e56, 2.147996056811728e-171, 4.537048608995691e251)),
     "the continuity system is not finite"),
], ids=["underflow", "probabilities", "E/V0", "current", "sweep", "eigenstate",
        "shell_determinant", "squared_operator_check", "oracle_pivot", "oracle_overflow",
        "residual_overflow"])
def test_every_precision_refusal_is_one_kind_with_one_wording(refused, what):
    with pytest.raises(PrecisionError) as info:
        refused()
    message = str(info.value)
    assert message.startswith("E = ")
    assert f" eV are beyond what double precision resolves: {what}" in message
