import math
import sys

import numpy as np
import pytest

from spinstep import algebra
from spinstep.algebra import EtaRepresentation, eta, eta_dagger, verify_dispersion
from spinstep.eigensystem import analytic_eigenstate, momentum_operator
from spinstep.scattering import ELECTRON_MASS_EV, PrecisionError, _eigen_spinors

ME = ELECTRON_MASS_EV


def max_abs(m) -> float:
    """Largest entry magnitude of an array."""
    return float(np.abs(np.asarray(m)).max())


def test_operator_assembly():
    op = momentum_operator(3.0, 5.0)
    expected = 3.0 * eta() + 5.0 * eta_dagger()
    assert max_abs(op - expected) == 0.0


def test_operator_rejects_bad_inputs():
    # E = 0 too, as at every other entry point: a plain ValueError
    for energy, mass in ((-1.0, 1.0), (1.0, 0.0), (math.inf, 1.0), (1.0, math.inf), (0.0, 7.0)):
        with pytest.raises(ValueError, match="must be positive and finite") as refused:
            momentum_operator(energy, mass)
        assert type(refused.value) is ValueError


def test_eigenvalues_at_unit_energy_mass():
    values, vectors = np.linalg.eig(momentum_operator(1.0, 1.0))
    target = np.array([-np.sqrt(2), -np.sqrt(2), np.sqrt(2), np.sqrt(2)])
    assert np.allclose(np.sort_complex(values), target, atol=1e-10)
    # four independent eigenvectors: not defective
    assert np.linalg.cond(vectors) <= 1e6


def test_electron_scale_eigenvalues():
    # frozen oracle: sqrt(2*100*510998.95)
    expected = 10109.391178503283
    for lam in np.linalg.eigvals(momentum_operator(100.0, ME)):
        assert min(abs(lam - expected), abs(lam + expected)) <= 1e-10 * expected
        assert abs(lam.imag) <= 1e-10 * expected


def test_analytic_eigenstate_components():
    energy, mass = 100.0, ME
    u = analytic_eigenstate(1, energy, mass)
    a = 1.0 / (energy + mass)
    p = np.sqrt(2 * energy * mass)
    assert u.shape == (4,)
    assert u[0] == 1
    assert u[1] == 0
    assert u[2] == 1j * a * (energy - mass)
    assert u[3] == -np.sqrt(2) * a * p


def test_normalization_and_orthogonality():
    for energy in (1.0, 50.0, 2e5):
        states = {k: analytic_eigenstate(k, energy, ME) for k in (1, 2, 3, 4)}
        for u in states.values():
            assert abs(np.vdot(u, u).real - 2.0) <= 1e-12
        assert abs(np.vdot(states[1], states[2])) <= 1e-12
        assert abs(np.vdot(states[3], states[4])) <= 1e-12


def test_eigenstates_solve_eigenproblem():
    energy, mass = 250.0, ME
    op = momentum_operator(energy, mass)
    p = np.sqrt(2 * energy * mass)
    for kind, lam in ((1, p), (2, p), (3, -p), (4, -p)):
        u = analytic_eigenstate(kind, energy, mass)
        residual = np.linalg.norm(op @ u - lam * u)
        assert residual <= 1e-12 * abs(lam) * np.linalg.norm(u)


def test_direction_flip_relation_exact():
    # u3(E) equals u1(E) with the momentum-carrying components negated
    for energy in (1.0, 123.0, 1e6):
        u1 = analytic_eigenstate(1, energy, ME)
        u3 = analytic_eigenstate(3, energy, ME)
        assert u3[0] == u1[0] and u3[1] == u1[1] and u3[2] == u1[2]
        assert u3[3] == -u1[3]
        u2 = analytic_eigenstate(2, energy, ME)
        u4 = analytic_eigenstate(4, energy, ME)
        assert u4[2] == -u2[2]
        assert u4[3] == u2[3]


def _swapped_spinors(energy, mass, momentum):
    _, u2, u3, u4 = _eigen_spinors(energy, mass, momentum)
    return u3, u2, u3, u4


def _dispersion_grid(monkeypatch, rep=EtaRepresentation.REP1) -> list:
    """The energies verify_dispersion(rep) checks, recorded as its operator
    square check receives them, each at the electron mass."""
    square_deviation = algebra._square_deviation
    seen = []

    def recording(n, pairs):
        seen.extend(pairs)
        return square_deviation(n, pairs)

    with monkeypatch.context() as patch:
        patch.setattr(algebra, "_square_deviation", recording)
        assert verify_dispersion(rep).passed
    assert {m for _, m in seen} == {ME}
    return [e for e, _ in seen]


def test_eigen_equation_residual_is_relative_to_the_eigenvalue_and_state(monkeypatch):
    # u^(3), a -p state, in u^(1)'s +p slot: (A - p) u3 = -2p u3, a residual
    # of 2 relative to |p| |u3|, the worst over the grid
    monkeypatch.setattr(algebra, "_eigen_spinors", _swapped_spinors)
    report = verify_dispersion()
    check = {c.name: c for c in report.checks}["eigen_equation_residual"]
    assert not check.passed
    assert check.max_deviation == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("rep", [EtaRepresentation.REP1, EtaRepresentation.REP2])
def test_bent_table_fails_the_operator_square_check(monkeypatch, rep):
    # (E*eta + m*eta_dagger)^2 - 2*E*m*I over 2*E*m, worst over the grid,
    # against the square of the bent operator taken directly
    energies = _dispersion_grid(monkeypatch, rep)
    bent = algebra._sum((1, algebra._SQRT2_ETA[rep]), (1e-6, algebra._EYE))
    monkeypatch.setitem(algebra._SQRT2_ETA, rep, bent)
    report = verify_dispersion(rep)
    bent_eta = np.array(bent) / np.sqrt(2.0)
    expected = max(
        max_abs(op @ op - 2 * energy * ME * np.eye(4)) / (2 * energy * ME)
        for energy in energies
        for op in [energy * bent_eta + ME * bent_eta.conj().T]
    )
    check = {c.name: c for c in report.checks}["operator_square_is_2Em_identity"]
    assert not check.passed
    assert check.max_deviation == pytest.approx(expected, rel=1e-9)


def test_dispersion_default_grid_is_100_log_points_from_1_ev_to_10_mev(monkeypatch):
    # the energies the report prints deviations for: 10**(7k/99) eV, k = 0..99,
    # bit for bit, in both representations
    grid = [float.hex(10.0 ** (7.0 * k / 99)) for k in range(100)]
    for rep in EtaRepresentation:
        assert list(map(float.hex, _dispersion_grid(monkeypatch, rep))) == grid


def test_dispersion_grid_resolves_the_eigen_equation_residual(monkeypatch):
    # the residual rounds to about eps*|A|/p, |A| = 2*hypot(E, m) and
    # p = sqrt(2*E*m): within its bound at every grid energy, so a failed
    # eigen_equation_residual is never rounding; the worst is at 1 eV
    rounding = [
        sys.float_info.epsilon * 2.0 * math.hypot(e, ME) / math.sqrt(2.0 * e * ME)
        for e in _dispersion_grid(monkeypatch)
    ]
    assert max(rounding) == rounding[0] == pytest.approx(2.24e-13, rel=1e-3)
    assert max(rounding) <= algebra._STATE_TOL


def test_dispersion_report_both_reps():
    # REP2 runs only the operator square: the closed-form states are REP1's,
    # so its report omits the three state checks rather than pass them unrun
    rep1 = verify_dispersion(EtaRepresentation.REP1)
    rep2 = verify_dispersion(EtaRepresentation.REP2)
    assert rep1.passed and rep2.passed
    assert [c.name for c in rep1.checks] == [
        "operator_square_is_2Em_identity", "state_norm_is_2",
        "states_orthogonal_per_direction", "eigen_equation_residual",
    ]
    assert [c.name for c in rep2.checks] == ["operator_square_is_2Em_identity"]


def test_eigenstate_kind_validation():
    for kind in (0, 5):
        with pytest.raises(ValueError):
            analytic_eigenstate(kind, 1.0, 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("energy,mass", [
    (-1.0, 1.0),
    (0.0, 1.0),
    (1.0, 0.0),
    (math.nan, 1.0),
    (math.inf, 1.0),
    (1.0, math.nan),
    (1.0, math.inf),
    (1e300, 1e300),  # 2*E*m overflows
    (1e308, 1e308),  # E + m overflows
    (1e-320, 1e-320),  # 1/(E+m) overflows
])
def test_eigenstate_refuses_energy_and_mass(energy, mass):
    # invalid inputs are plain ValueErrors; valid ones whose spinor double
    # precision cannot hold are PrecisionErrors
    valid = 0 < energy < math.inf and 0 < mass < math.inf
    for kind in (1, 2, 3, 4):
        with pytest.raises(ValueError) as refused:
            analytic_eigenstate(kind, energy, mass)
        assert type(refused.value) is (PrecisionError if valid else ValueError)
        assert valid or "must be positive and finite" in str(refused.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("energy,mass", [
    (np.float64(1e300), 1e300),  # 2*E*m overflows, in numpy scalar arithmetic
    (np.float64(1e-320), 1e-320),  # 1/(E+m) overflows, in numpy scalar arithmetic
])
def test_eigenstate_refuses_numpy_scalars_without_warning(energy, mass):
    for kind in (1, 2, 3, 4):
        with pytest.raises(ValueError):
            analytic_eigenstate(kind, energy, mass)
