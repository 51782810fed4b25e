import math

import numpy as np
import pytest

from spinstep.algebra import EtaRepresentation, eta, eta_dagger, max_abs
from spinstep.eigensystem import (
    ELECTRON_MASS_EV,
    analytic_eigenstate,
    momentum_operator,
    verify_dispersion,
)

ME = ELECTRON_MASS_EV


def test_operator_assembly():
    op = momentum_operator(3.0, 5.0)
    expected = 3.0 * eta() + 5.0 * eta_dagger()
    assert max_abs(op - expected) == 0.0


def test_operator_rejects_bad_inputs():
    with pytest.raises(ValueError):
        momentum_operator(-1.0, 1.0)
    with pytest.raises(ValueError):
        momentum_operator(1.0, 0.0)


def test_eigenvalues_at_unit_energy_mass():
    values, vectors = np.linalg.eig(momentum_operator(1.0, 1.0))
    target = np.array([-np.sqrt(2), -np.sqrt(2), np.sqrt(2), np.sqrt(2)])
    assert np.allclose(np.sort_complex(values), target, atol=1e-10)
    # four independent eigenvectors: not defective
    assert np.linalg.cond(vectors) <= 1e6


def test_zero_energy_operator_is_nilpotent():
    op = momentum_operator(0.0, 7.0)
    assert max_abs(op - 7.0 * eta_dagger()) == 0.0
    values, vectors = np.linalg.eig(op)
    # nilpotent: every eigenvalue collapses to zero, and the eigenvectors
    # (at the sqrt(eps) cliff) cannot span four directions
    assert np.abs(values).max() <= 1e-6
    assert np.linalg.cond(vectors) > 1e6


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


def test_analytic_states_lie_in_numeric_eigenspaces():
    report = verify_dispersion(EtaRepresentation.REP1, energies=[1.0, 100.0, 1e6])
    assert report["eigenspace_projection"].max_deviation <= 1e-9


def test_dispersion_report_both_reps():
    assert verify_dispersion(EtaRepresentation.REP1).passed
    assert verify_dispersion(EtaRepresentation.REP2).passed


@pytest.mark.filterwarnings("error")
def test_dispersion_refuses_bad_energies():
    for energies in ([0.0, 1.0], [-1.0], [math.nan], [math.inf]):
        with pytest.raises(ValueError):
            verify_dispersion(energies=energies)


def test_eigenstate_kind_validation():
    for kind in (0, 5):
        with pytest.raises(ValueError):
            analytic_eigenstate(kind, 1.0, 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("energy,mass", [
    (-1.0, 1.0),
    (1.0, 0.0),
    (math.nan, 1.0),
    (math.inf, 1.0),
    (1.0, math.nan),
    (1.0, math.inf),
    (1e300, 1e300),  # 2*E*m overflows
    (1e-320, 1e-320),  # 1/(E+m) overflows
])
def test_eigenstate_refuses_energy_and_mass(energy, mass):
    for kind in (1, 2, 3, 4):
        with pytest.raises(ValueError):
            analytic_eigenstate(kind, energy, mass)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("energy,mass", [
    (np.float64(1e300), 1e300),  # 2*E*m overflows, in numpy scalar arithmetic
    (np.float64(1e-320), 1e-320),  # 1/(E+m) overflows, in numpy scalar arithmetic
])
def test_eigenstate_refuses_numpy_scalars_without_warning(energy, mass):
    for kind in (1, 2, 3, 4):
        with pytest.raises(ValueError):
            analytic_eigenstate(kind, energy, mass)
