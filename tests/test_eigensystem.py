import numpy as np
import pytest

from spinstep.algebra import EtaRepresentation, eta, eta_dagger, max_abs
from spinstep.eigensystem import (
    ELECTRON_MASS_EV,
    Direction,
    PlaneWaveState,
    Spin,
    analytic_eigenstate,
    eigenspace_projection_residual,
    momentum_operator,
    numeric_eigensystem,
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
    decomp = numeric_eigensystem(momentum_operator(1.0, 1.0))
    values = np.sort_complex(decomp.values)
    target = np.array([-np.sqrt(2), -np.sqrt(2), np.sqrt(2), np.sqrt(2)])
    assert np.allclose(values, target, atol=1e-10)
    assert not decomp.defective


def test_zero_energy_operator_is_nilpotent():
    op = momentum_operator(0.0, 7.0)
    assert max_abs(op - 7.0 * eta_dagger()) == 0.0
    decomp = numeric_eigensystem(op)
    # nilpotent: every eigenvalue collapses to zero (defective at the
    # sqrt(eps) cliff, which the decomposition must flag)
    assert np.abs(decomp.values).max() <= 1e-6
    assert decomp.defective


def test_electron_scale_eigenvalues():
    # frozen oracle: sqrt(2*100*510998.95)
    expected = 10109.391178503283
    decomp = numeric_eigensystem(momentum_operator(100.0, ME))
    for lam in decomp.values:
        assert min(abs(lam - expected), abs(lam + expected)) <= 1e-10 * expected
        assert abs(lam.imag) <= 1e-10 * expected


def test_numeric_eigensystem_identity():
    decomp = numeric_eigensystem(np.eye(4, dtype=complex))
    assert np.allclose(decomp.values, 1.0)
    assert not decomp.defective
    assert decomp.residuals.max() <= 1e-14


def test_numeric_eigensystem_of_eta_is_defective_zero():
    decomp = numeric_eigensystem(eta())
    assert np.abs(decomp.values).max() <= 1e-7
    assert decomp.defective


def test_numeric_residuals_bounded():
    for energy in (1.0, 1e3, 1e7):
        decomp = numeric_eigensystem(momentum_operator(energy, ME))
        assert decomp.residuals.max() <= 1e-10


@pytest.mark.parametrize("kind,spin,direction", [
    (1, Spin.UP, Direction.POSITIVE_Z),
    (2, Spin.DOWN, Direction.POSITIVE_Z),
    (3, Spin.UP, Direction.NEGATIVE_Z),
    (4, Spin.DOWN, Direction.NEGATIVE_Z),
])
def test_analytic_eigenstate_labels(kind, spin, direction):
    state = analytic_eigenstate(kind, 100.0, ME)
    assert state.spin is spin
    assert state.direction is direction
    sign = 1.0 if direction is Direction.POSITIVE_Z else -1.0
    assert state.momentum == pytest.approx(sign * 10109.391178503283, rel=1e-14)
    assert state.on_shell_deviation(ME) <= 1e-12


def test_analytic_eigenstate_components():
    energy, mass = 100.0, ME
    state = analytic_eigenstate(1, energy, mass)
    a = 1.0 / (energy + mass)
    p = np.sqrt(2 * energy * mass)
    assert state.spinor[0] == 1
    assert state.spinor[1] == 0
    assert state.spinor[2] == 1j * a * (energy - mass)
    assert state.spinor[3] == -np.sqrt(2) * a * p


def test_normalization_and_orthogonality():
    for energy in (1.0, 50.0, 2e5):
        states = {k: analytic_eigenstate(k, energy, ME) for k in (1, 2, 3, 4)}
        for state in states.values():
            assert abs(state.norm_squared() - 2.0) <= 1e-12
        assert abs(np.vdot(states[1].spinor, states[2].spinor)) <= 1e-12
        assert abs(np.vdot(states[3].spinor, states[4].spinor)) <= 1e-12


def test_eigenstates_solve_eigenproblem():
    energy, mass = 250.0, ME
    op = momentum_operator(energy, mass)
    p = np.sqrt(2 * energy * mass)
    for kind, lam in ((1, p), (2, p), (3, -p), (4, -p)):
        u = analytic_eigenstate(kind, energy, mass).spinor
        residual = np.linalg.norm(op @ u - lam * u)
        assert residual <= 1e-12 * abs(lam) * np.linalg.norm(u)


def test_direction_flip_relation_exact():
    # u3(E) equals u1(E) with the momentum-carrying components negated
    for energy in (1.0, 123.0, 1e6):
        u1 = analytic_eigenstate(1, energy, ME).spinor
        u3 = analytic_eigenstate(3, energy, ME).spinor
        assert u3[0] == u1[0] and u3[1] == u1[1] and u3[2] == u1[2]
        assert u3[3] == -u1[3]
        u2 = analytic_eigenstate(2, energy, ME).spinor
        u4 = analytic_eigenstate(4, energy, ME).spinor
        assert u4[2] == -u2[2]
        assert u4[3] == u2[3]


def test_analytic_states_lie_in_numeric_eigenspaces():
    for energy in (1.0, 100.0, 1e6):
        op = momentum_operator(energy, ME)
        decomp = numeric_eigensystem(op)
        p = np.sqrt(2 * energy * ME)
        for kind, lam in ((1, p), (2, p), (3, -p), (4, -p)):
            u = analytic_eigenstate(kind, energy, ME).spinor
            assert eigenspace_projection_residual(decomp, lam, u) <= 1e-9


def test_dispersion_report_both_reps():
    assert verify_dispersion(EtaRepresentation.REP1).passed
    assert verify_dispersion(EtaRepresentation.REP2).passed


def test_plane_wave_state_rejects_bad_norm():
    with pytest.raises(ValueError):
        PlaneWaveState(
            spinor=np.array([1.0, 0, 0, 0]),
            momentum=1.0,
            energy=1.0,
            spin=Spin.UP,
            direction=Direction.POSITIVE_Z,
        )


def test_state_json_shape():
    state = analytic_eigenstate(2, 10.0, ME)
    payload = state.to_json_dict()
    assert payload["spin"] == "down"
    assert payload["direction"] == "+z"
    assert len(payload["components"]) == 4
    assert all(len(pair) == 2 for pair in payload["components"])


def test_eigenstate_kind_validation():
    with pytest.raises(ValueError):
        analytic_eigenstate(5, 1.0, 1.0)
    with pytest.raises(ValueError):
        analytic_eigenstate(1, -1.0, 1.0)
