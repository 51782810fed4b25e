import numpy as np
import pytest

from spinstep.algebra import EtaRepresentation, anticommutator, eta, eta_dagger, gamma, max_abs, pauli
from spinstep.eigensystem import ELECTRON_MASS_EV
from spinstep.threed import (
    SINGULARITY_TOL,
    continuity_objects,
    mu_matrices,
    schrodinger_reduction_check,
    shell_determinant,
    squared_operator_check,
    verify_continuity_identities,
)

ME = ELECTRON_MASS_EV
REPS = [EtaRepresentation.REP1, EtaRepresentation.REP2]
I4 = np.eye(4, dtype=complex)


def test_mu_block_entries():
    mus = mu_matrices()
    assert mus.mu1[0, 0] == 1
    assert mus.mu1[1, 1] == -1
    assert mus.mu2[0, 3] == -1j
    assert mus.mu2[1, 2] == 1j
    assert mus.mu3[0, 1] == -1j
    assert mus.mu3[2, 3] == 1j


def test_mu_block_forms_match_gamma_products():
    mus = mu_matrices()
    z = np.zeros((2, 2), dtype=complex)
    assert max_abs(mus.mu1 - np.block([[pauli(3), z], [z, pauli(3)]])) == 0.0
    assert max_abs(mus.mu2 - np.block([[z, pauli(2)], [pauli(2), z]])) == 0.0
    assert max_abs(mus.mu3 - np.block([[pauli(2), z], [z, -pauli(2)]])) == 0.0
    assert max_abs(mus.mu1 - 1j * gamma(1) @ gamma(2)) == 0.0
    assert max_abs(mus.mu2 - gamma(0) @ gamma(2)) == 0.0
    assert max_abs(mus.mu3 - gamma(2) @ gamma(5)) == 0.0


def test_mu_hermitian_and_clifford():
    mus = tuple(mu_matrices())
    for mu in mus:
        assert max_abs(mu - mu.conj().T) == 0.0
    for i in range(3):
        for j in range(3):
            target = 2.0 * I4 if i == j else 0.0
            assert max_abs(anticommutator(mus[i], mus[j]) - target) <= 1e-15


def test_mu1_mu2_anticommute_to_zero():
    mus = mu_matrices()
    assert max_abs(anticommutator(mus.mu1, mus.mu2)) == 0.0


@pytest.mark.parametrize("rep", REPS)
def test_continuity_identity_report(rep):
    report = verify_continuity_identities(rep)
    assert report.passed
    assert report.max_deviation <= 1e-15
    names = {c.name for c in report.checks}
    assert "commutator_mu2_gamma3" in names
    assert "anticommutator_eta_plus_dagger_gamma3" in names
    assert "sigma2_hermitian" in names
    assert "density_kernel_hermitian" in names


@pytest.mark.parametrize("rep", REPS)
def test_continuity_kernels_hermitian(rep):
    objs = continuity_objects(rep)
    for sigma in objs.sigmas:
        assert max_abs(sigma - sigma.conj().T) <= 1e-15
    assert max_abs(objs.density - objs.density.conj().T) <= 1e-15


def test_density_kernel_is_dagger_product():
    # Gamma = i*eta^dagger*eta*gamma3 collapses to eta^dagger*eta itself
    objs = continuity_objects(EtaRepresentation.REP1)
    e, ed = eta(), eta_dagger()
    assert max_abs(objs.density - ed @ e) <= 1e-15


def test_squared_operator_identities():
    report = squared_operator_check((0.0, 0.0, 2.5))
    assert report.passed
    report = squared_operator_check((1.0, 2.0, 2.0), energy=3.0, mass=0.5)
    assert report.passed
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = rng.normal(size=3)
        assert squared_operator_check(p, energy=rng.uniform(0.5, 2), mass=rng.uniform(0.5, 2)).passed


def test_squared_energy_mass_operator_value():
    op = 1.0 * eta() + 1.0 * eta_dagger()
    assert max_abs(op @ op - 2.0 * I4) <= 1e-15


def test_momentum_square_reproduces_norm():
    mus = tuple(mu_matrices())
    p = np.array([1.0, 2.0, 2.0])
    mp = sum(p[i] * mus[i] for i in range(3))
    assert max_abs(mp @ mp - float(p @ p) * I4) <= 1e-12 * float(p @ p)


def test_operator_square_is_shifted_identity():
    # (mu.p - E*eta - m*eta_dagger)^2 = (|p|^2 + 2*E*m) * I: the mu's
    # anticommute with eta and eta_dagger, so the cross terms cancel and the
    # default-sign operator is nonsingular for every real momentum
    rng = np.random.default_rng(5)
    mus = tuple(mu_matrices())
    for _ in range(10):
        p = rng.normal(size=3) * rng.uniform(1, 1e3)
        energy, mass = rng.uniform(0.5, 1e3), rng.uniform(0.5, 1e3)
        op = sum(p[i] * mus[i] for i in range(3)) - energy * eta() - mass * eta_dagger()
        expected = (float(p @ p) + 2 * energy * mass) * I4
        assert max_abs(op @ op - expected) <= 1e-12 * (float(p @ p) + 2 * energy * mass)


def test_shell_determinant_default_sign_never_singular():
    rng = np.random.default_rng(17)
    for _ in range(20):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        energy = 10 ** rng.uniform(0, 6)
        p_on = np.sqrt(2 * energy * ME) * direction
        is_singular, det_on = schrodinger_reduction_check(energy, ME, p_on)
        assert not is_singular
        # on-shell the raw determinant is (4*E*m)^2, i.e. 4 after scaling
        assert det_on == pytest.approx(4.0, rel=1e-9)
        _, det_off = schrodinger_reduction_check(energy, ME, 1.1 * p_on)
        assert det_off > SINGULARITY_TOL


def test_shell_determinant_flipped_sign_singular_exactly_on_shell():
    rng = np.random.default_rng(23)
    for _ in range(20):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        energy = 10 ** rng.uniform(0, 6)
        p_on = np.sqrt(2 * energy * ME) * direction
        assert shell_determinant(energy, ME, p_on, mass_sign=-1) <= 1e-12
        # 1.1x off shell: ((1.21 - 1)/1.21)^2 = 0.0301...
        assert shell_determinant(energy, ME, 1.1 * p_on, mass_sign=-1) > 1e-3
        assert shell_determinant(energy, ME, 0.9 * p_on, mass_sign=-1) > 1e-3


def test_shell_determinant_along_z_axis():
    energy = 100.0
    p = np.array([0.0, 0.0, np.sqrt(2 * energy * ME)])
    singular, value = schrodinger_reduction_check(energy, ME, p)
    assert not singular and value > 0
    assert shell_determinant(energy, ME, p, mass_sign=-1) <= 1e-12


def test_shell_determinant_input_validation():
    with pytest.raises(ValueError):
        shell_determinant(-1.0, ME, (0, 0, 1))
    with pytest.raises(ValueError):
        shell_determinant(1.0, ME, (0, 0))
    with pytest.raises(ValueError):
        shell_determinant(1.0, ME, (0, 0, 1), mass_sign=2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("energy, mass, momentum", [
    (np.nan, 1.0, (0, 0, 1)),
    (np.inf, 1.0, (0, 0, 1)),
    (1.0, np.nan, (0, 0, 1)),
    (1.0, -1.0, (0, 0, 1)),
    (-1.0, 1.0, (0, 0, 1)),
    (1.0, 1.0, (np.nan, 0, 1)),
    (1.0, 1.0, (0, np.inf, 1)),
])
def test_threed_probes_refuse_bad_inputs(energy, mass, momentum):
    # refused like StepProblem refuses them, never a nan, a numpy warning or
    # a failed identity
    with pytest.raises(ValueError):
        shell_determinant(energy, mass, momentum)
    with pytest.raises(ValueError):
        schrodinger_reduction_check(energy, mass, momentum)
    with pytest.raises(ValueError):
        squared_operator_check(momentum, energy=energy, mass=mass)
