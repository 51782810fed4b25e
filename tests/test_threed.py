import warnings

import numpy as np
import pytest

from spinstep.algebra import (
    SINGULARITY_TOL,
    EtaRepresentation,
    _continuity_tables,
    _momentum_matrix,
    eta,
    eta_dagger,
    gamma,
    mu_matrices,
    schrodinger_reduction_check,
    shell_determinant,
    squared_operator_check,
    verify_continuity_identities,
)
from spinstep.scattering import ELECTRON_MASS_EV, PrecisionError

ME = ELECTRON_MASS_EV
REPS = [EtaRepresentation.REP1, EtaRepresentation.REP2]
I4 = np.eye(4, dtype=complex)
# the Pauli matrices, written out as an independent reference
SIGMA2 = np.array([[0, -1j], [1j, 0]])
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
Z2 = np.zeros((2, 2), dtype=complex)
MU_BLOCKS = (
    np.block([[SIGMA3, Z2], [Z2, SIGMA3]]),
    np.block([[Z2, SIGMA2], [SIGMA2, Z2]]),
    np.block([[SIGMA2, Z2], [Z2, -SIGMA2]]),
)


def max_abs(m) -> float:
    """Largest entry magnitude of an array."""
    return float(np.abs(np.asarray(m)).max())


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
    for mu, block in zip(mus, MU_BLOCKS):
        assert max_abs(mu - block) == 0.0
    assert max_abs(mus.mu1 - 1j * gamma(1) @ gamma(2)) == 0.0
    assert max_abs(mus.mu2 - gamma(0) @ gamma(2)) == 0.0
    assert max_abs(mus.mu3 - gamma(2) @ gamma(5)) == 0.0


def test_momentum_matrix_is_p_dot_mu_of_the_block_forms():
    # the operator itself, not only identities that hold for either sign of
    # a term: p . mu with mu1 = diag(s3, s3), mu2 = antidiag(s2, s2) and
    # mu3 = diag(s2, -s2)
    mu1, mu2, mu3 = MU_BLOCKS
    p = np.array([0.3, -0.5, 0.7])
    assert max_abs(_momentum_matrix(p) - (0.3 * mu1 - 0.5 * mu2 + 0.7 * mu3)) == 0.0


def test_mu_hermitian_and_clifford():
    mus = tuple(mu_matrices())
    for mu in mus:
        assert max_abs(mu - mu.conj().T) == 0.0
    for i in range(3):
        for j in range(3):
            target = 2.0 * I4 if i == j else 0.0
            assert max_abs(mus[i] @ mus[j] + mus[j] @ mus[i] - target) <= 1e-15


def test_mu1_mu2_anticommute_to_zero():
    mus = mu_matrices()
    assert max_abs(mus.mu1 @ mus.mu2 + mus.mu2 @ mus.mu1) == 0.0


@pytest.mark.parametrize("rep", REPS)
def test_continuity_identity_report(rep):
    # exactly, on the tables
    report = verify_continuity_identities(rep)
    assert report.passed
    assert report.max_deviation == 0.0
    names = {c.name for c in report.checks}
    assert "commutator_mu2_gamma3" in names
    assert "anticommutator_eta_plus_dagger_gamma3" in names
    assert "sigma2_hermitian" in names
    assert "density_kernel_hermitian" in names


def continuity_kernels(rep):
    """Sigma_1..3 and Gamma as arrays, from the tables the report checks."""
    sigmas, density = _continuity_tables(rep)
    return [np.array(s) / np.sqrt(2.0) for s in sigmas], np.array(density) / 2.0


@pytest.mark.parametrize("rep", REPS)
def test_continuity_kernels_hermitian(rep):
    # the tables are Sigma_i = i mu_i (eta + eta^dagger) gamma3 and
    # Gamma = i eta^dagger eta gamma3, and each is Hermitian
    sigmas, density = continuity_kernels(rep)
    e, ed, g3 = eta(rep), eta_dagger(rep), gamma(3)
    for sigma, mu in zip(sigmas, mu_matrices()):
        assert max_abs(sigma - 1j * mu @ (e + ed) @ g3) <= 1e-15
        assert max_abs(sigma - sigma.conj().T) <= 1e-15
    assert max_abs(density - 1j * ed @ e @ g3) <= 1e-15
    assert max_abs(density - density.conj().T) <= 1e-15


def test_density_kernel_is_dagger_product():
    # Gamma = i*eta^dagger*eta*gamma3 collapses to eta^dagger*eta itself
    _, density = continuity_kernels(EtaRepresentation.REP1)
    e, ed = eta(), eta_dagger()
    assert max_abs(density - ed @ e) <= 1e-15


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
    (1.0, np.inf, (0, 0, 1)),
    (0.0, 1.0, (0, 0, 1)),
    (1.0, 0.0, (0, 0, 1)),
])
def test_threed_probes_refuse_bad_inputs(energy, mass, momentum):
    # refused like StepProblem refuses them, as invalid rather than beyond
    # double precision, never a nan, a numpy warning or a failed identity
    for probe in (shell_determinant, schrodinger_reduction_check):
        with pytest.raises(ValueError) as refused:
            probe(energy, mass, momentum)
        assert type(refused.value) is ValueError
    with pytest.raises(ValueError) as refused:
        squared_operator_check(momentum, energy=energy, mass=mass)
    assert type(refused.value) is ValueError


def test_probes_far_from_one_ev_do_not_overflow():
    # the operators are homogeneous in (p, E, m); unscaled, numpy overflows
    # in matmul and det, or divides 0 by 0, at these inputs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert squared_operator_check((1, 0, 0), energy=1e200, mass=1e200).passed
        assert shell_determinant(1e200, 1e200, (0, 0, 1)) == pytest.approx(1.0, rel=1e-12)
        # (|p|^2 + 2Em)^2 / (2Em)^2 with |p|^2 = Em
        assert shell_determinant(1e-300, 1e-300, (0, 0, 1e-300)) == pytest.approx(
            2.25, rel=1e-12
        )


def test_probes_refuse_what_double_precision_cannot_resolve():
    # E/m near 1e400: the scaled normalization underflows
    with pytest.raises(ValueError, match="underflows"):
        shell_determinant(1e200, 1e-200, (0, 0, 1e-200))
    # E/m near 1e115: m*eta_dagger vanishes beside E*eta, and LAPACK's
    # complex determinant of the exactly singular sum is nan, not the exact 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PrecisionError, match="determinant is not finite"):
            shell_determinant(2.32383325668064e269, 4.338176175728419e154,
                              (0.0, 1.064347845697207e-24, 0.0))
    for energy, mass in ((1e200, 1e-200), (1e-300, 1e20)):  # the scaled E or m is subnormal
        with pytest.raises(PrecisionError, match="underflows"):
            squared_operator_check((0, 0, 0), energy=energy, mass=mass)


def test_squared_operator_deviations_are_relative_to_their_scales(monkeypatch):
    # with bent tables each deviation is |A^2 - s*I| / s, s = |p|^2 and
    # 2*E*m, whatever power of two the inputs were scaled by
    from spinstep import algebra

    bent_mu1 = algebra._sum((1, algebra._MU[0]), (1e-3, algebra._EYE))
    bent_eta = algebra._sum((1, algebra._SQRT2_ETA[EtaRepresentation.REP1]), (1e-3, algebra._EYE))
    monkeypatch.setattr(algebra, "_MU", (bent_mu1, *algebra._MU[1:]))
    monkeypatch.setitem(algebra._SQRT2_ETA, EtaRepresentation.REP1, bent_eta)
    report = squared_operator_check((3.0, 0.0, 4.0), energy=3.0, mass=5.0)
    mp = 3.0 * np.array(bent_mu1) + 4.0 * mu_matrices().mu3
    op = (3.0 * np.array(bent_eta) + 5.0 * np.array(bent_eta).conj().T) / np.sqrt(2.0)
    assert [c.max_deviation for c in report.checks] == pytest.approx(
        [max_abs(mp @ mp - 25.0 * I4) / 25.0, max_abs(op @ op - 30.0 * I4) / 30.0], rel=1e-12
    )
    assert not report.passed
