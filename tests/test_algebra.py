import itertools
import math

import numpy as np
import pytest

from spinstep import algebra
from spinstep.algebra import (
    EtaRepresentation,
    _char_poly_coeffs,
    eta,
    eta_dagger,
    gamma,
    verify_eta_algebra,
    verify_eta_matrix,
)

REPS = [EtaRepresentation.REP1, EtaRepresentation.REP2]
SQRT2 = np.sqrt(2.0)
I4 = np.eye(4, dtype=complex)
# the Pauli matrices, written out as an independent reference
SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]])
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def max_abs(m) -> float:
    """Largest entry magnitude of an array; nan if any entry is nan."""
    return float(np.abs(np.asarray(m)).max())


def leibniz_det(m):
    """Permutation-expansion determinant, independent of linalg routines."""
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(4)):
        sign = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for row, col in enumerate(perm):
            term = term * m[row, col]
        total += term
    return total


def test_eta_rep1_entries():
    m = eta(EtaRepresentation.REP1)
    assert m[0, 1] == -1j / SQRT2
    assert m[0, 0] == 0
    assert m[0, 3] == -1 / SQRT2
    assert m[1, 2] == 1 / SQRT2
    assert m[3, 2] == -1j / SQRT2


def test_eta_rep1_matches_pauli_block_form():
    blocks = (-1j / SQRT2) * np.block(
        [[SIGMA1, SIGMA2], [-SIGMA2, SIGMA1]]
    )
    assert max_abs(eta(EtaRepresentation.REP1) - blocks) == 0.0


def test_eta_rep2_block_entries():
    m = eta(EtaRepresentation.REP2)
    assert m[0, 2] == 1j / SQRT2
    assert m[0, 3] == 1 / SQRT2
    assert m[1, 2] == -1 / SQRT2
    assert max_abs(m[:2, :2]) == 0.0
    assert max_abs(m[2:, 2:]) == 0.0


@pytest.mark.parametrize("rep", REPS)
def test_eta_dagger_is_conjugate_transpose(rep):
    assert max_abs(eta_dagger(rep) - eta(rep).conj().T) == 0.0
    # symmetry makes the dagger equal the entrywise conjugate
    assert max_abs(eta_dagger(rep) - eta(rep).conj()) == 0.0


def test_eta_dagger_rep1_entries():
    md = eta_dagger(EtaRepresentation.REP1)
    assert md[0, 1] == 1j / SQRT2
    assert md[0, 3] == -1 / SQRT2


@pytest.mark.parametrize("rep", REPS)
def test_nilpotency_and_anticommutator(rep):
    m, md = eta(rep), eta_dagger(rep)
    assert max_abs(m @ m) <= 1e-15
    assert max_abs(md @ md) <= 1e-15
    assert max_abs(m @ md + md @ m - 2 * I4) <= 1e-15
    assert max_abs(m - m.T) == 0.0


@pytest.mark.parametrize("rep", REPS)
def test_trace_det_and_eigenvalues_zero(rep):
    m = eta(rep)
    assert abs(np.trace(m)) == 0.0
    assert abs(leibniz_det(m)) <= 1e-15
    assert abs(np.linalg.det(m)) <= 1e-15
    assert max_abs(_char_poly_coeffs(m)) <= 1e-15


def test_char_poly_matches_direct_expansion():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    c3, c2, c1, c0 = _char_poly_coeffs(m)
    assert abs(c3 - (-np.trace(m))) <= 1e-12
    assert abs(c0 - leibniz_det(m)) <= 1e-12 * abs(leibniz_det(m))
    # evaluate p(lambda) at the matrix's own eigenvalues: must vanish
    for lam in np.linalg.eigvals(m):
        p = lam**4 + c3 * lam**3 + c2 * lam**2 + c1 * lam + c0
        assert abs(p) <= 1e-10


def test_gamma_matrices_dirac_basis():
    assert max_abs(gamma(0) - np.diag([1, 1, -1, -1])) == 0.0
    assert gamma(5)[0, 2] == 1
    # mu1 calibration product
    block = np.block([[SIGMA3, np.zeros((2, 2))], [np.zeros((2, 2)), SIGMA3]])
    assert max_abs(1j * gamma(1) @ gamma(2) - block) == 0.0
    for k in (1, 2, 3):
        assert max_abs(gamma(k) @ gamma(k) + I4) == 0.0
    with pytest.raises(ValueError):
        gamma(4)


def test_gamma_identities_of_rep1():
    m, md = eta(EtaRepresentation.REP1), eta_dagger(EtaRepresentation.REP1)
    assert max_abs((m + md) - (-1j * SQRT2 * gamma(2))) <= 1e-15
    assert max_abs(md @ m - (I4 + 1j * gamma(3))) <= 1e-15


@pytest.mark.parametrize("rep", REPS)
def test_verify_eta_algebra_passes(rep):
    # exactly: the table of sqrt(2)*eta holds Gaussian integers
    report = verify_eta_algebra(rep)
    assert report.passed
    assert report.max_deviation == 0.0


@pytest.mark.parametrize("rep", REPS)
def test_bent_table_deviations_are_in_units_of_eta(monkeypatch, rep):
    # the suite on a bent table of sqrt(2)*eta reports what the float suite
    # reports on the bent eta itself, and the REP1 gamma relations what numpy
    # measures on it
    table = [list(row) for row in algebra._SQRT2_ETA[rep]]
    for i, j in ((0, 0), (0, 1), (3, 3)):  # bends every identity of both reps
        table[i][j] += 2.0**-10
    monkeypatch.setitem(algebra._SQRT2_ETA, rep, tuple(map(tuple, table)))
    bent = np.array(table, dtype=complex) / SQRT2
    report = verify_eta_algebra(rep)
    expected = {c.name: c.max_deviation for c in verify_eta_matrix(bent).checks}
    if rep is EtaRepresentation.REP1:
        bent_dagger = bent.conj().T
        expected["eta_plus_dagger_equals_-i*sqrt2*gamma2"] = max_abs(
            bent + bent_dagger + 1j * SQRT2 * gamma(2)
        )
        expected["dagger_times_eta_equals_I+i*gamma3"] = max_abs(
            bent_dagger @ bent - I4 - 1j * gamma(3)
        )
    assert [c.name for c in report.checks] == list(expected)
    for check in report.checks:
        assert check.max_deviation == pytest.approx(expected[check.name], rel=1e-9), check.name
        assert not check.passed, check.name


def test_verify_report_records_gamma_sign_resolution():
    report = verify_eta_algebra(EtaRepresentation.REP1)
    names = [c.name for c in report.checks]
    assert "eta_plus_dagger_equals_-i*sqrt2*gamma2" in names
    assert "dagger_times_eta_equals_I+i*gamma3" in names
    # REP2 realizes neither sign; the identity checks are not reported
    rep2_names = [c.name for c in verify_eta_algebra(EtaRepresentation.REP2).checks]
    assert not any("gamma2" in n for n in rep2_names)


def test_perturbed_eta_fails_with_matching_deviation():
    perturbed = eta(EtaRepresentation.REP1).copy()
    perturbed[0, 1] += 1e-6
    report = verify_eta_matrix(perturbed)
    assert not report.passed
    check = {c.name: c for c in report.checks}["square_is_zero"]
    assert not check.passed
    # oracle: recompute the square of the perturbed matrix directly
    assert check.max_deviation == max_abs(perturbed @ perturbed)
    assert 1e-7 < check.max_deviation < 1e-5


def test_nan_candidate_fails_every_check():
    # a nan after the first entry is carried through every deviation, not
    # skipped by the reduction, so no check passes on it
    candidate = eta(EtaRepresentation.REP1).copy()
    candidate[3, 3] = np.nan
    report = verify_eta_matrix(candidate)
    assert not report.passed
    assert math.isnan(report.max_deviation)
    for check in report.checks:
        assert math.isnan(check.max_deviation) and not check.passed, check


def test_report_json_shape():
    import json

    payload = verify_eta_algebra().as_dicts()
    assert json.loads(json.dumps(payload)) == payload
    assert isinstance(payload, list)
    for item in payload:
        assert set(item) == {"check_name", "max_deviation", "pass"}
        assert isinstance(item["pass"], bool)


def test_gamma_relations_are_checked_with_rep1_signs(monkeypatch):
    # -eta fits eta + eta^dagger = +i*sqrt2*gamma2, the other sign: the
    # REP1 relation is checked as written, not under the sign that fits
    negated = algebra._sum((-1, algebra._SQRT2_ETA[EtaRepresentation.REP1]))
    monkeypatch.setitem(algebra._SQRT2_ETA, EtaRepresentation.REP1, negated)
    report = verify_eta_algebra(EtaRepresentation.REP1)
    assert not report.passed
    checks = {c.name: c for c in report.checks}
    assert not checks["eta_plus_dagger_equals_-i*sqrt2*gamma2"].passed
    assert checks["dagger_times_eta_equals_I+i*gamma3"].passed
    assert [c.name for c in report.checks if not c.passed] == [
        "eta_plus_dagger_equals_-i*sqrt2*gamma2"
    ]


def test_commutator_anticommutator_definitions():
    # the table kernel's brackets and dagger on Gaussian-integer tables,
    # where both Python's and numpy's complex arithmetic are exact
    rng = np.random.default_rng(3)
    a, b = (
        rng.integers(-3, 4, size=(4, 4)) + 1j * rng.integers(-3, 4, size=(4, 4))
        for _ in range(2)
    )
    ta, tb = (tuple(map(tuple, m.tolist())) for m in (a, b))
    assert max_abs(np.array(algebra._bracket(ta, tb, 1)) - (a @ b + b @ a)) == 0.0
    assert max_abs(np.array(algebra._bracket(ta, tb, -1)) - (a @ b - b @ a)) == 0.0
    assert max_abs(np.array(algebra._adj(ta)) - a.conj().T) == 0.0


def test_solve_against_anticommutator_example():
    m, md = eta(EtaRepresentation.REP1), eta_dagger(EtaRepresentation.REP1)
    assert max_abs(m @ md + md @ m - 2 * I4) <= 1e-15


def test_returned_matrices_are_readonly():
    with pytest.raises(ValueError):
        eta()[0, 0] = 1.0
    with pytest.raises(ValueError):
        gamma(0)[0, 0] = 2.0
