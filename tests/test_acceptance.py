"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Two known-red findings are asserted as stated and fail honestly rather than
being weakened (details in the test bodies and printed output):

* criterion 6c: spin-flipped reflection dominance at V0 = 1 MeV does not
  hold over the full stated ratio range; R2/R1 = 4*E*m/(E-m)^2 crosses 1 at
  E = (3 + 2*sqrt(2))*m, which lies inside (1.001, 3)*V0.
* criterion 8b: the momentum-space operator mu.p - E*eta - m*eta_dagger
  squares to (|p|^2 + 2*E*m)*I because every mu_i anticommutes with eta and
  eta_dagger, so it is nonsingular for every real momentum; the expected
  on-shell singularity exists only for the flipped mass-term sign.
"""

import math
import time

import numpy as np

from spinstep.algebra import (
    EtaRepresentation,
    schrodinger_reduction_check,
    shell_determinant,
    squared_operator_check,
    verify_continuity_identities,
    verify_eta_algebra,
)
from spinstep.eigensystem import analytic_eigenstate, momentum_operator
from spinstep.scattering import (
    ELECTRON_MASS_EV,
    StepProblem,
    closed_form_amplitudes,
    coefficients,
    continuity_residual,
    currents,
    solve_amplitudes_linear,
)
from spinstep.sweep_io import Regime, Spacing, SweepSpec, emit_csv, run_sweep

ME = ELECTRON_MASS_EV
REPS = (EtaRepresentation.REP1, EtaRepresentation.REP2)

# criterion-3/4/7/9 grid: 200 log-spaced ratios per barrier height
RATIO_GRID = np.logspace(np.log10(1 + 1e-4), 1.0, 200)
BARRIERS = (100.0, 1e5, 1e6)

FIG2_SPEC = SweepSpec(v0=100.0, e_over_v0_min=1.001, e_over_v0_max=10.0,
                      points=500, spacing=Spacing.LOG, regime=Regime.PROPAGATING)
FIG3_SPEC = SweepSpec(v0=1e6, e_over_v0_min=1.001, e_over_v0_max=3.0,
                      points=200, spacing=Spacing.LOG, regime=Regime.PROPAGATING)
FIG4_SPEC = SweepSpec(v0=100.0, e_over_v0_min=0.01, e_over_v0_max=0.99,
                      points=100, spacing=Spacing.LINEAR, regime=Regime.EVANESCENT)


def report(number, name, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")
    assert not failures, f"criterion {number}:\n" + "\n".join(failures)


def test_criterion_1_algebraic_suite():
    start = time.perf_counter()
    failures = []
    for rep in REPS:
        rep_report = verify_eta_algebra(rep)
        for check in rep_report.checks:
            if not (check.passed and check.max_deviation <= 1e-14):
                failures.append(
                    f"{rep.value}:{check.name} deviation {check.max_deviation:.3e}"
                )
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    report(1, "algebraic suite both representations", failures,
           f"runtime {elapsed * 1e3:.0f} ms")


def test_criterion_2_eigensystem_grid():
    start = time.perf_counter()
    failures = []
    worst_val, worst_imag, worst_norm, worst_ortho = 0.0, 0.0, 0.0, 0.0
    for energy in np.logspace(0.0, 7.0, 100):
        energy = float(energy)
        p = np.sqrt(2 * energy * ME)
        values = np.linalg.eigvals(momentum_operator(energy, ME))
        for lam in values:
            worst_val = max(worst_val, min(abs(lam - p), abs(lam + p)) / p)
            worst_imag = max(worst_imag, abs(lam.imag) / p)
        states = {k: analytic_eigenstate(k, energy, ME) for k in (1, 2, 3, 4)}
        for u in states.values():
            worst_norm = max(worst_norm, abs(np.vdot(u, u).real - 2.0))
        worst_ortho = max(
            worst_ortho,
            abs(np.vdot(states[1], states[2])),
            abs(np.vdot(states[3], states[4])),
        )
    if worst_val > 1e-10:
        failures.append(f"eigenvalue deviation {worst_val:.3e} > 1e-10")
    if worst_imag > 1e-10:
        failures.append(f"imaginary fraction {worst_imag:.3e} > 1e-10")
    if worst_norm > 1e-12:
        failures.append(f"norm deviation {worst_norm:.3e} > 1e-12")
    if worst_ortho > 1e-12:
        failures.append(f"orthogonality deviation {worst_ortho:.3e} > 1e-12")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    report(2, "eigensystem dispersion over 100-point grid", failures,
           f"worst eigenvalue dev {worst_val:.2e}, runtime {elapsed * 1e3:.0f} ms")


def test_criterion_3_two_path_equivalence():
    start = time.perf_counter()
    failures = []
    worst = 0.0
    for v0 in BARRIERS:
        for x in RATIO_GRID:
            problem = StepProblem(energy=float(x) * v0, v0=v0, mass=ME)
            lin = solve_amplitudes_linear(problem)
            closed = closed_form_amplitudes(problem)
            for field in ("b", "b_prime", "c", "c_prime"):
                a, b = getattr(lin, field), getattr(closed, field)
                rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
                if rel > worst:
                    worst = rel
                if rel > 1e-9:
                    failures.append(
                        f"V0={v0:g} x={x:.6f} {field}: two-path deviation {rel:.3e}"
                    )
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.3f}s >= 5s")
    report(3, "linear solve vs closed forms on 200x3 grid", failures,
           f"worst relative deviation {worst:.2e}, runtime {elapsed:.2f} s")


def test_criterion_4_unitarity_and_qm_reduction():
    failures = []
    worst_sum, worst_qm, worst_mass = 0.0, 0.0, 0.0
    for v0 in BARRIERS:
        for x in RATIO_GRID:
            energy = float(x) * v0
            problem = StepProblem(energy=energy, v0=v0, mass=ME)
            coeff = coefficients(problem, solve_amplitudes_linear(problem))
            total = coeff.t1 + coeff.t2 + coeff.r1 + coeff.r2
            worst_sum = max(worst_sum, abs(total - 1.0))
            t_qm, r_qm = coeff.t_qm, coeff.r_qm
            worst_qm = max(worst_qm, abs(coeff.t1 + coeff.t2 - t_qm),
                           abs(coeff.r1 + coeff.r2 - r_qm))
            heavy = StepProblem(energy=energy, v0=v0, mass=2 * ME)
            heavy_coeff = coefficients(heavy, solve_amplitudes_linear(heavy))
            worst_mass = max(
                worst_mass,
                abs((coeff.t1 + coeff.t2) - (heavy_coeff.t1 + heavy_coeff.t2)),
                abs((coeff.r1 + coeff.r2) - (heavy_coeff.r1 + heavy_coeff.r2)),
            )
    if worst_sum > 1e-12:
        failures.append(f"unitarity deviation {worst_sum:.3e} > 1e-12")
    if worst_qm > 1e-10:
        failures.append(f"spinless reduction deviation {worst_qm:.3e} > 1e-10")
    if worst_mass > 1e-10:
        failures.append(f"mass dependence of spin sums {worst_mass:.3e} > 1e-10")
    report(4, "unitarity, spinless reduction, mass independence", failures,
           f"sum dev {worst_sum:.2e}, reduction dev {worst_qm:.2e}, "
           f"mass dev {worst_mass:.2e}")


def test_criterion_5_evanescent_regime():
    failures = []
    worst_r1, worst_r2, worst_sum, worst_height = 0.0, 0.0, 0.0, 0.0
    v0 = 100.0
    for x in np.linspace(1e-4, 1 - 1e-4, 200):
        energy = float(x) * v0
        problem = StepProblem(energy=energy, v0=v0, mass=ME)
        coeff = coefficients(problem, solve_amplitudes_linear(problem))
        worst_r1 = max(worst_r1, abs(coeff.r1_prime - (energy - ME) ** 2 / (energy + ME) ** 2))
        worst_r2 = max(worst_r2, abs(coeff.r2_prime - 4 * energy * ME / (energy + ME) ** 2))
        worst_sum = max(worst_sum, abs(coeff.r1_prime + coeff.r2_prime - 1.0))
        taller = StepProblem(energy=energy, v0=10 * v0, mass=ME)
        taller_coeff = coefficients(taller, solve_amplitudes_linear(taller))
        worst_height = max(
            worst_height,
            abs(coeff.r1_prime - taller_coeff.r1_prime),
            abs(coeff.r2_prime - taller_coeff.r2_prime),
        )
    if worst_r1 > 1e-12:
        failures.append(f"spin-preserving reflection formula dev {worst_r1:.3e} > 1e-12")
    if worst_r2 > 1e-12:
        failures.append(f"spin-flipping reflection formula dev {worst_r2:.3e} > 1e-12")
    if worst_sum > 1e-12:
        failures.append(f"reflection sum dev {worst_sum:.3e} > 1e-12")
    if worst_height > 1e-12:
        failures.append(f"barrier-height dependence {worst_height:.3e} > 1e-12")
    # spin-flip probability grows with energy on E in (0, m); use a barrier
    # above the whole range so every point stays evanescent
    barrier = 20 * ME
    previous = -np.inf
    for energy in np.linspace(1e-3 * ME, 0.999 * ME, 200):
        problem = StepProblem(energy=float(energy), v0=barrier, mass=ME)
        coeff = coefficients(problem, solve_amplitudes_linear(problem))
        if coeff.r2_prime <= previous:
            failures.append(f"spin-flip reflection not increasing at E={energy:.3e}")
            break
        previous = coeff.r2_prime
    report(5, "evanescent reflection formulas and shape", failures,
           f"formula devs {worst_r1:.2e}/{worst_r2:.2e}, "
           f"height dev {worst_height:.2e}")


def test_criterion_6_figure2_shape_and_goldens(tmp_path):
    failures = []
    # figure-2 shape claims at V0 = 100 eV
    fig2 = run_sweep(FIG2_SPEC)
    for row in fig2.propagating_rows:
        if row.e_over_v0 > 1.05 and not row.t1 > row.t2:
            failures.append(f"fig2: t1 <= t2 at E/V0 = {row.e_over_v0:.4f}")
    near_transparent = StepProblem(energy=300.0, v0=100.0, mass=ME)
    coeff = coefficients(near_transparent, solve_amplitudes_linear(near_transparent))
    if not coeff.t1 + coeff.t2 >= 0.9:
        failures.append(f"fig2: T at E=3*V0 is {coeff.t1 + coeff.t2:.4f} < 0.9")
    # golden CSVs: byte-stable across two generations
    for name, spec in (("fig2", FIG2_SPEC), ("fig3", FIG3_SPEC), ("fig4", FIG4_SPEC)):
        first = tmp_path / f"{name}_a.csv"
        second = tmp_path / f"{name}_b.csv"
        emit_csv(run_sweep(spec).rows, first)
        emit_csv(run_sweep(spec).rows, second)
        if first.read_bytes() != second.read_bytes():
            failures.append(f"{name}: regenerated CSV differs byte-wise")
    report("6a", "figure-2 shape claims and golden stability", failures)


def test_criterion_6_figure3_dominance():
    # Known red.  The claim: spin-flipped reflection dominates (r2 > r1) at
    # V0 = 1 MeV over the whole ratio range (1.001, 3).  The dominance
    # actually inverts at E = (3 + 2*sqrt(2))*m ~ 2.9783 MeV, inside the
    # stated range, so the last grid points must violate it.
    failures = []
    crossover = (3 + 2 * np.sqrt(2)) * ME
    for row in run_sweep(FIG3_SPEC).propagating_rows:
        if not row.r2 > row.r1:
            failures.append(
                f"fig3: r2 <= r1 at E/V0 = {row.e_over_v0:.6f} "
                f"(E = {row.e_ev:.1f} eV; analytic crossover at "
                f"E = (3+2*sqrt(2))*m = {crossover:.1f} eV)"
            )
    report("6c", "figure-3 spin-flip dominance over the full range", failures,
           f"{len(failures)} of 200 grid points above the crossover"
           if failures else "")


def test_criterion_6_golden_regression():
    # value-level regression against the goldens stored in tests/golden
    from pathlib import Path

    failures = []
    golden_dir = Path(__file__).parent / "golden"
    for name, spec in (("fig2", FIG2_SPEC), ("fig3", FIG3_SPEC), ("fig4", FIG4_SPEC)):
        stored = (golden_dir / f"{name}.csv").read_text().strip().split("\n")
        fresh_rows = run_sweep(spec).rows
        if len(stored) - 1 != len(fresh_rows):
            failures.append(f"{name}: row count changed")
            continue
        header = stored[0]
        for line, row in zip(stored[1:], fresh_rows):
            for got, want in zip(row.to_json_dict().values(), (float(t) for t in line.split(","))):
                if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                    failures.append(f"{name}: value drift {got!r} vs {want!r}")
                    break
        fresh_header = type(fresh_rows[0]).CSV_HEADER
        if header != fresh_header:
            failures.append(f"{name}: header changed")
    report("6b", "golden CSV regression", failures)


def test_criterion_7_current_conservation():
    failures = []
    worst_ratio, worst_match = 0.0, 0.0
    for v0 in BARRIERS:
        for x in RATIO_GRID[::4]:
            energy = float(x) * v0
            problem = StepProblem(energy=energy, v0=v0, mass=ME)
            amps = solve_amplitudes_linear(problem)
            j = currents(problem, amps)
            worst_ratio = max(worst_ratio, abs(j.conservation_sum - 1.0))
            p1 = math.sqrt(2.0 * energy * ME)
            p2 = math.sqrt(2.0 * abs(energy - v0) * ME)
            closed = {
                "j_inc": 4 * p1 / (energy + ME),
                "j_refl_up": -4 * p1 * abs(amps.b) ** 2 / (energy + ME),
                "j_refl_down": -4 * p1 * abs(amps.b_prime) ** 2 / (energy + ME),
                "j_trans_up": 4 * p2 * abs(amps.c) ** 2 / (energy + ME - v0),
                "j_trans_down": 4 * p2 * abs(amps.c_prime) ** 2 / (energy + ME - v0),
            }
            for field, want in closed.items():
                got = getattr(j, field)
                rel = abs(got - want) / max(abs(want), abs(got), 1e-300)
                worst_match = max(worst_match, rel)
    if worst_ratio > 1e-12:
        failures.append(f"conservation ratio deviation {worst_ratio:.3e} > 1e-12")
    if worst_match > 1e-12:
        failures.append(f"bilinear/closed-form current mismatch {worst_match:.3e} > 1e-12")
    report(7, "current conservation and closed forms", failures,
           f"ratio dev {worst_ratio:.2e}, form dev {worst_match:.2e}")


def test_criterion_8_threed_identities():
    start = time.perf_counter()
    failures = []
    for rep in REPS:
        identity_report = verify_continuity_identities(rep)
        for check in identity_report.checks:
            if not (check.passed and check.max_deviation <= 1e-14):
                failures.append(
                    f"{rep.value}:{check.name} deviation {check.max_deviation:.3e}"
                )
    squared = squared_operator_check((1.0, -2.0, 0.5), energy=2.0, mass=3.0)
    for check in squared.checks:
        if not (check.passed and check.max_deviation <= 1e-12):
            failures.append(f"{check.name} deviation {check.max_deviation:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")
    report("8a", "3D identity suite", failures, f"runtime {elapsed * 1e3:.0f} ms")


def test_criterion_8_shell_determinant():
    # Known red.  Every mu_i anticommutes with eta and eta_dagger, so
    # (mu.p - E*eta - m*eta_dagger)^2 = (|p|^2 + 2*E*m)*I and the operator is
    # nonsingular for every real momentum: the expected on-shell singularity
    # cannot occur with that mass-term sign (it appears for the
    # flipped sign, reported below for comparison).
    failures = []
    rng = np.random.default_rng(2024)
    flipped_on, flipped_off = [], []
    for _ in range(50):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        energy = float(10 ** rng.uniform(0.0, 6.0))
        p_on = np.sqrt(2 * energy * ME) * direction
        singular_on, det_on = schrodinger_reduction_check(energy, ME, p_on)
        singular_off, det_off = schrodinger_reduction_check(energy, ME, 1.1 * p_on)
        if not singular_on:
            failures.append(
                f"not singular on-shell: E={energy:.3e}, normalized det {det_on:.3e}"
            )
        if singular_off:
            failures.append(
                f"singular off-shell: E={energy:.3e}, normalized det {det_off:.3e}"
            )
        flipped_on.append(shell_determinant(energy, ME, p_on, mass_sign=-1))
        flipped_off.append(shell_determinant(energy, ME, 1.1 * p_on, mass_sign=-1))
    detail = (
        f"{len(failures)} of 100 checks failed; flipped-sign operator is "
        f"singular on-shell (max normalized det {max(flipped_on):.1e}) and "
        f"nonsingular off-shell (min {min(flipped_off):.1e})"
    )
    report("8b", "on-shell determinant test", failures, detail)


def test_criterion_9_continuity_residual():
    failures = []
    worst = 0.0
    for v0 in BARRIERS:
        for x in list(RATIO_GRID[::8]) + [0.02, 0.3, 0.7, 0.95]:
            problem = StepProblem(energy=float(x) * v0, v0=v0, mass=ME)
            amps = solve_amplitudes_linear(problem)
            residual = continuity_residual(problem, amps)
            worst = max(worst, residual)
            if residual > 1e-11:
                failures.append(f"V0={v0:g} x={x:.4f}: residual {residual:.3e}")
    report(9, "boundary continuity residual", failures, f"worst {worst:.2e}")
