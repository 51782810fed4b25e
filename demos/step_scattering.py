"""Spin-resolved electron scattering off a potential step, both regimes.

Above the step (E > V0) the electron transmits and reflects with either
spin; the four probabilities T1, T2, R1, R2 sum to one and their spin sums
reproduce the spinless textbook coefficients.  Below the step (E < V0)
nothing is transmitted and the two reflection probabilities depend only on
E and m, not on the barrier height.  At the threshold E = V0 the two
regimes meet: T1 and T2 fall to 0, and R1 and R2 reach R1' and R2'.
Both routes to the amplitudes, the closed forms and the linear solve, match
the wave at z = 0 to the rounding level.
"""

from spinstep import (
    StepProblem,
    closed_form_amplitudes,
    coefficients,
    continuity_residual,
    currents,
    solve_amplitudes_linear,
)


def print_residuals(problem, linear, closed):
    """Both routes' mismatch of the wave at z = 0, on the oracle's mode basis."""
    print(f"continuity residual at z = 0: linear solve "
          f"{continuity_residual(problem, linear):.1e}, closed forms "
          f"{continuity_residual(problem, closed):.1e}")


print("=== propagating: E = 200 eV onto a 100 eV step ===")
problem = StepProblem(energy=200.0, v0=100.0)
linear = solve_amplitudes_linear(problem)
closed = closed_form_amplitudes(problem)
print("amplitudes (linear solve vs closed forms):")
for field in ("b", "b_prime", "c", "c_prime"):
    a, b = getattr(linear, field), getattr(closed, field)
    print(f"  {field:<8} {a:+.12f}   {b:+.12f}   |diff| = {abs(a - b):.1e}")
print_residuals(problem, linear, closed)

coeff = coefficients(problem, linear)
t_qm, r_qm = coeff.t_qm, coeff.r_qm
print(f"\nT1 = {coeff.t1:.10f}   T2 = {coeff.t2:.3e}")
print(f"R1 = {coeff.r1:.10f}   R2 = {coeff.r2:.3e}")
print(f"sum = {coeff.t1 + coeff.t2 + coeff.r1 + coeff.r2:.15f}")
print(f"spin sums vs spinless coefficients: "
      f"T1+T2 = {coeff.t1 + coeff.t2:.12f} (T_QM = {t_qm:.12f}), "
      f"R1+R2 = {coeff.r1 + coeff.r2:.12f} (R_QM = {r_qm:.12f})")

j = currents(problem, linear)
print(f"\ncurrents: inc {j.j_inc:+.6e}, refl ({j.j_refl_up:+.2e}, "
      f"{j.j_refl_down:+.2e}), trans ({j.j_trans_up:+.2e}, {j.j_trans_down:+.2e})")
print(f"conservation ratio sum = {j.conservation_sum:.15f}")

print("\n=== evanescent: E = 50 eV onto the same step ===")
problem = StepProblem(energy=50.0, v0=100.0)
linear = solve_amplitudes_linear(problem)
print_residuals(problem, linear, closed_form_amplitudes(problem))
coeff = coefficients(problem, linear)
m = problem.mass
print(f"R1' = {coeff.r1_prime:.12f}   closed form (E-m)^2/(E+m)^2 = "
      f"{(50 - m) ** 2 / (50 + m) ** 2:.12f}")
print(f"R2' = {coeff.r2_prime:.6e}   closed form 4Em/(E+m)^2     = "
      f"{4 * 50 * m / (50 + m) ** 2:.6e}")
j = currents(problem, linear)
print(f"transmitted currents: {j.j_trans_up}, {j.j_trans_down} (decaying wave)")

print("\nbarrier-height independence below the step:")
for v0 in (100.0, 1e4, 1e6):
    problem = StepProblem(energy=50.0, v0=v0)
    coeff = coefficients(problem, solve_amplitudes_linear(problem))
    print(f"  V0 = {v0:>8.0f} eV: R1' = {coeff.r1_prime:.15f}")

print("\napproach to the threshold from above, and on it (V0 = 100 eV):")
print(f"{'E/V0 - 1':>10}  {'T1+T2':>12}  {'R1':>12}  {'R2':>12}")
for offset in (1e-1, 1e-2, 1e-4, 1e-6, 1e-8, 0.0):
    problem = StepProblem(energy=100.0 * (1 + offset), v0=100.0)
    coeff = coefficients(problem, solve_amplitudes_linear(problem))
    if offset:
        transmitted, r1, r2 = coeff.t1 + coeff.t2, coeff.r1, coeff.r2
    else:  # E = V0 is a row of the evanescent branch
        transmitted, r1, r2 = 0.0, coeff.r1_prime, coeff.r2_prime
    print(f"{offset:>10.0e}  {transmitted:>12.6e}  {r1:>12.10f}  {r2:>12.6e}")
print(f"limit: T1, T2 -> 0, R1 -> (E-m)^2/(E+m)^2 = {(100 - m) ** 2 / (100 + m) ** 2:.10f}, "
      f"R2 -> 4Em/(E+m)^2 = {4 * 100 * m / (100 + m) ** 2:.6e}")
