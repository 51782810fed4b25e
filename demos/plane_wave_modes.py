"""Plane-wave sector of the first-order equation.

For a plane wave the equation becomes the 4x4 eigenvalue problem
(E*eta + m*eta_dagger) u = p u.  The operator is not Hermitian, yet its
spectrum is {+p, +p, -p, -p} with p = sqrt(2*E*m): the ordinary
Schrodinger dispersion, spin-doubled.  This script sweeps energies across
ten orders of magnitude and checks the numeric spectrum against the
closed-form eigenstates.
"""

import numpy as np

from spinstep import ELECTRON_MASS_EV, analytic_eigenstate, momentum_operator

# kind -> (spin, direction, sign of the eigenvalue +-sqrt(2Em))
KINDS = {1: ("up", "+z", 1), 2: ("down", "+z", 1), 3: ("up", "-z", -1), 4: ("down", "-z", -1)}


def span_residual(values, vectors, eigenvalue, u):
    """|u - P u| / |u|, P the orthogonal projector onto the numeric
    eigenvectors whose eigenvalues lie within 1e-6 of `eigenvalue`."""
    selected = np.abs(values - eigenvalue) <= 1e-6 * np.abs(values).max()
    q, _ = np.linalg.qr(vectors[:, selected])
    return np.linalg.norm(u - q @ (q.conj().T @ u)) / np.linalg.norm(u)


print(f"electron mass m = {ELECTRON_MASS_EV} eV, hbar = c = 1\n")
print(f"{'E (eV)':>10}  {'sqrt(2Em) (eV)':>15}  {'worst |lam| dev':>15}  "
      f"{'worst imag':>12}  {'span resid':>12}")
for energy in np.logspace(0, 7, 8):
    p = np.sqrt(2 * energy * ELECTRON_MASS_EV)
    values, vectors = np.linalg.eig(momentum_operator(energy, ELECTRON_MASS_EV))
    val_dev = max(min(abs(lam - p), abs(lam + p)) / p for lam in values)
    imag_dev = max(abs(lam.imag) / p for lam in values)
    span = max(
        span_residual(values, vectors, sign * p,
                      analytic_eigenstate(kind, energy, ELECTRON_MASS_EV))
        for kind, (_, _, sign) in KINDS.items()
    )
    print(f"{energy:>10.3g}  {p:>15.6f}  {val_dev:>15.2e}  {imag_dev:>12.2e}  "
          f"{span:>12.2e}")

print("\nthe four closed-form states at E = 100 eV:")
p = np.sqrt(2 * 100.0 * ELECTRON_MASS_EV)
for kind, (spin, direction, sign) in KINDS.items():
    u = analytic_eigenstate(kind, 100.0, ELECTRON_MASS_EV)
    print(f"  u({kind}): spin {spin:<4} direction {direction} "
          f"momentum {sign * p:+.4f} eV  u^dag u = {np.vdot(u, u).real:.15f}")

up = analytic_eigenstate(1, 100.0, ELECTRON_MASS_EV)
down = analytic_eigenstate(2, 100.0, ELECTRON_MASS_EV)
print(f"\n  orthogonality |u(1)^dag u(2)| = {abs(np.vdot(up, down)):.2e}")
