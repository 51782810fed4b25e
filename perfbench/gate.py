"""Correctness gate: checks on every result the benchmark times.

The oracles are closed forms computed here, independently of spinstep:
the spinless step coefficients T and R, and the evanescent reflection
probabilities (E-m)^2/(E+m)^2 (spin kept) and 4Em/(E+m)^2 (spin flipped).
Each check returns the names of the checks that failed; an empty list
means the result is correct.  A failure named in SOFT_CHECKS fails the
operation only; any other failure also marks the run incorrect.
"""

from __future__ import annotations

import math

# Unit sum of the probabilities (spinstep's own COEFFICIENT_SUM_TOL).
UNIT_SUM_TOL = 1e-12
# Closed-form agreement: the acceptance gate's spinless-reduction tolerance.
CLOSED_FORM_TOL = 1e-10
# Near the evanescent mass pole the continuity matrix has a condition number
# of order 1/delta, delta = |V0-E-m|/m, so a backward-stable solve may miss
# the closed forms by about eps/delta (up to 3.1*eps/delta over 19k accepted
# pole points).  A miss beyond CLOSED_FORM_TOL but within this many
# eps/delta is the known pole defect: it fails the operation
# ("near_pole_precision", a soft check) without marking the run incorrect.
# A larger miss is a hard failure.
POLE_CONDITIONING_FACTOR = 100.0
EPS = 2.220446049250313e-16
SOFT_CHECKS = frozenset({"near_pole_precision"})
# Evanescent transmitted currents are zero to rounding, relative to j_inc.
ZERO_CURRENT_TOL = 1e-12


def spinless_reference(energy: float, v0: float) -> tuple[float, float]:
    """Spinless step coefficients (T, R) for E > V0."""
    se = math.sqrt(energy)
    st = math.sqrt(energy - v0)
    return 4.0 * se * st / (se + st) ** 2, ((se - st) / (se + st)) ** 2


def evanescent_reference(energy: float, mass: float, spin: str) -> tuple[float, float]:
    """Evanescent (R1', R2'): spin-up and spin-down reflection probabilities."""
    keep = (energy - mass) ** 2 / (energy + mass) ** 2
    flip = 4.0 * energy * mass / (energy + mass) ** 2
    return (keep, flip) if spin == "up" else (flip, keep)


def check_point(energy, v0, mass, spin, coeff: dict | None, curr: dict | None) -> list[str]:
    """Check one point's coefficients and/or currents (JSON-style dicts, as
    spinstep's to_json_dict() and the CLI print them)."""
    failures = []
    propagating = energy > v0
    if coeff is not None:
        if propagating:
            t1, t2, r1, r2 = (coeff.get(k, math.nan) for k in ("t1", "t2", "r1", "r2"))
            if not abs(t1 + t2 + r1 + r2 - 1.0) <= UNIT_SUM_TOL:
                failures.append("unit_sum")
            t_ref, r_ref = spinless_reference(energy, v0)
            if not (abs(t1 + t2 - t_ref) <= CLOSED_FORM_TOL
                    and abs(r1 + r2 - r_ref) <= CLOSED_FORM_TOL):
                failures.append("spinless_reduction")
        else:
            r1p, r2p = (coeff.get(k, math.nan) for k in ("r1_prime", "r2_prime"))
            if not abs(r1p + r2p - 1.0) <= UNIT_SUM_TOL:
                failures.append("unit_sum")
            ref1, ref2 = evanescent_reference(energy, mass, spin)
            miss = max(abs(r1p - ref1), abs(r2p - ref2))
            if not miss <= CLOSED_FORM_TOL:
                delta = abs(v0 - energy - mass) / mass
                explained = delta > 0 and miss <= POLE_CONDITIONING_FACTOR * EPS / delta
                failures.append("near_pole_precision" if explained else "evanescent_closed_form")
    if curr is not None:
        j_inc = curr.get("j_inc", math.nan)
        if not j_inc > 0:
            failures.append("incident_current")
        elif not propagating:
            limit = ZERO_CURRENT_TOL * j_inc
            if not (abs(curr.get("j_trans_up", math.nan)) <= limit
                    and abs(curr.get("j_trans_down", math.nan)) <= limit):
                failures.append("evanescent_current")
    return failures


def check_bytes(name: str, got: bytes, want: bytes) -> list[str]:
    """Byte-identity check; names the first differing offset."""
    if got == want:
        return []
    offset = next(
        (i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want))
    )
    return [f"{name}_differs_at_byte_{offset}"]
