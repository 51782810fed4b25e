"""Generate the coefficient-curve datasets as CSV and SVG files.

Three sweeps, written to demos/output/:

  coefficients_100ev   V0 = 100 eV, E/V0 in (1.001, 10): transmission is
                       dominantly spin-up and the step turns transparent.
  reflection_1mev      V0 = 1 MeV, E/V0 in (1.001, 3): reflection is
                       dominantly spin-flipped (up to the crossover at
                       E = (3+2*sqrt(2))*m).
  reflection_below     V0 = 100 eV, E/V0 in (0.01, 0.99): total reflection,
                       with the spin-flip share growing with energy.
"""

from pathlib import Path

from spinstep import Regime, Spacing, SweepSpec, emit_csv, emit_svg, run_sweep

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

sweeps = {
    "coefficients_100ev": (
        SweepSpec(v0=100.0, e_over_v0_min=1.001, e_over_v0_max=10.0,
                  points=500, spacing=Spacing.LOG, regime=Regime.PROPAGATING),
        ["t1", "t2", "r1", "r2"],
    ),
    "reflection_1mev": (
        SweepSpec(v0=1e6, e_over_v0_min=1.001, e_over_v0_max=3.0,
                  points=200, spacing=Spacing.LOG, regime=Regime.PROPAGATING),
        ["r1", "r2"],
    ),
    "reflection_below": (
        SweepSpec(v0=100.0, e_over_v0_min=0.01, e_over_v0_max=0.99,
                  points=100, spacing=Spacing.LINEAR, regime=Regime.EVANESCENT),
        ["r1_prime", "r2_prime"],
    ),
}

for name, (spec, columns) in sweeps.items():
    result = run_sweep(spec)
    csv_path = out_dir / f"{name}.csv"
    svg_path = out_dir / f"{name}.svg"
    emit_csv(result.rows, csv_path)
    emit_svg(result.rows, svg_path, columns)
    print(f"{name}: {len(result.rows)} rows -> {csv_path.name}, {svg_path.name}")

print(f"\nfiles in {out_dir}")
