"""Command-line interface.

Subcommands:
  verify        run the algebra, plane-wave and 3D verification suites
  coefficients  spin-resolved step coefficients and currents at one energy
  currents      just the probability currents at one energy
  sweep         energy-grid sweep emitted as CSV/JSON/SVG
  threed-check  3D identity suite only

Exit codes are a contract: 0 success, 1 verification failure, 2 usage or
domain error, 3 I/O error.  A refused input prints the stderr prefix of its
kind, "beyond double precision" for a PrecisionError.  Output is JSON unless --pretty
is given.  Energy flags accept plain eV values or ev/kev/mev suffixes
(case-insensitive), e.g. --v0 100kev.  Option defaults and choices are
read from the library: StepProblem's and SweepSpec's _field_defaults and enums.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import sweep_io
from .scattering import (
    PrecisionError,
    Spin,
    StepProblem,
    closed_form_amplitudes,
    coefficients,
    currents,
)
from .sweep_io import Regime, Spacing, SweepSpec, run_sweep

# Only the report commands import algebra, eigensystem and threed, and --rep
# spells its choices, so a point command loads no more than it runs.  No
# command but a log-grid sweep imports numpy.

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

_UNIT_SCALE = {"ev": 1.0, "kev": 1e3, "mev": 1e6}


def parse_energy(text: str) -> float:
    """Parse '100', '100ev', '250kev', '1MeV' (case-insensitive) to eV."""
    raw = text.strip().lower()
    for suffix, scale in sorted(_UNIT_SCALE.items(), key=lambda kv: -len(kv[0])):
        if raw.endswith(suffix):
            return float(raw[: -len(suffix)]) * scale
    return float(raw)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinstep",
        description="Spin-resolved step-potential scattering engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    mass_help = "particle mass (eV), default electron"

    p_verify = sub.add_parser("verify", help="run all verification suites")
    p_verify.set_defaults(suites=_all_suites)

    point = StepProblem._field_defaults
    for name in ("coefficients", "currents"):
        p = sub.add_parser(name, help=f"compute step {name} at one energy")
        p.set_defaults(run=_point, with_coefficients=name == "coefficients")
        p.add_argument("--e", required=True, type=parse_energy, help="energy (eV)")
        p.add_argument("--v0", required=True, type=parse_energy, help="step height (eV)")
        p.add_argument("--mass", type=parse_energy, default=point["mass"], help=mass_help)
        spin = point["incident_spin"]
        p.add_argument("--spin", choices=[s.value for s in Spin], default=spin.value)

    spec = SweepSpec._field_defaults
    p_sweep = sub.add_parser("sweep", help="energy-grid sweep to data files")
    p_sweep.set_defaults(run=_sweep)
    p_sweep.add_argument("--v0", required=True, type=parse_energy)
    p_sweep.add_argument("--mass", type=parse_energy, default=spec["mass"], help=mass_help)
    p_sweep.add_argument("--from", dest="x_min", type=float, default=spec["e_over_v0_min"],
                         help="lower E/V0 (default %(default)g)")
    p_sweep.add_argument("--to", dest="x_max", type=float, default=spec["e_over_v0_max"],
                         help="upper E/V0 (default %(default)g)")
    p_sweep.add_argument("--points", type=int, default=spec["points"])
    for field in ("spacing", "regime"):
        default = spec[field]
        p_sweep.add_argument(
            f"--{field}", choices=[m.value for m in type(default)], default=default.value
        )
    p_sweep.add_argument("--out", required=True, help="output file path")
    p_sweep.add_argument(
        "--format", choices=list(_EMITTERS), default=None,
        help=f"default: inferred from --out suffix, falling back to {next(iter(_EMITTERS))}",
    )
    p_sweep.add_argument(
        "--columns", default=None, type=lambda text: text.split(",") if text else [],
        help="comma-separated SVG columns (e.g. t1,t2), SVG output only; default all",
    )

    p_threed = sub.add_parser("threed-check", help="run the 3D identity suite")
    p_threed.set_defaults(suites=_threed_suites)
    for p in (p_verify, p_threed):
        p.set_defaults(run=_report)
        p.add_argument("--rep", choices=["rep1", "rep2"], default="rep1")
    for p in sub.choices.values():  # every command's last option
        p.add_argument("--pretty", action="store_true")
    return parser


def _report(args) -> int:
    """Run the command's suites and print their merged report; the exit code
    is 0 if every check passed, else 1."""
    from . import algebra

    report = algebra.AlgebraReport.merge(*args.suites(algebra.EtaRepresentation(args.rep)))
    if args.pretty:
        width = max(len(c.name) for c in report.checks)
        for c in report.checks:
            status = "pass" if c.passed else "FAIL"
            print(f"{c.name:<{width}}  {c.max_deviation:.3e}  {status}")
        print(f"overall: {'pass' if report.passed else 'FAIL'}")
    else:
        print(json.dumps({"pass": report.passed, "checks": report.as_dicts()}))
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


def _all_suites(rep) -> tuple:
    from . import algebra, eigensystem, threed

    return (
        algebra.verify_eta_algebra(rep),
        eigensystem.verify_dispersion(rep),
        threed.verify_continuity_identities(rep),
        threed.squared_operator_check((0.6, 0.0, 0.8), energy=1.0, mass=1.0, rep=rep),
    )


def _threed_suites(rep) -> tuple:
    from . import threed

    return (threed.verify_continuity_identities(rep),)


# The stderr prefix of each refusal kind; any other ValueError is invalid input.
_REFUSALS = {PrecisionError: "beyond double precision"}


def _point(args) -> int:
    """Print one energy's payload, the row's curve columns but their sum
    (coefficients only) and then the currents, or refuse it with exit 2."""
    try:
        problem = StepProblem(args.e, args.v0, args.mass, Spin(args.spin))
        amps = closed_form_amplitudes(problem)
        payload = {}
        if args.with_coefficients:
            row = coefficients(problem, amps)
            payload = {key: row[index] for key, (index, _) in row.CURVES.items() if key != "sum"}
        payload.update(currents(problem, amps).to_json_dict())
    except ValueError as exc:
        print(f"{_REFUSALS.get(type(exc), 'invalid input')}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = {key: sweep_io.format_float(value) for key, value in payload.items()}
    if args.pretty:
        width = max(map(len, text))
        print("\n".join(f"{key:<{width}}  {value}" for key, value in text.items()))
    else:  # one line of JSON
        print("{" + ", ".join(f'"{key}": {value}' for key, value in text.items()) + "}")
    return EXIT_OK


# Each --format's emitter of (rows, path) and, for SVG, the --columns check whose
# result is its third argument; the first format serves an --out of unknown suffix.
_EMITTERS = {
    "csv": (sweep_io.emit_csv, None),
    "json": (sweep_io.emit_json, None),
    "svg": (sweep_io.emit_svg, sweep_io.svg_columns),
}


def _sweep(args) -> int:
    try:
        spec = SweepSpec(
            v0=args.v0,
            mass=args.mass,
            e_over_v0_min=args.x_min,
            e_over_v0_max=args.x_max,
            points=args.points,
            spacing=Spacing(args.spacing),
            regime=Regime(args.regime),
        )
        suffix = Path(args.out).suffix.lower().lstrip(".")
        fmt = args.format or (suffix if suffix in _EMITTERS else next(iter(_EMITTERS)))
        emit, check = _EMITTERS[fmt]
        if args.columns is not None and check is None:
            raise ValueError(f"--columns selects SVG curves; the output format is {fmt}")
        result = run_sweep(spec)
        groups = [g for g in (result.evanescent_rows, result.propagating_rows) if g]
        # check the SVG columns against every regime before any file is opened
        columns = [[check(type(g[0]), args.columns)] if check else [] for g in groups]
    except ValueError as exc:
        print(f"invalid sweep: {exc}", file=sys.stderr)
        return EXIT_USAGE

    files = [args.out]  # run_sweep returns at least one row or refuses
    if len(groups) == 2:  # straddling sweep: one file per regime
        out = Path(args.out)
        files = [str(out.with_name(f"{out.stem}_{tag}{out.suffix}"))
                 for tag in ("evanescent", "propagating")]
    try:
        for rows, cols, target in zip(groups, columns, files):
            emit(rows, target, *cols)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    summary = {"rows": len(result.rows), "files": files}
    if args.pretty:
        print(f"rows={summary['rows']} files={' '.join(files)}")
    else:
        print(json.dumps(summary))
    return EXIT_OK


_PARSER = _build_parser()  # once per process, however often main runs


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
