"""Command-line interface.

Subcommands:
  verify        run the algebra, plane-wave and 3D verification suites
  coefficients  spin-resolved step coefficients and currents at one energy
  currents      just the probability currents at one energy
  sweep         energy-grid sweep emitted as CSV/JSON/SVG
  threed-check  3D identity suite only

Exit codes are a contract: 0 success, 1 verification failure, 2 usage or
domain error, 3 I/O error.  Output is machine-readable JSON unless --pretty
is given.  Energy flags accept plain eV values or ev/kev/mev suffixes
(case-insensitive), e.g. --v0 100kev.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import sweep_io
from .scattering import (
    ELECTRON_MASS_EV,
    MassPoleError,
    Spin,
    StepProblem,
    ThresholdDegeneracyError,
    closed_form_amplitudes,
    coefficients,
    currents,
)
from .sweep_io import Regime, Spacing, SweepSpec, run_sweep

# algebra, eigensystem and threed import numpy when they load, so only the
# commands that run the verification suites import them: the point commands
# run without numpy.

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

    p_verify = sub.add_parser("verify", help="run all verification suites")
    p_verify.add_argument("--rep", choices=["rep1", "rep2"], default="rep1")
    p_verify.add_argument("--pretty", action="store_true")

    for name in ("coefficients", "currents"):
        p = sub.add_parser(name, help=f"compute step {name} at one energy")
        p.add_argument("--e", required=True, type=parse_energy, help="energy (eV)")
        p.add_argument("--v0", required=True, type=parse_energy, help="step height (eV)")
        p.add_argument(
            "--mass", type=parse_energy, default=ELECTRON_MASS_EV,
            help="particle mass (eV), default electron",
        )
        p.add_argument("--spin", choices=["up", "down"], default="up")
        p.add_argument("--pretty", action="store_true")

    p_sweep = sub.add_parser("sweep", help="energy-grid sweep to data files")
    p_sweep.add_argument("--v0", required=True, type=parse_energy)
    p_sweep.add_argument(
        "--mass", type=parse_energy, default=ELECTRON_MASS_EV,
        help="particle mass (eV), default electron",
    )
    p_sweep.add_argument("--from", dest="x_min", type=float, default=1.001,
                         help="lower E/V0 (default 1.001)")
    p_sweep.add_argument("--to", dest="x_max", type=float, default=10.0,
                         help="upper E/V0 (default 10)")
    p_sweep.add_argument("--points", type=int, default=100)
    p_sweep.add_argument("--spacing", choices=["linear", "log"], default="log")
    p_sweep.add_argument(
        "--regime", choices=["propagating", "evanescent", "auto"], default="auto"
    )
    p_sweep.add_argument("--out", required=True, help="output file path")
    p_sweep.add_argument(
        "--format", choices=["csv", "json", "svg"], default=None,
        help="default: inferred from --out suffix, falling back to csv",
    )
    p_sweep.add_argument(
        "--columns", default=None,
        help="comma-separated SVG columns (e.g. t1,t2), SVG output only; default all",
    )
    p_sweep.add_argument("--pretty", action="store_true")

    p_threed = sub.add_parser("threed-check", help="run the 3D identity suite")
    p_threed.add_argument("--rep", choices=["rep1", "rep2"], default="rep1")
    p_threed.add_argument("--pretty", action="store_true")
    return parser


def _print_report(report, pretty: bool) -> int:
    """Print the report; its exit code is 0 if every check passed, else 1."""
    if pretty:
        width = max(len(c.name) for c in report.checks)
        for c in report.checks:
            status = "pass" if c.passed else "FAIL"
            print(f"{c.name:<{width}}  {c.max_deviation:.3e}  {status}")
        print(f"overall: {'pass' if report.passed else 'FAIL'}")
    else:
        print(json.dumps({"pass": report.passed, "checks": report.as_dicts()}))
    return EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED


def _cmd_verify(args) -> int:
    from . import algebra, eigensystem, threed

    rep = algebra.EtaRepresentation(args.rep)
    report = algebra.AlgebraReport.merge(
        algebra.verify_eta_algebra(rep),
        eigensystem.verify_dispersion(rep),
        threed.verify_continuity_identities(rep),
        threed.squared_operator_check((0.6, 0.0, 0.8), energy=1.0, mass=1.0, rep=rep),
    )
    return _print_report(report, args.pretty)


def _cmd_threed_check(args) -> int:
    from . import algebra, threed

    report = threed.verify_continuity_identities(algebra.EtaRepresentation(args.rep))
    return _print_report(report, args.pretty)


def _point_payload(args, want_coefficients: bool) -> dict:
    problem = StepProblem(
        energy=args.e,
        v0=args.v0,
        mass=args.mass,
        incident_spin=Spin.UP if args.spin == "up" else Spin.DOWN,
    )
    amps = closed_form_amplitudes(problem)
    payload: dict = {}
    if want_coefficients:
        # the row's curve columns in field-table order, without their sum
        row = coefficients(problem, amps)
        payload = {
            key: getattr(row, attr) for key, (attr, _) in row._CURVES.items() if key != "sum"
        }
    payload.update(currents(problem, amps).to_json_dict())
    return payload


def _print_payload(payload: dict, pretty: bool):
    if pretty:
        width = max(len(k) for k in payload)
        for key, value in payload.items():
            print(f"{key:<{width}}  {sweep_io.format_float(value)}")
    else:
        print(sweep_io._json_object(payload.items()))


def _cmd_point(args, want_coefficients: bool) -> int:
    try:
        payload = _point_payload(args, want_coefficients)
    except ThresholdDegeneracyError as exc:
        print(f"threshold degeneracy: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MassPoleError as exc:
        print(f"mass pole: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _print_payload(payload, args.pretty)
    return EXIT_OK


def _infer_format(args) -> str:
    if args.format:
        return args.format
    suffix = Path(args.out).suffix.lower().lstrip(".")
    return suffix if suffix in ("csv", "json", "svg") else "csv"


def _emit(rows, path, fmt: str, columns):
    if fmt == "csv":
        sweep_io.emit_csv(rows, path)
    elif fmt == "json":
        sweep_io.emit_json(rows, path)
    else:
        sweep_io.emit_svg(rows, path, columns)


def _cmd_sweep(args) -> int:
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
        fmt = _infer_format(args)
        if args.columns is not None and fmt != "svg":
            raise ValueError(f"--columns selects SVG curves; the output format is {fmt}")
        result = run_sweep(spec)
        groups = [g for g in (result.evanescent_rows, result.propagating_rows) if g]
        # check the SVG columns against every regime before any file is opened
        requested = args.columns.split(",") if args.columns else None
        columns = [
            sweep_io._svg_columns(type(rows[0]), requested) if fmt == "svg" else None
            for rows in groups
        ]
    except (ThresholdDegeneracyError, MassPoleError, ValueError) as exc:
        print(f"invalid sweep: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if len(groups) == 1:
            _emit(groups[0], args.out, fmt, columns[0])
            files = [str(args.out)]
        else:
            # straddling sweep: one file per regime
            out = Path(args.out)
            files = []
            for rows, cols, tag in zip(groups, columns, ("evanescent", "propagating")):
                target = out.with_name(f"{out.stem}_{tag}{out.suffix}")
                _emit(rows, target, fmt, cols)
                files.append(str(target))
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    summary = {"rows": len(result.rows), "skipped": result.skipped, "files": files}
    if args.pretty:
        print(f"rows={summary['rows']} skipped={summary['skipped']} "
              f"files={' '.join(files)}")
    else:
        print(json.dumps(summary))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "coefficients":
        return _cmd_point(args, want_coefficients=True)
    if args.command == "currents":
        return _cmd_point(args, want_coefficients=False)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "threed-check":
        return _cmd_threed_check(args)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
