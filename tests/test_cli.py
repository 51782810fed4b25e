import ast
import io
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinstep import algebra, cli
from spinstep.algebra import EtaRepresentation
from spinstep.cli import main, parse_energy
from spinstep.scattering import (
    ELECTRON_MASS_EV,
    PrecisionError,
    Spin,
    StepProblem,
    coefficients,
    solve_amplitudes_linear,
)
from spinstep.sweep_io import format_float

ROOT = Path(__file__).resolve().parents[1]
# a fresh interpreter sees the checkout's package, as with `pip install -e .`
CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_energy_suffixes():
    assert parse_energy("100") == 100.0
    assert parse_energy("100ev") == 100.0
    assert parse_energy("2kev") == 2000.0
    assert parse_energy("1MeV") == 1e6
    assert parse_energy(" 1.5KEV ") == 1500.0
    with pytest.raises(ValueError):
        parse_energy("10parsec")


def test_verify_rep1_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--rep", "rep1")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    names = {c["check_name"] for c in payload["checks"]}
    assert "square_is_zero" in names
    assert "operator_square_is_2Em_identity" in names
    assert "sigma1_hermitian" in names
    for check in payload["checks"]:
        assert set(check) == {"check_name", "max_deviation", "pass"}


# the check names the report commands print, in order
ALGEBRA_CHECKS = [
    "square_is_zero", "dagger_square_is_zero", "anticommutator_is_2I", "symmetric",
    "trace_is_zero", "determinant_is_zero", "eigenvalues_all_zero",
]
REP1_GAMMA_CHECKS = [
    "eta_plus_dagger_equals_-i*sqrt2*gamma2", "dagger_times_eta_equals_I+i*gamma3",
]
DISPERSION_CHECKS = [
    "operator_square_is_2Em_identity", "state_norm_is_2", "states_orthogonal_per_direction",
    "eigen_equation_residual",
]
THREED_CHECKS = [
    *(f"mu{k}_{what}" for k in (1, 2, 3) for what in ("hermitian", "matches_block_form")),
    *(f"anticommutator_mu{i}_mu{j}" for i in (1, 2, 3) for j in (1, 2, 3) if i <= j),
    *(f"{kind}_mu{k}_{other}" for k in (1, 2, 3) for kind, other in (
        ("commutator", "gamma3"), ("anticommutator", "eta_plus_dagger"))),
    "commutator_eta_etadagger_gamma3", "anticommutator_eta_plus_dagger_gamma3",
    "sigma1_hermitian", "sigma2_hermitian", "sigma3_hermitian", "density_kernel_hermitian",
]
SQUARED_CHECKS = ["momentum_square_is_p2_identity", "energy_mass_square_is_2Em_identity"]
REPORT_CHECKS = {
    ("verify", "rep1"): (
        ALGEBRA_CHECKS + REP1_GAMMA_CHECKS + DISPERSION_CHECKS + THREED_CHECKS + SQUARED_CHECKS
    ),
    # REP2 runs no closed-form state check, so it reports only the square
    ("verify", "rep2"): (
        ALGEBRA_CHECKS + DISPERSION_CHECKS[:1] + THREED_CHECKS + SQUARED_CHECKS
    ),
    ("threed-check", "rep1"): THREED_CHECKS,
    ("threed-check", "rep2"): THREED_CHECKS,
}


@pytest.mark.parametrize("command, rep", list(REPORT_CHECKS), ids="-".join)
def test_report_commands_print_their_checks_in_order(capsys, command, rep):
    code, out, err = run_cli(capsys, command, "--rep", rep)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert [c["check_name"] for c in payload["checks"]] == REPORT_CHECKS[command, rep]
    assert [c["pass"] for c in payload["checks"]] == [True] * len(REPORT_CHECKS[command, rep])
    assert payload["pass"] is True
    # --pretty: one aligned line per check, name, deviation and status, then
    # the overall verdict
    code, out, err = run_cli(capsys, command, "--rep", rep, "--pretty")
    assert (code, err) == (0, "")
    *lines, last = out.splitlines()
    assert last == "overall: pass"
    width = max(map(len, REPORT_CHECKS[command, rep]))
    assert [line[:width].rstrip() for line in lines] == REPORT_CHECKS[command, rep]
    for line in lines:
        assert re.fullmatch(r"  \d\.\d{3}e[+-]\d\d  pass", line[width:]), line


REP_CHOICES = "{" + ",".join(rep.value for rep in EtaRepresentation) + "}"


@pytest.mark.parametrize("command, option, choices", [
    ("verify", "--rep", REP_CHOICES),
    ("threed-check", "--rep", REP_CHOICES),
    ("coefficients", "--spin", "{up,down}"),
    ("currents", "--spin", "{up,down}"),
    ("sweep", "--spacing", "{linear,log}"),
    ("sweep", "--regime", "{propagating,evanescent,auto}"),
    ("sweep", "--format", "{csv,json,svg}"),
])
def test_help_shows_the_option_choices(capsys, monkeypatch, command, option, choices):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    assert f"  {option} {choices}" in out


def test_verify_rep2_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--rep", "rep2")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_detects_corrupted_eta(capsys, monkeypatch):
    # one bent entry of the table of sqrt(2)*eta fails both report commands
    table = [list(row) for row in algebra._SQRT2_ETA[EtaRepresentation.REP1]]
    table[0][1] += 1e-6
    monkeypatch.setitem(algebra._SQRT2_ETA, EtaRepresentation.REP1, tuple(map(tuple, table)))
    for command in ("verify", "threed-check"):
        code, out, _ = run_cli(capsys, command, "--rep", "rep1")
        assert code == 1
        assert json.loads(out)["pass"] is False


def test_coefficients_propagating(capsys):
    code, out, _ = run_cli(capsys, "coefficients", "--e", "200", "--v0", "100")
    assert code == 0
    payload = json.loads(out)
    total = payload["t1"] + payload["t2"] + payload["r1"] + payload["r2"]
    assert abs(total - 1.0) <= 1e-12
    assert abs(payload["t1"] + payload["t2"] - payload["t_qm"]) <= 1e-10
    assert "j_inc" in payload and payload["j_inc"] > 0


def test_coefficients_evanescent_fields(capsys):
    code, out, _ = run_cli(capsys, "coefficients", "--e", "50", "--v0", "100")
    assert code == 0
    payload = json.loads(out)
    me = 510998.95
    assert payload["r1_prime"] == pytest.approx((50 - me) ** 2 / (50 + me) ** 2, abs=1e-12)
    assert "t1" not in payload and "t_qm" not in payload
    assert payload["j_trans_up"] == 0.0


def evanescent_reflection(energy, spin):
    """(R1', R2') at the electron mass, (E-m)^2/(E+m)^2 kept and 4Em/(E+m)^2
    flipped, at 50 digits, for the incident spin."""
    with mpmath.workdps(50):
        e, m = mpmath.mpf(energy), mpmath.mpf(ELECTRON_MASS_EV)
        keep, flip = (e - m) ** 2 / (e + m) ** 2, 4 * e * m / (e + m) ** 2
    return (keep, flip) if spin == "up" else (flip, keep)


def test_coefficients_at_threshold_exit_0(capsys):
    # E = V0 is a result of the evanescent branch, the limit of both
    # branches there: R1' and R2' as below the step, and no transmission
    for spin in ("up", "down"):
        code, out, err = run_cli(
            capsys, "coefficients", "--e", "100", "--v0", "100", "--spin", spin
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        for name, want in zip(("r1_prime", "r2_prime"), evanescent_reflection(100.0, spin)):
            assert abs(payload[name] - want) <= 1e-13 * want, name
        assert payload["j_trans_up"] == payload["j_trans_down"] == 0.0
        assert payload["j_inc"] > 0


@pytest.mark.parametrize("spin", ("up", "down"))
def test_coefficients_on_mass_pole_exit_0(capsys, spin):
    # V0 - E = m exactly: a result, not a refusal
    assert 511998.95 - 1000.0 == ELECTRON_MASS_EV
    code, out, err = run_cli(
        capsys, "coefficients", "--e", "1000", "--v0", "511998.95", "--spin", spin
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    for name, want in zip(("r1_prime", "r2_prime"), evanescent_reflection(1000.0, spin)):
        assert abs(payload[name] - want) <= 1e-15, name
    assert payload["j_trans_up"] == payload["j_trans_down"] == 0.0
    assert payload["j_inc"] > 0


def test_sweep_on_mass_pole_exit_0(capsys, tmp_path):
    # the middle grid point has E = m and V0 - E = m: R1' = 0 and R2' = 1
    out = tmp_path / "pole.csv"
    code, stdout, err = run_cli(
        capsys, "sweep", "--v0", "1021997.9", "--from", "0.25", "--to", "0.75",
        "--points", "3", "--spacing", "linear", "--regime", "evanescent", "--out", str(out),
    )
    assert (code, err) == (0, "")
    assert json.loads(stdout) == {"rows": 3, "files": [str(out)]}
    header, *lines = out.read_text().splitlines()
    assert header == "E_eV,E_over_V0,R1_prime,R2_prime,sum"
    assert len(lines) == 3
    energy, x, r1, r2, total = map(float, lines[1].split(","))
    assert (energy, x) == (ELECTRON_MASS_EV, 0.5)
    assert (r1, r2, total) == (0.0, 1.0, 1.0)


def test_sweep_through_threshold_row_equals_point_query(capsys, tmp_path):
    # the grid point x = 1 is a row of the evanescent file, with the
    # values `coefficients` prints at E = V0
    out = tmp_path / "t.csv"
    code, stdout, err = run_cli(
        capsys, "sweep", "--v0", "100", "--from", "0.5", "--to", "1.5",
        "--points", "3", "--spacing", "linear", "--out", str(out),
    )
    assert (code, err) == (0, "")
    files = [str(tmp_path / "t_evanescent.csv"), str(tmp_path / "t_propagating.csv")]
    assert json.loads(stdout) == {"rows": 3, "files": files}
    header, *lines = Path(files[0]).read_text().splitlines()
    assert header == "E_eV,E_over_V0,R1_prime,R2_prime,sum"
    assert lines[-1].split(",")[:2] == ["100", "1"]
    _, point, _ = run_cli(capsys, "coefficients", "--e", "100", "--v0", "100")
    payload = json.loads(point)
    assert lines[-1].split(",")[2:4] == [format_float(payload[k]) for k in ("r1_prime", "r2_prime")]
    assert len(Path(files[1]).read_text().splitlines()) == 2


def test_coefficients_near_mass_pole_spin_down(capsys):
    # a near-pole spin-down point (|V0-E-m|/m = 8.3e-6) of perfbench's
    # seed-2 point-query stream
    energy, v0, m = 7734.886177844446, 518729.61389051046, ELECTRON_MASS_EV
    keep = (energy - m) ** 2 / (energy + m) ** 2
    flip = 4 * energy * m / (energy + m) ** 2
    problem = StepProblem(energy=energy, v0=v0, incident_spin=Spin.DOWN)
    coeff = coefficients(problem, solve_amplitudes_linear(problem))
    assert coeff.r1_prime == pytest.approx(flip, abs=1e-13)
    assert coeff.r2_prime == pytest.approx(keep, abs=1e-13)
    code, out, _ = run_cli(
        capsys, "coefficients", "--e", str(energy), "--v0", str(v0), "--spin", "down"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["r1_prime"] == pytest.approx(flip, abs=1e-13)
    assert payload["r2_prime"] == pytest.approx(keep, abs=1e-13)


def test_currents_command(capsys):
    code, out, _ = run_cli(capsys, "currents", "--e", "200", "--v0", "100")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"j_inc", "j_refl_up", "j_refl_down",
                            "j_trans_up", "j_trans_down"}


def test_sweep_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "fig2.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--v0", "100", "--from", "1.001", "--to", "10",
        "--points", "40", "--out", str(out_file),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["rows"] == 40
    lines = out_file.read_text().strip().split("\n")
    assert len(lines) == 41
    assert lines[0] == "E_eV,E_over_V0,T1,T2,R1,R2,sum,T_QM,R_QM"


def test_sweep_default_grid(tmp_path, capsys):
    # without --from, --to, --points and --spacing: 100 log-spaced E/V0
    # from 1.001 to 10
    out_file = tmp_path / "default.csv"
    code, out, _ = run_cli(capsys, "sweep", "--v0", "100", "--out", str(out_file))
    assert code == 0
    assert json.loads(out)["rows"] == 100
    ratios = [float(line.split(",")[1]) for line in out_file.read_text().splitlines()[1:]]
    assert ratios[0] == pytest.approx(1.001, rel=1e-12)
    assert ratios[-1] == pytest.approx(10.0, rel=1e-12)
    assert ratios[1] / ratios[0] == pytest.approx(ratios[-1] / ratios[-2], rel=1e-9)


def test_sweep_spin_flip_dominates_at_high_barrier(tmp_path, capsys):
    # spin-flip reflection dominates below the crossover at E = (3+2*sqrt(2))*m,
    # i.e. E/V0 < 2.978 for V0 = 1 MeV
    out_file = tmp_path / "fig3.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--v0", "1mev", "--from", "1.001", "--to", "2.9",
        "--points", "25", "--out", str(out_file),
    )
    assert code == 0
    for line in out_file.read_text().strip().split("\n")[1:]:
        _, _, _, _, r1, r2, _, _, _ = (float(t) for t in line.split(","))
        assert r2 > r1


def test_sweep_evanescent_sum_rule(tmp_path, capsys):
    out_file = tmp_path / "fig4.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--regime", "evanescent", "--v0", "100",
        "--from", "0.01", "--to", "0.99", "--points", "30",
        "--spacing", "linear", "--out", str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "E_eV,E_over_V0,R1_prime,R2_prime,sum"
    for line in lines[1:]:
        *_, r1p, r2p, total = (float(t) for t in line.split(","))
        assert abs(r1p + r2p - 1.0) <= 1e-12
        assert abs(total - 1.0) <= 1e-12


def test_sweep_auto_straddling_writes_two_files(tmp_path, capsys):
    out_file = tmp_path / "both.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--v0", "100", "--from", "0.5", "--to", "2.0",
        "--points", "10", "--spacing", "linear", "--out", str(out_file),
    )
    assert code == 0
    summary = json.loads(out)
    assert len(summary["files"]) == 2
    assert (tmp_path / "both_evanescent.csv").exists()
    assert (tmp_path / "both_propagating.csv").exists()


def test_sweep_pretty_summary_is_one_line(tmp_path, capsys):
    # --pretty prints the summary as `rows=N files=...`, the files space
    # separated, here one per regime of a straddling sweep
    out_file = tmp_path / "both.csv"
    code, out, err = run_cli(
        capsys, "sweep", "--v0", "100", "--from", "0.5", "--to", "2.0",
        "--points", "10", "--spacing", "linear", "--out", str(out_file), "--pretty",
    )
    files = [tmp_path / "both_evanescent.csv", tmp_path / "both_propagating.csv"]
    assert (code, out, err) == (0, f"rows=10 files={files[0]} {files[1]}\n", "")


def test_sweep_with_no_rows_names_no_file(tmp_path, capsys):
    # with a subnormal V0 every x*V0 rounds back to V0, where the reflected
    # amplitudes overflow: the sweep refuses with the stderr line of
    # `coefficients` at that point, and writes nothing
    code, out, err = run_cli(
        capsys, "sweep", "--v0", "5e-324", "--from", "1.01", "--to", "1.4",
        "--out", str(tmp_path / "x.csv"),
    )
    assert (code, out) == (2, "")
    assert err.startswith("beyond double precision: E = 5e-324, V0 = 5e-324, m = 510998.95")
    assert PRECISION + "probabilities {'r1_prime': nan" in err
    assert list(tmp_path.iterdir()) == []
    assert run_cli(capsys, "coefficients", "--e", "5e-324", "--v0", "5e-324") == (2, "", err)


@pytest.mark.parametrize("spacing", ("log", "linear"))
def test_refused_sweep_prints_the_line_of_its_first_refused_point(tmp_path, capsys, spacing):
    # every closed-form denominator underflows to 0: the sweep's stderr line
    # is the `coefficients` line at its first energy, on either grid
    code, out, err = run_cli(
        capsys, "sweep", "--v0", "1e-300", "--mass", "1e-300", "--from", "0.1", "--to", "0.5",
        "--points", "5", "--spacing", spacing, "--regime", "evanescent",
        "--out", str(tmp_path / "x.csv"),
    )
    assert (code, out) == (2, "")
    assert err == (
        "beyond double precision: E = 1e-301, V0 = 1e-300, m = 1e-300" + PRECISION
        + "a denominator underflows to 0\n"
    )
    assert list(tmp_path.iterdir()) == []
    point = run_cli(capsys, "coefficients", "--e", "1e-301", "--v0", "1e-300", "--mass", "1e-300")
    assert point == (2, "", err)


def test_sweep_svg_format(tmp_path, capsys):
    out_file = tmp_path / "fig.svg"
    code, _, _ = run_cli(
        capsys, "sweep", "--v0", "100", "--from", "1.001", "--to", "10",
        "--points", "15", "--out", str(out_file), "--columns", "t1,t2",
    )
    assert code == 0
    text = out_file.read_text()
    assert text.count("<polyline") == 2


@pytest.mark.parametrize("x_min, columns, target", [
    ("1.001", "foo", "x.svg"),
    ("1.001", ",", "x.svg"),
    ("1.001", "", "x.svg"),
    # straddling: r1_prime exists below the step only, so the propagating
    # file would fail; neither file may be written
    ("0.5", "r1_prime", "x.svg"),
    # --columns selects SVG curves and is refused for the other formats
    ("1.001", "foo", "x.csv"),
    ("1.001", "t1", "x.json"),
], ids=["unknown", "empty", "blank", "straddling", "csv", "json"])
def test_sweep_bad_svg_columns_exit_2_and_write_nothing(tmp_path, capsys, x_min, columns, target):
    code, out, err = run_cli(
        capsys, "sweep", "--v0", "100", "--from", x_min, "--to", "2",
        "--points", "10", "--spacing", "linear", "--out", str(tmp_path / target),
        "--columns", columns,
    )
    assert code == 2
    assert err.startswith("invalid sweep: ")
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_sweep_invalid_grid_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--v0", "100", "--from", "5", "--to", "2",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "invalid sweep" in err


# each sweep's options and the start of its one stderr line
OUT_OF_RANGE_SWEEPS = [
    (("--v0", "100", "--to", "inf"), "invalid sweep: "),
    (("--v0", "100", "--from=-inf"), "invalid sweep: "),
    (("--v0", "100", "--from", "nan"), "invalid sweep: "),
    # overflow: every column is nan, a PrecisionError as at its first point,
    # or the top energy 10 * V0 exceeds the largest double, which SweepSpec
    # refuses
    (("--v0", "1e300"), "beyond double precision: "),
    (("--v0", "1e308"), "invalid sweep: "),
    # a log grid's top is its bound, within the double range, and refused as
    # its point query is: its probabilities overflow
    (("--v0", "1", "--from", "1.5", "--to", "1.7976931348622103e308", "--points", "2"),
     "beyond double precision: E = 1.7976931348622103e+308, V0 = 1.0, m = 510998.95 eV are "
     "beyond what double precision resolves: probabilities {'t1': nan, 't2': nan, 'r1': 0.0, "
     "'r2': nan} are not finite"),
]


@pytest.mark.parametrize(
    "argv, prefix", [pytest.param(*sweep, id=" ".join(sweep[0])) for sweep in OUT_OF_RANGE_SWEEPS]
)
def test_sweep_out_of_range_exit_2_with_one_line(tmp_path, capsys, argv, prefix):
    # a warning raised as an error would escape main() instead of exiting 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "sweep", *argv, "--out", str(tmp_path / "x.csv"))
    assert (code, out) == (2, "")
    assert err.startswith(prefix) and err.count("\n") == 1
    assert len(err) < 400
    assert list(tmp_path.iterdir()) == []


def test_sweep_bottom_energy_underflowing_to_0_exit_2(tmp_path, capsys):
    # x*V0 = 1e-350 rounds to 0: refused by the spec, as `coefficients
    # --e 0` is refused, where the sweep wrote an E = 0 row and exited 0
    code, out, err = run_cli(
        capsys, "sweep", "--v0", "1e-100", "--mass", "1e-100", "--from", "1e-250", "--to", "0.5",
        "--points", "3", "--regime", "evanescent", "--out", str(tmp_path / "x.csv"),
    )
    assert (code, out) == (2, "")
    assert err == (
        "invalid sweep: the bottom energy e_over_v0_min * v0 = 1e-250 * 1e-100 eV "
        "underflows to 0\n"
    )
    assert list(tmp_path.iterdir()) == []
    code, _, err = run_cli(capsys, "coefficients", "--e", "0", "--v0", "1e-100")
    assert code == 2 and err.startswith("invalid input: energy must be positive")


def test_sweep_top_energy_beyond_the_double_range_exit_2(tmp_path, capsys):
    # refused by the spec, named by its inputs, before any grid energy is inf
    code, out, err = run_cli(
        capsys, "sweep", "--v0", "100", "--from", "1.5", "--to", "1e308", "--points", "3",
        "--out", str(tmp_path / "x.csv"),
    )
    assert (code, out) == (2, "")
    assert err == (
        "invalid sweep: the top energy e_over_v0_max * v0 = 1e+308 * 100.0 eV "
        "exceeds the largest double\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_sweep_unwritable_path_exit_3(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--v0", "100", "--from", "1.001", "--to", "2",
        "--points", "5", "--out", str(tmp_path / "missing_dir" / "x.csv"),
    )
    assert code == 3
    assert "cannot write" in err


@pytest.mark.parametrize("argv", [
    ("coefficients", "--e", "200", "--v0", "100"),
    ("verify",),
    ("sweep", "--v0", "100", "--points", "5", "--out", "fig.csv"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("unbuffered", ("1", ""), ids=("unbuffered", "buffered"))
def test_a_closed_stdout_exits_3_with_one_line(argv, unbuffered, tmp_path):
    # the read end of the pipe is closed before the command prints: an I/O
    # error, exit 3 and one stderr line, not a traceback and exit 1, the
    # code of a failed verification; with stdout unbuffered the print
    # raises, buffered the flush at the end of the command
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "spinstep", *argv], stdout=write_end, stderr=subprocess.PIPE,
            text=True, cwd=tmp_path, env={**CHILD_ENV, "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write_end)
    assert result.returncode == 3
    assert result.stderr == "cannot write output: [Errno 32] Broken pipe\n"


def test_threed_check(capsys):
    code, out, _ = run_cli(capsys, "threed-check", "--rep", "rep1")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_usage_error_exit_2(capsys):
    assert main(["bogus-command"]) == 2
    assert main(["coefficients", "--e", "100"]) == 2  # missing --v0


def test_pretty_output(capsys):
    code, out, _ = run_cli(capsys, "coefficients", "--e", "200", "--v0", "100",
                           "--pretty")
    assert code == 0
    assert "t1" in out and "{" not in out


def test_module_entry_point_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "spinstep", "coefficients", "--e", "300",
         "--v0", "100kev"],
        capture_output=True, text=True,
    )
    # 300 eV < 100 keV: evanescent output
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert "r1_prime" in payload


# exact stdout of the README's point commands
README_POINT_STDOUT = {
    ("coefficients", "--e", "200", "--v0", "100"): (
        '{"t1": 0.97053018001037106, "t2": 3.256846676948649e-05, '
        '"r1": 0.029391201765397841, "r2": 4.6049757461571695e-05, '
        '"t_qm": 0.97056274847714064, "r_qm": 0.029437251522859413, '
        '"j_inc": 0.11186907259472477, "j_refl_up": -0.0032879664839394938, '
        '"j_refl_down": -5.1515436604380322e-06, "j_trans_up": 0.10857231116295152, '
        '"j_trans_down": 3.6434041733345657e-06}\n'
    ),
    ("coefficients", "--e", "50", "--v0", "100"): (
        '{"r1_prime": 0.99960868634520683, "r2_prime": 0.00039131365479335399, '
        '"j_inc": 0.055950953864494855, "j_refl_up": -0.055929059492248974, '
        '"j_refl_down": -2.1894372245889814e-05, "j_trans_up": 0, "j_trans_down": 0}\n'
    ),
    ("currents", "--e", "200", "--v0", "100"): (
        '{"j_inc": 0.11186907259472477, "j_refl_up": -0.0032879664839394938, '
        '"j_refl_down": -5.1515436604380322e-06, "j_trans_up": 0.10857231116295152, '
        '"j_trans_down": 3.6434041733345657e-06}\n'
    ),
    ("coefficients", "--e", "200", "--v0", "100", "--pretty"): (
        "t1            0.97053018001037106\n"
        "t2            3.256846676948649e-05\n"
        "r1            0.029391201765397841\n"
        "r2            4.6049757461571695e-05\n"
        "t_qm          0.97056274847714064\n"
        "r_qm          0.029437251522859413\n"
        "j_inc         0.11186907259472477\n"
        "j_refl_up     -0.0032879664839394938\n"
        "j_refl_down   -5.1515436604380322e-06\n"
        "j_trans_up    0.10857231116295152\n"
        "j_trans_down  3.6434041733345657e-06\n"
    ),
}


@pytest.mark.parametrize("argv", list(README_POINT_STDOUT), ids=" ".join)
def test_readme_point_commands_stdout(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, README_POINT_STDOUT[argv], "")


COLD_POINT_STDOUT = {
    **{argv: README_POINT_STDOUT[argv] for argv in list(README_POINT_STDOUT)[:3]},
    ("currents", "--e", "50", "--v0", "100"): (
        '{"j_inc": 0.055950953864494855, "j_refl_up": -0.055929059492248974, '
        '"j_refl_down": -2.1894372245889814e-05, "j_trans_up": 0, "j_trans_down": 0}\n'
    ),
}


# `python -m spinstep ARGS` run through runpy, as -m runs it, which at exit
# writes the names in its sys.modules, one a line, to the file named by its
# first argument: -X importtime does not list the submodules the package
# __getattr__ loads through importlib.import_module, sys.modules holds them
RUN_AND_LIST_MODULES = (
    "import atexit, runpy, sys\n"
    "listing = sys.argv.pop(1)\n"
    "@atexit.register\n"
    "def write():\n"
    "    with open(listing, 'w') as out:\n"
    "        out.write('\\n'.join(list(sys.modules)))\n"
    "runpy.run_module('spinstep', run_name='__main__', alter_sys=True)\n"
)


def _run_listing_modules(argv, cwd, *flags):
    """The finished `python FLAGS -m spinstep ARGV` child, run in cwd, and
    the names in its sys.modules at exit."""
    listing = cwd / "sys.modules.txt"
    result = subprocess.run(
        [sys.executable, *flags, "-c", RUN_AND_LIST_MODULES, str(listing), *argv],
        capture_output=True, text=True, cwd=cwd, env=CHILD_ENV,
    )
    modules = set(listing.read_text().splitlines())
    listing.unlink()
    return result, modules


def _assert_cli_without_numpy(modules: set, bare_modules: set):
    # neither numpy nor dataclasses (with the inspect it pulls in) among the
    # modules a bare interpreter does not import already
    imported = modules - bare_modules
    assert "spinstep.cli" in imported
    assert not [
        m for m in imported if m in ("numpy", "dataclasses") or m.startswith("numpy.")
    ]


@pytest.fixture(scope="module")
def bare_interpreter_modules() -> set:
    # what a bare interpreter in this environment imports anyway (site and
    # its .pth files included), so that only the command's own imports count
    result = subprocess.run(
        [sys.executable, "-c", "import sys; print('\\n'.join(list(sys.modules)))"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    return set(result.stdout.splitlines())


@pytest.mark.parametrize("argv", list(COLD_POINT_STDOUT), ids=" ".join)
def test_point_commands_never_import_numpy(argv, tmp_path, bare_interpreter_modules):
    # a fresh interpreter, as a user runs it; a point command loads neither
    # numpy nor the identity suites of algebra
    result, modules = _run_listing_modules(argv, tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (0, COLD_POINT_STDOUT[argv], "")
    _assert_cli_without_numpy(modules, bare_interpreter_modules)
    assert "spinstep.algebra" not in modules


@pytest.mark.parametrize("command, rep", list(REPORT_CHECKS), ids="-".join)
def test_report_commands_never_import_numpy(command, rep, tmp_path, bare_interpreter_modules):
    # the identity suites run on algebra's tables in Python numbers, and
    # neither report command loads the array functions of eigensystem
    result, modules = _run_listing_modules([command, "--rep", rep], tmp_path)
    assert result.returncode == 0
    assert json.loads(result.stdout)["pass"] is True
    _assert_cli_without_numpy(modules, bare_interpreter_modules)
    assert "spinstep.algebra" in modules and "spinstep.eigensystem" not in modules


@pytest.mark.parametrize("argv", [
    ("sweep", "--v0", "100", "--from", "0.5", "--to", "2", "--points", "31",
     "--spacing", "linear", "--out", "straddle.json"),
    ("sweep", "--regime", "evanescent", "--v0", "1mev", "--mass", "1kev", "--from", "0.001",
     "--to", "0.999", "--points", "200", "--spacing", "linear", "--out", "below.svg"),
], ids=lambda argv: argv[-1])
def test_linear_sweeps_never_import_numpy(argv, tmp_path, bare_interpreter_modules):
    # a linear grid is built and evaluated on Python floats, and no sweep
    # loads algebra
    _assert_sweep_without_numpy(argv, tmp_path, bare_interpreter_modules)


@pytest.mark.parametrize("argv", [
    ("sweep", "--v0", "100", "--from", "1.001", "--to", "10", "--points", "500",
     "--out", "fig2.csv"),
    ("sweep", "--v0", "100", "--from", "0.5", "--to", "2", "--points", "31", "--regime", "auto",
     "--out", "straddle.csv"),
], ids=lambda argv: argv[-1])
def test_log_sweeps_never_import_numpy(argv, tmp_path, bare_interpreter_modules):
    # a log grid too, the README fig2 sweep and one across E = V0: 10.0 ** y
    # on Python floats, evaluated by the grid kernel's inline loop
    _assert_sweep_without_numpy(argv, tmp_path, bare_interpreter_modules)


def _assert_sweep_without_numpy(argv, tmp_path, bare_interpreter_modules):
    result, modules = _run_listing_modules(argv, tmp_path)
    assert result.returncode == 0
    summary = json.loads(result.stdout)
    assert summary["rows"] == int(argv[argv.index("--points") + 1])
    assert all((tmp_path / name).stat().st_size for name in summary["files"])
    _assert_cli_without_numpy(modules, bare_interpreter_modules)
    assert "spinstep.algebra" not in modules


def _readme_commands() -> list:
    """The argument lists of the README "Command line" block, after
    `spinstep`: continuation lines joined, comments dropped."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    assert all(c[0] == "spinstep" for c in commands if c)
    return [c[1:] for c in commands if c]


def test_readme_command_line_block_runs(tmp_path, bare_interpreter_modules):
    # every command as a user runs it, in a fresh interpreter with warnings
    # as errors: exit 0, nothing on stderr, the pinned point stdout, no
    # numpy or dataclasses in sys.modules, no algebra but after a report
    # command, no eigensystem at all, and figure sweeps byte-equal to the
    # goldens
    commands = _readme_commands()
    for argv in commands:
        result, modules = _run_listing_modules(argv, tmp_path, "-W", "error")
        assert (result.returncode, result.stderr) == (0, ""), argv
        if argv[0] in ("coefficients", "currents"):
            assert result.stdout == README_POINT_STDOUT[tuple(argv)]
        _assert_cli_without_numpy(modules, bare_interpreter_modules)
        report = argv[0] in ("verify", "threed-check")
        assert ("spinstep.algebra" in modules) == report, argv
        assert "spinstep.eigensystem" not in modules, argv
    # fig2 and fig3 on the default log grid, fig4 on a linear one
    assert [argv[-1] for argv in commands if argv[0] == "sweep"] == [
        "fig2.csv", "fig3.csv", "fig4.csv"
    ]
    assert [argv[-1] for argv in commands if "linear" in argv] == ["fig4.csv"]
    for fig in ("fig2", "fig3", "fig4"):
        golden = (ROOT / "tests" / "golden" / f"{fig}.csv").read_bytes()
        assert (tmp_path / f"{fig}.csv").read_bytes() == golden, fig


# every positive double, subnormals and the largest included
POSITIVE_DOUBLES = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# what every PrecisionError message says after its inputs
PRECISION = " eV are beyond what double precision resolves: "


@settings(max_examples=200, deadline=None)
@example("coefficients", 1e-200, 1e-250, 1e-250, "up")
@example("currents", 1.909664723458892e-279, 1.047440777301433e-211,
         1.3463167317287237e-146, "down")
@example("currents", 1e300, 1e299, ELECTRON_MASS_EV, "up")
@example("coefficients", 8.642789733510597e29, 2.8657905150671188e-148,
         1.2517607382783581e278, "down")
@given(command=st.sampled_from(("coefficients", "currents")), energy=POSITIVE_DOUBLES,
       v0=POSITIVE_DOUBLES, mass=POSITIVE_DOUBLES, spin=st.sampled_from(("up", "down")))
def test_point_commands_exit_0_or_2_for_every_positive_double(command, energy, v0, mass, spin):
    # a result or a domain refusal, never a traceback or the exit code of a
    # failed verification; a result is strict JSON, without NaN or Infinity
    argv = [command, "--e", repr(energy), "--v0", repr(v0), "--mass", repr(mass), "--spin", spin]
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 2)
    assert (code == 2) == bool(err.getvalue())
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
    else:
        # the refusal's kind, by its prefix: a PrecisionError prints "beyond
        # double precision", and the one untyped refusal, finite probabilities
        # that fail the unit sum where a closed-form denominator overflows,
        # prints "invalid input"
        prefix, _, message = err.getvalue().partition(": ")
        kinds = ("beyond double precision", "invalid input")
        assert prefix in kinds, prefix
        if prefix == "beyond double precision":
            assert PRECISION in message, message
        if prefix == "invalid input":
            assert "violate unitarity" in message, message


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    ("coefficients", "--e", "1e-200", "--v0", "1e-250", "--mass", "1e-250"),
    ("currents", "--e", "1.909664723458892e-279", "--v0", "1.047440777301433e-211",
     "--mass", "1.3463167317287237e-146", "--spin", "down"),
], ids=" ".join)
def test_underflowing_point_commands_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("beyond double precision: ")
    assert PRECISION in err


@pytest.mark.parametrize("argv", [
    ("currents", "--e", "1e300", "--v0", "1e299"),
    ("coefficients", "--e", "8.642789733510597e+29", "--v0", "2.8657905150671188e-148",
     "--mass", "1.2517607382783581e+278", "--spin", "down"),
    ("coefficients", "--e", "7.796878006602118e+100", "--v0", "4.849439980930081e-300",
     "--mass", "0.0001401909178672337"),
], ids=" ".join)
def test_overflowing_point_commands_exit_2(capsys, argv):
    # nan or inf currents, or an infinite E/V0, are refused, never printed
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("beyond double precision: ")
    assert PRECISION in err


# the NamedTuple API is public despite its underscores
NAMEDTUPLE_API = {"_fields", "_field_defaults", "_asdict", "_replace", "_make"}

# (module, name): the only private names a module reads of another, all
# scattering's: the grid kernel a sweep runs, the check every entry point
# calls, the rows' shared CSV text and JSON template, and the one spinor builder
SCATTERING_PRIVATE_READS = {
    *(("sweep_io", name) for name in (
        "_MAX", "_positive_finite", "_rows", "_csv_text", "_JSON_LINE",
    )),
    *((module, name) for module in ("algebra", "eigensystem")
      for name in ("_positive_finite", "_eigen_spinors")),
}


def _private_reads(tree: ast.Module) -> set:
    """The private names a module imports from the package or reads as an
    attribute, but dunders and the NamedTuple API."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return {
        name for name in read
        if name.startswith("_") and not name.startswith("__") and name not in NAMEDTUPLE_API
    }


def _bound(tree: ast.Module) -> set:
    """Every name a module defines or assigns, as a name or an attribute, at
    any depth."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            bound.add(node.attr)
    return bound


def test_cli_uses_no_private_name_of_another_module():
    # every module, cli included, reads each default, choice and helper of
    # another through a public name of the module or type that owns it, but
    # for the listed reads of scattering's kernel: a private name of algebra
    # read anywhere else fails here
    package = Path(cli.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    foreign = {
        (module, name) for module, tree in trees.items() for name in _private_reads(tree) - _bound(tree)
    }
    assert foreign == SCATTERING_PRIVATE_READS
    assert {name for _, name in foreign} <= _bound(trees["scattering"])


def test_refusal_kinds_are_the_exported_errors_raised_and_documented():
    # the ValueError subclasses the package exports are exactly the kinds the
    # point commands prefix, PrecisionError alone, each is raised somewhere
    # in the package, and the README names exactly those prefixes and the two
    # generic ones: a kind that nothing raises, or a stale prefix, fails here
    import spinstep

    exported = {getattr(spinstep, name) for name in spinstep.__all__}
    kinds = {v for v in exported if isinstance(v, type) and issubclass(v, ValueError)}
    assert kinds == set(cli._REFUSALS) == {PrecisionError}
    package = Path(cli.__file__).parent
    source = "".join(path.read_text(encoding="utf-8") for path in package.glob("*.py"))
    for kind in kinds:
        assert f"raise {kind.__name__}(" in source, kind
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"`([a-z ]+):`", readme))
    assert documented == {*cli._REFUSALS.values(), "invalid input", "invalid sweep"}
