import json
import subprocess
import sys

import pytest

from spinstep import algebra
from spinstep.cli import main, parse_energy
from spinstep.eigensystem import ELECTRON_MASS_EV, Spin
from spinstep.scattering import StepProblem, coefficients, solve_amplitudes_linear


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
    assert "eigenvalues_match_sqrt_2Em" in names
    assert "sigma1_hermitian" in names
    for check in payload["checks"]:
        assert set(check) == {"check_name", "max_deviation", "pass"}


def test_verify_rep2_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--rep", "rep2")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_detects_corrupted_eta(capsys, monkeypatch):
    good = algebra.eta()
    corrupted = good.copy()
    corrupted[0, 1] += 1e-6
    corrupted.setflags(write=False)
    monkeypatch.setitem(algebra._ETA, algebra.EtaRepresentation.REP1, corrupted)
    code, out, _ = run_cli(capsys, "verify", "--rep", "rep1")
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


def test_coefficients_threshold_exit_2(capsys):
    code, out, err = run_cli(capsys, "coefficients", "--e", "100", "--v0", "100")
    assert code == 2
    assert "threshold degeneracy" in err
    assert out == ""


def test_coefficients_mass_pole_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "coefficients", "--e", "1000", "--v0", str(1000.0 + 510998.95)
    )
    assert code == 2
    assert "mass pole" in err


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
    assert summary["skipped"] == 0
    lines = out_file.read_text().strip().split("\n")
    assert len(lines) == 41
    assert lines[0] == "E_eV,E_over_V0,T1,T2,R1,R2,sum,T_QM,R_QM"


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


def test_sweep_svg_format(tmp_path, capsys):
    out_file = tmp_path / "fig.svg"
    code, _, _ = run_cli(
        capsys, "sweep", "--v0", "100", "--from", "1.001", "--to", "10",
        "--points", "15", "--out", str(out_file), "--columns", "t1,t2",
    )
    assert code == 0
    text = out_file.read_text()
    assert text.count("<polyline") == 2


def test_sweep_invalid_grid_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--v0", "100", "--from", "5", "--to", "2",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "invalid sweep" in err


def test_sweep_unwritable_path_exit_3(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--v0", "100", "--from", "1.001", "--to", "2",
        "--points", "5", "--out", str(tmp_path / "missing_dir" / "x.csv"),
    )
    assert code == 3
    assert "cannot write" in err


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
