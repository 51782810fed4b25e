"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, workload: str, trace: int, seconds: str = "0.5"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_named_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_per_layer_list_matches_layers_file():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == tracing.per_layer_names()


def test_traced_sweep_builds_one_mode_basis_per_point():
    proc = _run(ROOT, "sweep_figures", 1, seconds="0.2")
    metrics = json.loads(proc.stdout.strip().split("\n")[-1])["metrics"]
    assert metrics["scattering.region_wavefunctions.calls_per_point"]["value"] == 1.0


def _copy_checkout(dest: Path, with_program: bool = True) -> Path:
    shutil.copytree(BENCH, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests" / "golden", dest / "tests" / "golden")
    return dest


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    root = _copy_checkout(tmp_path, with_program=False)
    proc = _run(root, "sweep_figures", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_corrupted_golden_byte_fails_the_run(tmp_path):
    root = _copy_checkout(tmp_path)
    golden = root / "tests" / "golden" / "fig3.csv"
    data = bytearray(golden.read_bytes())
    data[200] = ord("7") if data[200] != ord("7") else ord("8")
    golden.write_bytes(bytes(data))
    proc = _run(root, "sweep_figures", 0, seconds="0.2")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_corrupted_csv_byte_is_named(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(ROOT / "tests" / "golden", golden)
    data = bytearray((golden / "fig4.csv").read_bytes())
    data[-5] ^= 0x01
    (golden / "fig4.csv").write_bytes(bytes(data))
    wl = workloads.SweepFigures(ROOT, 0, tmp_path / "out", golden_dir=golden)
    wl.prepare()
    outcome = wl.judge(0, wl.execute(0))
    assert outcome.status == workloads.FAILED
    assert outcome.gate == (f"fig4.csv_differs_at_byte_{len(data) - 5}",)


def _propagating():
    return dict(energy=200.0, v0=100.0, mass=workloads.ELECTRON_EV, spin="up")


def _good_coefficients(energy, v0):
    t, r = gate.spinless_reference(energy, v0)
    return {"t1": 0.9 * t, "t2": 0.1 * t, "r1": 0.5 * r, "r2": 0.5 * r}


def test_correct_points_pass():
    p = _propagating()
    assert gate.check_point(**p, coeff=_good_coefficients(200.0, 100.0),
                            curr={"j_inc": 1.0}) == []
    keep, flip = gate.evanescent_reference(50.0, workloads.ELECTRON_EV, "down")
    assert gate.check_point(50.0, 100.0, workloads.ELECTRON_EV, "down",
                            {"r1_prime": keep, "r2_prime": flip},
                            {"j_inc": 1.0, "j_trans_up": 0.0, "j_trans_down": 0.0}) == []


def test_unit_sum_miss_trips_gate():
    coeff = _good_coefficients(200.0, 100.0)
    coeff["t1"] += 1e-11  # within the closed-form tolerance, outside the unit sum
    assert gate.check_point(**_propagating(), coeff=coeff, curr=None) == ["unit_sum"]


def test_spinless_reduction_miss_trips_gate():
    coeff = _good_coefficients(200.0, 100.0)
    coeff["t1"] += 1e-9
    coeff["r1"] -= 1e-9  # keeps the unit sum
    assert gate.check_point(**_propagating(), coeff=coeff, curr=None) == ["spinless_reduction"]


def test_evanescent_misses_trip_gate():
    m = workloads.ELECTRON_EV
    keep, flip = gate.evanescent_reference(50.0, m, "up")
    coeff = {"r1_prime": keep + 1e-9, "r2_prime": flip - 1e-9}
    curr = {"j_inc": 1.0, "j_trans_up": 1e-9, "j_trans_down": 0.0}
    failures = gate.check_point(50.0, 100.0, m, "up", coeff, curr)
    assert failures == ["evanescent_closed_form", "evanescent_current"]
    assert workloads.point_outcome(failures).gate == tuple(failures)


def test_near_pole_miss_within_conditioning_fails_the_operation_only():
    m = workloads.ELECTRON_EV
    energy = 1000.0
    v0 = energy + m * (1 + 1e-7)
    keep, flip = gate.evanescent_reference(energy, m, "up")
    coeff = {"r1_prime": keep + 2e-10, "r2_prime": flip - 2e-10}
    failures = gate.check_point(energy, v0, m, "up", coeff, None)
    assert failures == ["near_pole_precision"]
    outcome = workloads.point_outcome(failures)
    assert outcome.status == workloads.FAILED and outcome.gate == ()
    coeff = {"r1_prime": keep + 1e-6, "r2_prime": flip - 1e-6}
    assert gate.check_point(energy, v0, m, "up", coeff, None) == ["evanescent_closed_form"]


def test_point_stream_depends_only_on_seed():
    first = [workloads.draw_point(random.Random(5)) for _ in range(3)]
    again = [workloads.draw_point(random.Random(5)) for _ in range(3)]
    other = [workloads.draw_point(random.Random(6)) for _ in range(3)]
    assert first == again and first != other


def test_point_mix_shares():
    rng = random.Random(0)
    kinds = [workloads.draw_point(rng).kind for _ in range(20000)]
    for kind, share in (("propagating", 0.45), ("evanescent", 0.45),
                        ("threshold", 0.05), ("mass_pole", 0.05)):
        assert abs(kinds.count(kind) / len(kinds) - share) < 0.01


def test_timed_mass_pole_slice_has_no_failures():
    wl = workloads.PointQueries(ROOT, 0, ROOT)
    wl.prepare()
    rng = random.Random(0)
    outcomes = []
    while len(outcomes) < 300:
        point = workloads.draw_point(rng)
        if point.kind == "mass_pole":
            outcomes.append(wl.judge(point, wl.execute(point)).status)
    assert workloads.FAILED not in outcomes


def test_pole_probe_counts_every_point_once():
    probe = workloads.pole_probe(ROOT)
    assert probe["points"] == workloads.PROBE_POINTS
    assert probe["ok"] + probe["refused"] + probe["failed"] == probe["points"]
    errors = sum(v for k, v in probe.items() if k.startswith("error:"))
    assert errors == probe["failed"]
    assert probe == workloads.pole_probe(ROOT)


def test_calibration_window_uses_nearby_timings():
    import run

    timings = [float(t) for t in range(10)]
    assert run.around(timings, 4) == statistics.median(timings[2:8])
    assert run.around(timings, 0) == statistics.median(timings[:run.CAL_SPAN])
    assert run.around(timings, 8) == statistics.median(timings[-run.CAL_SPAN:])
    assert run.around([2.0, 4.0], 0) == 3.0


def test_tracer_counts_errors_and_skips_missing_names():
    layers = {
        "functions": [
            {"layer": "tracing.load_layers", "sites": ["tracing"], "moves": {}},
            {"layer": "tracing.no_such_function", "sites": ["tracing"], "moves": {}},
        ],
        "errors_by_type": [],
        "derived": [],
    }
    tracer = tracing.Tracer(layers)
    assert tracer.install() == ["tracing.no_such_function"]
    try:
        tracing.load_layers()
        with pytest.raises(TypeError):
            tracing.load_layers("unexpected")
    finally:
        tracer.uninstall()
    assert tracing.load_layers.__name__ == "load_layers"
    values = tracer.layer_metrics(ops=1)
    assert values["tracing.load_layers.calls"] == 2
    assert values["tracing.load_layers.errors"] == 1
    assert values["tracing.no_such_function.calls"] == 0
    assert len(tracer.spans) == 2


def test_self_time_excludes_child_spans():
    fake = types.ModuleType("perfbench_fake_layer")
    exec(
        "import time\n"
        "def inner():\n    time.sleep(0.02)\n"
        "def outer():\n    inner()\n    time.sleep(0.01)\n",
        fake.__dict__,
    )
    sys.modules[fake.__name__] = fake
    layers = {
        "functions": [
            {"layer": f"{fake.__name__}.outer", "sites": [fake.__name__], "moves": {}},
            {"layer": f"{fake.__name__}.inner", "sites": [fake.__name__], "moves": {}},
        ],
        "errors_by_type": [],
        "derived": [],
    }
    tracer = tracing.Tracer(layers)
    tracer.install()
    try:
        fake.outer()
    finally:
        tracer.uninstall()
        del sys.modules[fake.__name__]
    values = tracer.layer_metrics(ops=1)
    outer_self = values[f"{fake.__name__}.outer.self_us_per_call"]
    inner_self = values[f"{fake.__name__}.inner.self_us_per_call"]
    assert 9e3 <= outer_self < inner_self
    # outer's span covers its own work plus inner's
    assert values[f"{fake.__name__}.outer.total_ms"] * 1e3 == pytest.approx(outer_self + inner_self)
    inner_span, outer_span = tracer.spans  # the inner call ends first
    assert inner_span[1] == outer_span[0] and outer_span[1] == 0
