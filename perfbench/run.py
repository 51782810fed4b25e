"""spinstep benchmark: one command per workload, metrics by name and unit.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (sweep_figures, point_queries or cli_cold; see
workloads.py) as a closed loop for S seconds, checks every result with the
correctness gate, and prints the metrics, then a diagnostics JSON line,
then as the last line one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 every other operation runs with the layer wrappers of
tracing.py installed and the metrics are the per-layer ones, including the
tracing overhead.  Exits 1 if any result fails the correctness gate and 2
if the checkout lacks the program or its golden files.

Set-up is timed in SETUP_REPEATS fresh interpreters (child.py setup),
spread over the run, and reported as the median.

Times are host-calibrated.  A fixed calibration loop (calibration_ms) is
timed between every two windows of operations and around every set-up
probe, and each time is multiplied by CAL_REF_MS over the calibration time
around it (the median of CAL_SPAN timings for operation windows): the
reported times are those of a host on which the loop takes CAL_REF_MS.
The process and its children are pinned to one CPU, so that the loop and
the timed work share a core.  The host this was built on switches for seconds to
minutes between a fast state and one 1.5-2x slower, in CPU time as well as
wall time, and the same code then moved by that much from run to run; the
program's time and the loop's move together.  The raw times and the
calibration stay in the diagnostics line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import workloads

os.environ.update(workloads.SINGLE_THREAD_ENV)

SETUP_REPEATS = 9
# A traced run alternates traced and untraced operations and needs both.
MIN_OPERATIONS = 2
# Calibration time (ms) of the reference host the reported times are
# scaled to; about the loop's time in the fast state of the 2-core host
# this was built on.
CAL_REF_MS = 4.0
# Calibration timings an operation window is scaled by: the CAL_SPAN
# nearest its two ends, about a second of the run.
CAL_SPAN = 6
# The tail percentile, the same for every workload and every run.  p90,
# p99 and p99.9 of point_queries are set by host interference on a 0.2 ms
# operation rather than by the program: after calibration p90 still spread
# 11% from run to run on the host this was built on, p75 about 5%.  A run
# with fewer than TAIL_MIN_BEYOND samples beyond it falls back down
# TAIL_LADDER, and the diagnostics line says which percentile was used.
TAIL_PERCENTILE = 75.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
OUT_DIR_NAME = ".perfbench_out"


def percentile(sorted_values: list, q: float) -> float:
    """Linear-interpolated percentile of an ascending list (q in 0..100)."""
    if not sorted_values:
        return float("nan")
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(sorted_values: list, highest: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile of
    TAIL_LADDER, at most `highest`, with TAIL_MIN_BEYOND samples beyond it."""
    n = len(sorted_values)
    for q in (q for q in TAIL_LADDER if q <= highest):
        beyond = int(n * (100.0 - q) / 100.0)
        if beyond >= TAIL_MIN_BEYOND or q == TAIL_LADDER[-1]:
            return q, percentile(sorted_values, q), beyond
    raise AssertionError("unreachable")


def calibration_ms() -> float:
    """Fixed pure-Python and numpy work mirroring the program's mix."""
    import numpy as np

    start = time.perf_counter_ns()
    acc = 0
    for i in range(30_000):
        acc = (acc * 31 + i) % 1_000_003
    matrix = np.array(
        [[2, 1j, 0, 1], [1, 3, 1j, 0], [0, 1, 4, 1j], [1j, 0, 1, 5]], dtype=complex
    )
    rhs = np.array([1, 0, 1j, 0], dtype=complex)
    for _ in range(300):
        np.linalg.solve(matrix, rhs)
    return (time.perf_counter_ns() - start) / 1e6


def around(calibration: list[float], k: int) -> float:
    """Median of the CAL_SPAN calibration timings nearest window k, which
    lies between calibration[k] and calibration[k + 1]."""
    lo = min(max(k + 1 - CAL_SPAN // 2, 0), max(len(calibration) - CAL_SPAN, 0))
    return statistics.median(calibration[lo:lo + CAL_SPAN])


def pin_to_one_cpu():
    """Run this process, and the children it starts, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup_probe(name: str, seed: int, probe_dir: Path, root: Path) -> dict:
    """Time the workload's set-up once in a fresh interpreter, with the
    calibration loop timed just before and after it."""
    before = statistics.median(calibration_ms() for _ in range(3))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("child.py")), "setup",
         name, str(seed), str(probe_dir)],
        cwd=root, env=workloads.child_env(root), capture_output=True, text=True,
        timeout=120,
    )
    shutil.rmtree(probe_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr.strip()}")
    sample = json.loads(proc.stdout.strip().split("\n")[-1])
    after = statistics.median(calibration_ms() for _ in range(3))
    sample["calibration_ms"] = (before + after) / 2
    return sample


class Tally:
    """Compact record of a run's operations: per-operation time, points and
    traced flag in arrays, outcomes as counters, so that the benchmark's own
    memory does not grow into peak_rss_mb."""

    def __init__(self):
        self.seconds = array("d")
        self.window = array("q")  # index of the operation's calibration window
        self.points = array("q")
        self.traced = bytearray()
        self.status: Counter = Counter()
        self.errors: Counter = Counter()
        self.gate: Counter = Counter()

    def add(self, seconds: float, window: int, outcome: workloads.Outcome, traced: bool):
        self.seconds.append(seconds)
        self.window.append(window)
        self.points.append(outcome.points)
        self.traced.append(traced)
        self.status[outcome.status] += 1
        if outcome.error is not None:
            self.errors[outcome.error] += 1
        self.gate.update(outcome.gate)

    def select(self, traced: bool, scale: list[float]) -> tuple[list[float], list[int]]:
        """Seconds, each times its window's scale, and points of the
        traced or untraced operations."""
        keep = [i for i, t in enumerate(self.traced) if t == traced]
        return (
            [self.seconds[i] * scale[self.window[i]] for i in keep],
            [self.points[i] for i in keep],
        )


def run(name: str, seed: int, seconds: float, traced: bool, root: Path, outdir: Path) -> dict:
    import tracing

    wl = workloads.make_workload(name, root, seed, outdir / "work")
    wl.prepare()
    warm = wl.warm_op()
    warm_outcome = wl.judge(warm, wl.execute(warm))
    tracer = tracing.Tracer() if traced else None

    tally = Tally()
    tally.gate.update(f"warm:{check}" for check in warm_outcome.gate)
    calibration_ms()  # imports numpy, which cli_cold's own process has not
    # calibration[k] and calibration[k + 1] bracket operation window k
    calibration = [calibration_ms()]
    ok_calls = {"scattering.region_wavefunctions": 0, "eigensystem.analytic_eigenstate": 0}
    ok_traced_points = 0
    traced_bytes = 0
    setup: list[dict] = []
    began = time.perf_counter()
    deadline = began + seconds
    index = 0
    while index < MIN_OPERATIONS or index % wl.cycle or time.perf_counter() < deadline:
        if index and index % wl.window == 0:
            calibration.append(calibration_ms())
        now = time.perf_counter()
        # set-up probes are spread over the run so that they sample the
        # host's state across it rather than at one moment
        if len(setup) < SETUP_REPEATS and now >= began + len(setup) * seconds / SETUP_REPEATS:
            setup.append(setup_probe(name, seed, outdir / f"setup-{len(setup)}", root))
        op = wl.next_op(index)
        use_tracer = tracer if (tracer is not None and index % 2 == 0) else None
        if use_tracer is not None:
            use_tracer.begin_op(index)
            if wl.in_process:
                use_tracer.install()
        start = time.perf_counter_ns()
        raw = wl.execute(op, use_tracer)
        elapsed = (time.perf_counter_ns() - start) / 1e9
        if use_tracer is not None and wl.in_process:
            use_tracer.uninstall()
        outcome = wl.judge(op, raw)
        if use_tracer is not None:
            traced_bytes += outcome.bytes_written
            if outcome.status == workloads.OK and outcome.points:
                ok_traced_points += outcome.points
                for layer in ok_calls:
                    ok_calls[layer] += use_tracer.op_calls.get(layer, 0)
        tally.add(elapsed, index // wl.window, outcome, use_tracer is not None)
        index += 1
    # read before the statistics below build per-operation lists
    peak_rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if wl.in_process else wl.peak_rss_kib
    )
    calibration.append(calibration_ms())
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_probe(name, seed, outdir / f"setup-{len(setup)}", root))
    for sample in setup:
        tally.gate.update(f"setup:{check}" for check in sample["gate"])

    attempted = len(tally.seconds)
    ok = tally.status[workloads.OK]
    refused = tally.status[workloads.REFUSED]
    failed = tally.status[workloads.FAILED]
    scale = [CAL_REF_MS / around(calibration, k) for k in range(len(calibration) - 1)]
    untraced_s, untraced_points = tally.select(False, scale)
    untraced = sorted(t * 1e3 for t in untraced_s)
    raw_s = tally.select(False, [1.0] * len(scale))[0]
    raw_ms = sorted(t * 1e3 for t in raw_s)
    q, tail_value, beyond = tail(untraced, TAIL_PERCENTILE)
    setup_s = [s["setup_s"] * CAL_REF_MS / s["calibration_ms"] for s in setup]
    diagnostics = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "load": "closed loop, 1 caller, 1 process",
        "attempted": attempted,
        "ok": ok,
        "refused": refused,
        "failed": failed,
        "failed_share": failed / attempted,
        "refused_share": refused / attempted,
        "errors": dict(tally.errors),
        "gate_failures": dict(tally.gate),
        "op_tail": {"percentile": q, "samples": len(untraced), "beyond": beyond},
        "calibrated_percentiles_ms": {f"p{p:g}": percentile(untraced, p) for p in TAIL_LADDER},
        "raw": {
            "op_p50_ms": percentile(raw_ms, 50.0),
            f"op_p{q:g}_ms": percentile(raw_ms, q),
            "points_per_s": sum(untraced_points) / sum(raw_s),
            "setup_s": statistics.median(s["setup_s"] for s in setup),
        },
        "setup_s_samples": setup_s,
        "host_calibration_ms": {
            "reference": CAL_REF_MS,
            "median": statistics.median(calibration),
            "min": min(calibration),
            "max": max(calibration),
            "samples": len(calibration),
            "operations_per_window": wl.window,
            "around_setup": [s["calibration_ms"] for s in setup],
        },
    }

    if not traced:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "points_per_s": (sum(untraced_points) / sum(untraced_s), "1/s"),
            "op_p50_ms": (percentile(untraced, 50.0), "ms"),
            "op_tail_ms": (tail_value, "ms"),
            "ok_share": (ok / attempted, "share"),
            "peak_rss_mb": (peak_rss_kib / 1024.0, "MB"),
        }
    else:
        traced_ms = sorted(t * 1e3 for t in tally.select(True, scale)[0])
        p50_traced = percentile(traced_ms, 50.0)
        p50_untraced = percentile(untraced, 50.0)
        traced_ops = len(traced_ms)
        probe = workloads.pole_probe(root)
        layer_values = tracer.layer_metrics(traced_ops)
        imports = [s["import_ms"] for s in setup if s["import_ms"] > 0]
        imports += [i / 1e6 for i, _ in wl.child_times]
        mains = [m / 1e6 for _, m in wl.child_times]
        layer_values.update({
            "scattering.region_wavefunctions.calls_per_point": (
                ok_calls["scattering.region_wavefunctions"] / ok_traced_points
                if ok_traced_points else 0.0
            ),
            "eigensystem.analytic_eigenstate.calls_per_point": (
                ok_calls["eigensystem.analytic_eigenstate"] / ok_traced_points
                if ok_traced_points else 0.0
            ),
            "sweep_io.bytes_per_op": traced_bytes / traced_ops if traced_ops else 0.0,
            "cli.import_ms": statistics.median(imports) if imports else 0.0,
            "cli.main_ms": statistics.median(mains) if mains else 0.0,
            "run.traced_ops": traced_ops,
            "run.failed_share": failed / attempted,
            "run.refused_share": refused / attempted,
            "trace.op_p50_ms_traced": p50_traced,
            "trace.op_p50_ms_untraced": p50_untraced,
            "trace.overhead_pct": 100.0 * (p50_traced / p50_untraced - 1.0),
            "robustness.pole_probe.failed_share": probe["failed"] / probe["points"],
        })
        units = {n: u for n, u, _ in tracing.per_layer_names(tracer.layers)}
        metrics = {n: (layer_values[n], units[n]) for n in units}
        diagnostics["pole_probe"] = dict(probe)
        diagnostics["errors_by_layer"] = tracer.errors_by_type()
        diagnostics["spans_kept"] = len(tracer.spans)
        diagnostics["spans_dropped"] = tracer.dropped
        spans_file = outdir.parent / f"spans-{name}.csv"
        tracer.write_spans(spans_file)
        diagnostics["spans_file"] = str(spans_file.relative_to(root))

    return {
        "correct": not tally.gate,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "diagnostics": diagnostics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = workloads.ROOT
    pin_to_one_cpu()
    try:
        workloads.check_layout(root)
    except workloads.LayoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    outdir = root / OUT_DIR_NAME / f"run-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    diagnostics = result.pop("diagnostics")
    for name, metric in result["metrics"].items():
        print(f"{name:<58} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
