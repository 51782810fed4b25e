"""The three benchmark workloads: inputs, one operation, and its judgement.

Every workload is a closed loop with one caller in one process: the next
operation starts only after the previous one has finished.  An operation
is split into execute() (the timed part) and judge() (the correctness gate,
untimed).  Inputs come only from the seed; spinstep receives only the
generated inputs.

  sweep_figures  the three README figure sweeps (fig2, fig3, fig4): one
                 run_sweep plus CSV, JSON and SVG emission each.  Fixed
                 inputs; the seed is not used.
  point_queries  a seeded stream of independent single-point library
                 calls: StepProblem, solve_amplitudes_linear, coefficients,
                 currents.
  cli_cold       a seeded cycle of `python -m spinstep` child processes, one
                 at a time: coefficients and currents at points from the
                 point mix, verify, threed-check and a fig4-sized sweep.

This module imports only the standard library at load time, so that a
fresh interpreter can time the spinstep import on its own.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import signal
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import gate

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent

OK, REFUSED, FAILED = "ok", "refused", "failed"

ELECTRON_EV = 510998.95
MUON_EV = 105.6583755e6
PROTON_EV = 938.27208816e6

# Thread pools are pinned to one thread so that each workload is one caller
# on one core; this must be set before numpy is imported.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# One CLI child may take this long before it is killed and counted failed.
CHILD_TIMEOUT_S = 60.0


class LayoutError(RuntimeError):
    """The checkout lacks the program or the golden files."""


def required_files(root: Path) -> list[Path]:
    return [root / "src" / "spinstep" / "__init__.py"] + [
        root / "tests" / "golden" / f"fig{n}.csv" for n in (2, 3, 4)
    ]


def check_layout(root: Path):
    missing = [str(p.relative_to(root)) for p in required_files(root) if not p.is_file()]
    if missing:
        raise LayoutError(f"checkout at {root} lacks {', '.join(missing)}")


def load_spinstep(root: Path, module: str = "spinstep"):
    """Import a spinstep module from the checkout's src/, never from
    anywhere else on the path."""
    src = root / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mod = importlib.import_module(module)
    origin = Path(mod.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise LayoutError(f"{module} was imported from {origin}, not from {src}")
    return mod


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass
class Outcome:
    status: str  # OK, REFUSED or FAILED
    points: int = 0  # energy points completed with a checked result
    gate: tuple = ()  # names of the correctness checks that failed
    error: str | None = None  # exception type or exit code of a failure
    bytes_written: int = 0


def point_outcome(failures: list[str]) -> Outcome:
    hard = tuple(f for f in failures if f not in gate.SOFT_CHECKS)
    if hard:
        return Outcome(FAILED, gate=hard, error="gate")
    if failures:
        return Outcome(FAILED, error=failures[0])
    return Outcome(OK, points=1)


def take_output(path: Path) -> bytes | None:
    """Read and delete a file the program wrote, so that the next operation
    cannot pass on stale bytes; None if it was not written."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    path.unlink()
    return data


# -- point mix ---------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    kind: str  # propagating, evanescent, threshold or mass_pole
    energy: float
    v0: float
    mass: float
    spin: str  # "up" or "down"


# |V0-E-m|/m of the timed mass-pole slice.  Closer to the pole the solve
# fails its own continuity-residual check (RuntimeError) on a seed-dependent
# share of points, up to |V0-E-m|/m of about 4e-5: that band is the known
# pole defect, kept out of the timed mix, where no operation may fail, and
# measured by the fixed pole_probe instead.
TIMED_POLE_BAND = (1e-4, 1e-3)
PROBE_POLE_BAND = (1e-12, 1e-4)
PROBE_SEED = 20150215
PROBE_POINTS = 400


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw_point(rng: random.Random) -> Point:
    """One point of the query mix.

    45% propagating (E/V0 log-uniform on (1.001, 1e6)), 45% evanescent
    (E/V0 log-uniform on (1e-6, 0.999)), both with V0 log-uniform on
    (1e-3, 1e9) eV; 5% near the threshold (|E/V0 - 1| log-uniform on
    (1e-12, 1e-3)); 5% near the evanescent mass pole (|V0-E-m|/m
    log-uniform on TIMED_POLE_BAND).  Mass: electron 75%, muon, proton and
    1 eV 25% together.  Spin up or down 50/50.
    """
    return _draw_point(rng, TIMED_POLE_BAND)


def _draw_point(rng: random.Random, pole_band: tuple[float, float]) -> Point:
    kind_draw = rng.random()
    mass_draw = rng.random()
    if mass_draw < 0.75:
        mass = ELECTRON_EV
    else:
        mass = (MUON_EV, PROTON_EV, 1.0)[min(int((mass_draw - 0.75) * 12), 2)]
    spin = "up" if rng.random() < 0.5 else "down"
    sign = 1.0 if rng.random() < 0.5 else -1.0
    if kind_draw < 0.45:
        kind = "propagating"
        v0 = _log_uniform(rng, 1e-3, 1e9)
        energy = v0 * _log_uniform(rng, 1.001, 1e6)
    elif kind_draw < 0.90:
        kind = "evanescent"
        v0 = _log_uniform(rng, 1e-3, 1e9)
        energy = v0 * _log_uniform(rng, 1e-6, 0.999)
    elif kind_draw < 0.95:
        kind = "threshold"
        v0 = _log_uniform(rng, 1e-3, 1e9)
        energy = v0 * (1.0 + sign * _log_uniform(rng, 1e-12, 1e-3))
    else:
        kind = "mass_pole"
        gap = mass * (1.0 + sign * _log_uniform(rng, *pole_band))
        ratio = _log_uniform(rng, 1e-6, 0.999)  # E/V0
        energy = ratio * gap / (1.0 - ratio)
        v0 = energy + gap
    return Point(kind, energy, v0, mass, spin)


def pole_probe(root: Path) -> Counter:
    """Outcomes of PROBE_POINTS fixed mass-pole points with |V0-E-m|/m
    log-uniform on PROBE_POLE_BAND, the band the timed mix leaves out.
    Untimed and independent of the seed, so that a fix of the pole defect
    shows as a falling failed count.  Keys: ok, refused, failed, and
    "error:<type>" per failure."""
    queries = PointQueries(root, PROBE_SEED, root)
    queries.prepare()
    rng = random.Random(PROBE_SEED)
    tally: Counter = Counter()
    while tally["points"] < PROBE_POINTS:
        point = _draw_point(rng, PROBE_POLE_BAND)
        if point.kind != "mass_pole":
            continue
        outcome = queries.judge(point, queries.execute(point))
        tally["points"] += 1
        tally[outcome.status] += 1
        if outcome.status == FAILED:
            tally[f"error:{outcome.error}"] += 1
    return tally


# -- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    in_process = True  # False: operations run in child processes
    window = 1  # operations between two timings of the calibration loop
    cycle = 1  # a run ends after a whole number of these many operations
    peak_rss_kib = 0  # largest child, for workloads that run children
    child_times: tuple = ()  # (import_ns, main_ns) of traced children

    def __init__(self, root: Path, seed: int, outdir: Path):
        self.root = root
        self.seed = seed
        self.outdir = outdir

    def prepare(self):
        """Import what the workload needs and generate its first inputs."""

    def next_op(self, index: int):
        raise NotImplementedError

    def warm_op(self):
        """The operation set-up runs once before timing starts."""
        return self.next_op(0)

    def execute(self, op, tracer=None):
        raise NotImplementedError

    def judge(self, op, raw) -> Outcome:
        raise NotImplementedError


# name, SweepSpec keyword arguments; the README's fig2/fig3/fig4 commands
FIGURES = (
    ("fig2", dict(v0=100.0, e_over_v0_min=1.001, e_over_v0_max=10.0, points=500,
                  spacing="log", regime="propagating")),
    ("fig3", dict(v0=1e6, e_over_v0_min=1.001, e_over_v0_max=3.0, points=200,
                  spacing="log", regime="propagating")),
    ("fig4", dict(v0=100.0, e_over_v0_min=0.01, e_over_v0_max=0.99, points=100,
                  spacing="linear", regime="evanescent")),
)

# The columns `spinstep sweep --format svg` draws by default.
SVG_COLUMNS = {
    "propagating": ["r1", "r2", "r_qm", "t1", "t2", "t_qm"],
    "evanescent": ["r1_prime", "r2_prime"],
}


class SweepFigures(Workload):
    name = "sweep_figures"

    def __init__(self, root, seed, outdir, golden_dir: Path | None = None):
        super().__init__(root, seed, outdir)
        self.golden_dir = golden_dir or root / "tests" / "golden"
        self._first: dict[str, bytes] = {}

    def prepare(self):
        self.sweep_io = load_spinstep(self.root, "spinstep.sweep_io")
        sio = self.sweep_io
        self.specs = [
            (name, sio.SweepSpec(
                **{**kw, "spacing": sio.Spacing(kw["spacing"]), "regime": sio.Regime(kw["regime"])}
            ))
            for name, kw in FIGURES
        ]
        self.golden = {
            name: (self.golden_dir / f"{name}.csv").read_bytes() for name, _ in FIGURES
        }
        self.outdir.mkdir(parents=True, exist_ok=True)

    def next_op(self, index):
        return index

    def execute(self, op, tracer=None):
        sio = self.sweep_io
        points = 0
        try:
            for name, spec in self.specs:
                rows = sio.run_sweep(spec).rows
                sio.emit_csv(rows, self.outdir / f"{name}.csv")
                sio.emit_json(rows, self.outdir / f"{name}.json")
                sio.emit_svg(rows, self.outdir / f"{name}.svg", SVG_COLUMNS[spec.regime.value])
                points += len(rows)
        except Exception as exc:  # every exception is a failed operation
            return exc
        return points

    def judge(self, op, raw) -> Outcome:
        if isinstance(raw, Exception):
            return Outcome(FAILED, error=type(raw).__name__)
        failures = []
        written = 0
        for name, _ in FIGURES:
            for suffix in ("csv", "json", "svg"):
                key = f"{name}.{suffix}"
                data = take_output(self.outdir / key)
                if data is None:
                    failures.append(f"{key}_missing")
                    continue
                want = self.golden[name] if suffix == "csv" else self._first.setdefault(key, data)
                failures += gate.check_bytes(key, data, want)
                written += len(data)
        if failures:
            return Outcome(FAILED, gate=tuple(failures), error="gate", bytes_written=written)
        return Outcome(OK, points=raw, bytes_written=written)


class PointQueries(Workload):
    name = "point_queries"
    window = 500
    CHUNK = 1024

    def prepare(self):
        self.scattering = load_spinstep(self.root, "spinstep.scattering")
        self.spin = load_spinstep(self.root, "spinstep.eigensystem").Spin
        self.refusals = (self.scattering.ThresholdDegeneracyError, self.scattering.MassPoleError)
        self._rng = random.Random(self.seed)
        self._base = 0  # stream index of self._chunk[0]
        self._chunk = [draw_point(self._rng) for _ in range(self.CHUNK)]

    def next_op(self, index):
        """Point `index` of the seeded stream; indexes only move forward."""
        while index >= self._base + len(self._chunk):
            self._base += len(self._chunk)
            self._chunk = [draw_point(self._rng) for _ in range(self.CHUNK)]
        return self._chunk[index - self._base]

    def execute(self, op: Point, tracer=None):
        sc = self.scattering
        try:
            problem = sc.StepProblem(
                energy=op.energy, v0=op.v0, mass=op.mass,
                incident_spin=self.spin.UP if op.spin == "up" else self.spin.DOWN,
            )
            amps = sc.solve_amplitudes_linear(problem)
            return sc.coefficients(problem, amps), sc.currents(problem, amps)
        except Exception as exc:  # judged: typed refusal or failure
            return exc

    def judge(self, op: Point, raw) -> Outcome:
        if isinstance(raw, self.refusals):
            return Outcome(REFUSED, error=type(raw).__name__)
        if isinstance(raw, Exception):
            return Outcome(FAILED, error=type(raw).__name__)
        coeff, curr = raw
        return point_outcome(gate.check_point(
            op.energy, op.v0, op.mass, op.spin, coeff.to_json_dict(), curr.to_json_dict()
        ))


class _ChildTimeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _ChildTimeout


def wait_child(proc: subprocess.Popen, timeout: float):
    """Reap proc with os.wait4 and return (exit code, peak RSS in KiB);
    kill it after timeout seconds."""
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except _ChildTimeout:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


FIG4_SWEEP_ARGS = [
    "sweep", "--regime", "evanescent", "--v0", "100", "--from", "0.01", "--to", "0.99",
    "--points", "100", "--spacing", "linear",
]
CLI_COMMANDS = ("coefficients", "currents", "verify", "threed-check", "sweep")
EXIT_USAGE = 2


@dataclass(frozen=True)
class CliOp:
    command: str
    args: tuple
    point: Point | None = None


class CliCold(Workload):
    name = "cli_cold"
    in_process = False
    cycle = len(CLI_COMMANDS)  # one seeded cycle holds one fig4 sweep

    def prepare(self):
        self.golden_fig4 = (self.root / "tests" / "golden" / "fig4.csv").read_bytes()
        self.env = child_env(self.root)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.sweep_out = self.outdir / "cli_fig4.csv"
        self.stdout_path = self.outdir / "cli.out"
        self.stderr_path = self.outdir / "cli.err"
        self.spans_path = self.outdir / "cli_trace.json"
        self._rng = random.Random(self.seed)
        self._ops: list[CliOp] = []
        self.peak_rss_kib = 0
        self.child_times: list[tuple[int, int]] = []  # traced (import_ns, main_ns)
        self._extend()

    def warm_op(self) -> CliOp:
        return CliOp("sweep", tuple(FIG4_SWEEP_ARGS + ["--out", str(self.sweep_out)]))

    def _extend(self):
        cycle = list(CLI_COMMANDS)
        self._rng.shuffle(cycle)
        for command in cycle:
            if command in ("coefficients", "currents"):
                p = draw_point(self._rng)
                args = (command, "--e", repr(p.energy), "--v0", repr(p.v0),
                        "--mass", repr(p.mass), "--spin", p.spin)
                self._ops.append(CliOp(command, args, p))
            elif command == "sweep":
                self._ops.append(self.warm_op())
            else:
                self._ops.append(CliOp(command, (command,)))

    def next_op(self, index):
        while index >= len(self._ops):
            self._extend()
        return self._ops[index]

    def execute(self, op: CliOp, tracer=None):
        if tracer is None:
            argv = [sys.executable, "-m", "spinstep", *op.args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "child.py"), "cli",
                    str(self.spans_path), *op.args]
        with self.stdout_path.open("wb") as out, self.stderr_path.open("wb") as err:
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err)
            code, rss_kib = wait_child(proc, CHILD_TIMEOUT_S)
        self.peak_rss_kib = max(self.peak_rss_kib, rss_kib)
        if tracer is not None and self.spans_path.is_file():
            data = json.loads(self.spans_path.read_text(encoding="utf-8"))
            self.spans_path.unlink()
            tracer.merge(data["trace"], tracer.op_id)
            self.child_times.append((data["import_ns"], data["main_ns"]))
        return code

    def judge(self, op: CliOp, code) -> Outcome:
        stdout = self.stdout_path.read_text(encoding="utf-8", errors="replace")
        if code == EXIT_USAGE and op.point is not None:
            return Outcome(REFUSED, error="exit 2")
        if code != 0 and not (code == 1 and op.command in ("verify", "threed-check")):
            lines = self.stderr_path.read_text(encoding="utf-8", errors="replace").split("\n")
            last = next((ln for ln in reversed(lines) if ln.strip()), "")
            return Outcome(FAILED, error=f"exit {code}: {last.split(':')[0][:60]}")
        try:
            payload = json.loads(stdout.strip().split("\n")[-1])
        except (json.JSONDecodeError, IndexError):
            return Outcome(FAILED, gate=("unparsable_output",), error="gate")
        if op.command in ("verify", "threed-check"):
            if code == 0 and payload.get("pass") is True:
                return Outcome(OK)
            return Outcome(FAILED, gate=(f"{op.command}_reported_fail",), error="gate")
        if op.command == "sweep":
            data = take_output(self.sweep_out)
            if data is None:
                return Outcome(FAILED, gate=("fig4.csv_missing",), error="gate")
            failures = gate.check_bytes("fig4.csv", data, self.golden_fig4)
            if failures:
                return Outcome(FAILED, gate=tuple(failures), error="gate")
            return Outcome(OK, points=payload.get("rows", 0), bytes_written=len(data))
        p = op.point
        coeff = payload if op.command == "coefficients" else None
        return point_outcome(gate.check_point(p.energy, p.v0, p.mass, p.spin, coeff, payload))


WORKLOADS = {w.name: w for w in (SweepFigures, PointQueries, CliCold)}


def make_workload(name: str, root: Path, seed: int, outdir: Path) -> Workload:
    return WORKLOADS[name](root, seed, outdir)
