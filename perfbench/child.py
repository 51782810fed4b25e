"""Fresh-interpreter helper for the benchmark.

  python3 perfbench/child.py setup <workload> <seed> <outdir>
      Time one workload set-up from a cold interpreter: import, input
      generation and one warm operation.  Prints one JSON line with
      setup_s, import_ms (0 when the workload's own process imports
      nothing from spinstep) and the warm operation's status.

  python3 perfbench/child.py cli <trace.json> <spinstep arguments...>
      Run `spinstep <arguments>` like `python -m spinstep` does, with the
      tracing wrappers installed after the import; write the import time,
      the cli.main time and the spans to <trace.json>, and exit with the
      CLI's exit code.
"""

import time

T0 = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def _setup(name: str, seed: int, outdir: Path) -> int:
    import_ns = 0
    wl = workloads.make_workload(name, workloads.ROOT, seed, outdir)
    if wl.in_process:
        start = time.perf_counter_ns()
        workloads.load_spinstep(workloads.ROOT, "spinstep.cli")
        import_ns = time.perf_counter_ns() - start
    wl.prepare()
    op = wl.warm_op()
    outcome = wl.judge(op, wl.execute(op))
    setup_ns = time.perf_counter_ns() - T0
    print(json.dumps({
        "setup_s": setup_ns / 1e9,
        "import_ms": import_ns / 1e6,
        "status": outcome.status,
        "gate": list(outcome.gate),
    }))
    return 0


def _cli(trace_path: Path, argv: list[str]) -> int:
    import tracing

    start = time.perf_counter_ns()
    cli = workloads.load_spinstep(workloads.ROOT, "spinstep.cli")
    import_ns = time.perf_counter_ns() - start
    tracer = tracing.Tracer()
    tracer.install()
    main_start = time.perf_counter_ns()
    try:
        return cli.main(argv)
    finally:
        main_ns = time.perf_counter_ns() - main_start
        tracer.uninstall()
        trace_path.write_text(
            json.dumps({"import_ns": import_ns, "main_ns": main_ns, "trace": tracer.export()}),
            encoding="utf-8",
        )


def main(argv: list[str]) -> int:
    if len(argv) >= 4 and argv[0] == "setup":
        return _setup(argv[1], int(argv[2]), Path(argv[3]))
    if len(argv) >= 2 and argv[0] == "cli":
        return _cli(Path(argv[1]), argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
