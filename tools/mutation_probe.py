"""Mutation probe: how many small wrong versions of a module does tier-1 catch?

    python tools/mutation_probe.py [--modules scattering threed cli]
                                   [--workdir DIR]

A mutant changes one site of one module of src/spinstep and nothing else:
it swaps one operator (+ and -, * and /, < and <=, > and >=, in an
expression, an augmented assignment or a comparison) or scales one nonzero
float literal by (1 + 1e-6).  The edit is made on the source bytes at the
site's position, so comments and line numbers stay as they are.

The repository's working tree is copied once into a temporary directory
(under --workdir, default the system's).
Each mutant is written into that copy, and tier-1 runs there with the two
known red checks deselected, `-x` and a fixed Hypothesis seed; a failing
run, or one that outlives TIMEOUT_S seconds, kills the mutant.  The
unmutated copy is run first and must pass.  One line is printed per mutant
(killed or SURVIVED, module:line, the change, and the first failing test),
then the killed share per module.

The probe is not part of tier-1 or CI: each mutant costs one tier-1 run,
a few seconds when killed early and the whole suite when it survives.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOWN_RED = (
    "tests/test_acceptance.py::test_criterion_6_figure3_dominance",
    "tests/test_acceptance.py::test_criterion_8_shell_determinant",
)
# operator node type -> (its token, the token it is swapped for)
SWAPS = {
    ast.Add: ("+", "-"),
    ast.Sub: ("-", "+"),
    ast.Mult: ("*", "/"),
    ast.Div: ("/", "*"),
    ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"),
}
SCALE = 1.0 + 1e-6
# tier-1 takes seconds; a mutant that makes it loop is killed after this
TIMEOUT_S = 600.0


def _offset(line_starts: list, lineno: int, col: int) -> int:
    return line_starts[lineno - 1] + col


def mutation_sites(source: bytes) -> list:
    """Every site of the module as (start, end, old bytes, new bytes, line),
    in source order; offsets index the UTF-8 source, as ast's do."""
    line_starts = [0]
    for line in source.splitlines(keepends=True):
        line_starts.append(line_starts[-1] + len(line))
    sites = []

    def operator(op, before: ast.AST, after: ast.AST, lineno: int):
        if type(op) not in SWAPS:
            return
        old, new = SWAPS[type(op)]
        start = _offset(line_starts, before.end_lineno, before.end_col_offset)
        gap = source[start:_offset(line_starts, after.lineno, after.col_offset)]
        # the operator is the one token between the operands, past any
        # closing parentheses of the left one
        at = start + gap.index(old.encode())
        sites.append((at, at + len(old), old, new, lineno))

    tree = ast.parse(source)
    # f-string parts carry no reliable source positions before Python 3.12
    in_fstrings = {
        id(n) for s in ast.walk(tree) if isinstance(s, ast.JoinedStr) for n in ast.walk(s)
    }
    for node in ast.walk(tree):
        if id(node) in in_fstrings:
            continue
        if isinstance(node, ast.BinOp):
            operator(node.op, node.left, node.right, node.lineno)
        elif isinstance(node, ast.AugAssign):
            operator(node.op, node.target, node.value, node.lineno)
        elif isinstance(node, ast.Compare):
            for op, left, right in zip(node.ops, [node.left, *node.comparators], node.comparators):
                operator(op, left, right, node.lineno)
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value:
            start = _offset(line_starts, node.lineno, node.col_offset)
            end = _offset(line_starts, node.end_lineno, node.end_col_offset)
            old = source[start:end].decode()
            sites.append((start, end, old, repr(node.value * SCALE), node.lineno))
    return sorted(sites)


def run_tier1(copy: Path) -> tuple[bool, str]:
    """(passed, first failing test or reason) of tier-1 in the copy."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", *(f"--deselect={test}" for test in KNOWN_RED),
    ]
    try:
        result = subprocess.run(
            command, cwd=copy, capture_output=True, text=True, timeout=TIMEOUT_S,
            env={**os.environ, "PYTHONPATH": str(copy / "src")},
        )
    except subprocess.TimeoutExpired:
        return False, "timeout"
    failed = [line for line in result.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    if result.returncode == 0:
        return True, ""
    return False, failed[0].split(" - ")[0] if failed else f"exit {result.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--modules", nargs="+", default=["scattering", "threed", "cli"])
    parser.add_argument("--workdir", default=None, help="where the copy is made")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="mutation_probe_", dir=args.workdir) as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".perfbench_out"))
        passed, reason = run_tier1(copy)
        if not passed:
            print(f"the unmutated copy fails tier-1 ({reason}); nothing to probe")
            return 2
        totals = {}
        for module in args.modules:
            path = copy / "src" / "spinstep" / f"{module}.py"
            source = path.read_bytes()
            sites = mutation_sites(source)
            killed = 0
            try:
                for start, end, old, new, line in sites:
                    path.write_bytes(source[:start] + new.encode() + source[end:])
                    passed, reason = run_tier1(copy)
                    killed += not passed
                    verdict = "SURVIVED" if passed else "killed"
                    print(f"{verdict:8}  {module}:{line}  {old} -> {new}  {reason}", flush=True)
            finally:
                path.write_bytes(source)
            totals[module] = (killed, len(sites))
        for module, (killed, count) in totals.items():
            share = killed / count if count else 0.0
            print(f"{module}: {killed} of {count} mutants killed ({share:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
