#!/usr/bin/env python3
"""List the statements of ``src/proofloop`` that one workload never executes.

    python3 tools/traffic.py --workload {burnside,wide,replan} [--seed N]

Runs one iteration of ``perfbench``'s ``Bench.iterate`` (the run, its replay and
its text trace export, with the benchmark's checks) under a ``sys.settrace``
line hook that traces only frames of ``src/proofloop``.  The hook is installed
before ``proofloop`` is imported, so import-time statements count as executed.
A statement is a line that holds bytecode in a module's compiled code objects.
For each module it prints the lines never executed, consecutive statements
joined into ranges, as ``leanenv.py: 405-410, 426``; a module with none is left
out.  Work files go to a temporary directory.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "proofloop"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


class _LineTrace:
    """A ``sys.settrace`` hook that notes the lines executed in the given files alone."""

    def __init__(self, files: list[Path]) -> None:
        self.executed: dict[str, set[int]] = {str(path): set() for path in files}

    def calls(self, frame, event, arg):
        return self.lines if frame.f_code.co_filename in self.executed else None

    def lines(self, frame, event, arg):
        if event == "line":
            self.executed[frame.f_code.co_filename].add(frame.f_lineno)
        return self.lines


def statements(code: CodeType) -> set[int]:
    """The lines holding bytecode in ``code`` and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}  # line 0: a module's prologue
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= statements(const)
    return lines


def ranges(missed: list[int], lines: list[int]) -> str:
    """``missed``, a sorted subset of the sorted statement lines ``lines``, with each
    run of consecutive statements written as one range."""
    position = {line: i for i, line in enumerate(lines)}
    runs: list[list[int]] = []
    for line in missed:
        if runs and position[runs[-1][-1]] + 1 == position[line]:
            runs[-1].append(line)
        else:
            runs.append([line])
    return ", ".join(f"{run[0]}-{run[-1]}" if len(run) > 1 else str(run[0]) for run in runs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("burnside", "wide", "replan"))
    parser.add_argument("--seed", type=int, default=701)
    args = parser.parse_args(argv)
    modules = sorted(PACKAGE.glob("*.py"))
    trace = _LineTrace(modules)
    sys.settrace(trace.calls)
    try:
        import bench  # imports proofloop, under the hook

        with tempfile.TemporaryDirectory(prefix="traffic-") as work:
            state = bench.Bench(ROOT, args.workload, args.seed, Path(work))
            state.iterate()
    finally:
        sys.settrace(None)
    if state.failures:
        print("\n".join(state.failures), file=sys.stderr)
        return 1
    for path in modules:
        lines = sorted(statements(compile(path.read_text(encoding="utf-8"), str(path), "exec")))
        missed = [line for line in lines if line not in trace.executed[str(path)]]
        if missed:
            print(f"{path.name}: {ranges(missed, lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
