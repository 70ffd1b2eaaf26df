#!/usr/bin/env python3
"""Show where CPython's full collections land in the benchmark's reference ticks.

    python3 tools/gc_ticks.py --workload {burnside,wide,replan} --seed N --iterations K
    python3 tools/gc_ticks.py --workload {burnside,wide,replan} --seeds A-B --iterations K

``perfbench`` runs a reference task (a "tick") before each timed call and
divides the call's time by the tick's, so a full collection that lands inside a
tick shrinks that call's scaled time.  This probe runs one warm-up iteration and
then ``K`` paced iterations of ``perfbench``'s ``Bench.iterate``, as the timed
pass does, and records every full collection through ``gc.callbacks``.  For each
iteration it prints one character per tick, ``.`` for none and ``G`` for a full
collection inside it, then each timed call's raw and scaled seconds and the full
collections inside the call.  Work files go to a temporary directory.

``--seeds A-B`` probes each seed from A to B in a fresh interpreter, as the
benchmark runs each seed, and prints one JSON object: for the workload, the
number of seeds per pattern, each pattern being the ticks of every iteration
and then ``close`` and the closing tick (``.GG .GG close .``).
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench  # noqa: E402
from reference import NOMINAL_S  # noqa: E402


class _Probe(bench.Pacer):
    """A pacer that notes, for each tick and each timed call, the full collections in it."""

    def __init__(self) -> None:
        super().__init__()
        self.full = 0  # full collections so far
        self.tick_marks: list[str] = []
        self.op_full: list[int] = []
        self._op_start = 0

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start" and info["generation"] == 2:
            self.full += 1

    def tick(self) -> None:
        before = self.full
        super().tick()
        self.tick_marks.append("G" if self.full > before else ".")
        self._op_start = self.full

    def record(self, name: str, seconds: float) -> None:
        super().record(name, seconds)
        self.op_full.append(self.full - self._op_start)


def _seed_range(text: str) -> range:
    match = re.fullmatch(r"(\d+)-(\d+)", text)
    if not match or int(match[1]) > int(match[2]):
        raise argparse.ArgumentTypeError(f"expected A-B with A <= B, got {text!r}")
    return range(int(match[1]), int(match[2]) + 1)


def _patterns(workload: str, seeds: range, iterations: int) -> int:
    """Probe each seed in a fresh interpreter and print the seeds per pattern."""
    counts: Counter[str] = Counter()
    for seed in seeds:
        result = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--iterations", str(iterations)], capture_output=True, text=True)
        if result.returncode != 0:
            print(f"seed {seed}: {result.stderr.strip()}", file=sys.stderr)
            return 1
        ticks = re.findall(r"^iteration \d+: ticks ([.G]+) ", result.stdout, re.MULTILINE)
        closing = re.search(r"^closing tick: ([.G])$", result.stdout, re.MULTILINE)[1]
        counts[f"{' '.join(ticks)} close {closing}"] += 1
    print(json.dumps({workload: dict(sorted(counts.items()))}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("burnside", "wide", "replan"))
    seeds = parser.add_mutually_exclusive_group(required=True)
    seeds.add_argument("--seed", type=int)
    seeds.add_argument("--seeds", type=_seed_range, help="A-B: each seed in a fresh interpreter")
    parser.add_argument("--iterations", type=int, default=6)
    args = parser.parse_args(argv)
    if args.iterations < 1:
        parser.error("--iterations must be at least 1")
    if args.seeds is not None:
        return _patterns(args.workload, args.seeds, args.iterations)
    probe = _Probe()
    spans = []  # each iteration's first tick and first timed call
    with tempfile.TemporaryDirectory(prefix="gc-ticks-") as work:
        state = bench.Bench(ROOT, args.workload, args.seed, Path(work))
        repeats = bench.OP_REPEATS[args.workload]
        state.iterate(repeats=repeats)  # the timed pass's warm-up
        gc.callbacks.append(probe.on_gc)
        try:
            for _ in range(args.iterations):
                spans.append((len(probe.tick_marks), len(probe.ops)))
                state.iterate(repeats=repeats, pacer=probe)
            probe.tick()  # the timed pass's closing tick
        finally:
            gc.callbacks.remove(probe.on_gc)
    spans.append((len(probe.tick_marks) - 1, len(probe.ops)))
    for i, ((tick, op), (next_tick, next_op)) in enumerate(zip(spans, spans[1:]), 1):
        cells = [f"{name} {seconds:.3f}s raw "
                 f"{seconds * NOMINAL_S / ((probe.refs[t] + probe.refs[t + 1]) / 2):.3f}s scaled "
                 f"{'G' * full or '-'}"
                 for (name, seconds, t), full in zip(probe.ops[op:next_op],
                                                     probe.op_full[op:next_op])]
        print(f"iteration {i}: ticks {''.join(probe.tick_marks[tick:next_tick])} | "
              + " | ".join(cells))
    print(f"closing tick: {probe.tick_marks[-1]}")
    if state.failures:
        print("\n".join(state.failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
