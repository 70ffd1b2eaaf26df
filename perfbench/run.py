#!/usr/bin/env python3
"""Harness benchmark: scripted runs, replays and trace exports, timed and traced.

    python3 perfbench/run.py --workload {burnside,wide,replan} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; the program is imported from ``src/``.
One process, one thread, one operation at a time: a closed loop with one
client.  Each iteration runs ``looper.run`` with ``ScriptedBackend`` and
``SimVerifier`` on the workload's generated inputs, replays the ledger as
``proofloop replay`` does and exports its text trace as ``proofloop trace``
does.  Every run, replay and trace is checked against the prediction of the
workload's generator.

``--trace 0`` reports the end-to-end metrics: one warm-up iteration, untraced
iterations for ``--seconds`` with the reference task run before each timed
call, the process's peak resident set, then fresh interpreters for set-up
time.  Timings are scaled to the host's speed (see ``reference.py``).  ``--trace 1`` alternates untraced and traced
iterations for ``--seconds`` and reports the per-layer metrics, the tracing
overhead, the set-up breakdown, a tracemalloc pass and a plan-size sweep of
``wide``.

The last line on stdout is the result object.  The line before it is a report
with every figure, the phase times and the run metadata.  The spans of a
traced run are written to ``.bench_work/spans-<workload>.jsonl``, one JSON
list per span: name, start, end, parent index, iteration id.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("burnside", "wide", "replan")
SETUP_PROBES = 7
TRACED_SETUP_PROBES = 3


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program() -> None:
    """Put this checkout's src/ on the path, or exit 2 without a result."""
    if not (ROOT / "BENCHMARK.json").is_file():
        _fail_setup("BENCHMARK.json is missing")
    if not (SRC / "proofloop" / "__init__.py").is_file():
        _fail_setup(f"no program to measure: {SRC / 'proofloop'} is missing")
    if not (ROOT / "fixtures" / "burnside" / "agents.fx").is_file():
        _fail_setup("fixtures/burnside is missing")
    sys.path[:0] = [str(SRC), str(HERE)]
    import proofloop

    if SRC not in Path(proofloop.__file__).resolve().parents:
        _fail_setup(f"proofloop imported from {proofloop.__file__}, not from {SRC}")


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding ``path``, from /proc/self/mountinfo."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return fstype
    for line in lines:
        left, _, right = line.partition(" - ")
        mount = left.split()[4].replace("\\040", " ")
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and right and len(mount) >= len(best):
            best, fstype = mount, right.split()[0]
    return fstype


def metadata(args: argparse.Namespace) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "workspace_fs": _filesystem(WORK),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    _load_program()
    import bench
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    phases: dict[str, float] = {}

    def phase(name: str, fn, *fn_args):
        t0 = perf_counter()
        result = fn(*fn_args)
        phases[name] = perf_counter() - t0
        return result

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        state = phase("generate", bench.Bench, ROOT, args.workload, args.seed, work)
        problems: list[str] = []
        if args.trace:
            tracer = Tracer()
            plain, traced = phase("traced", state.traced_pass, args.seconds, tracer)
            setups = phase("setup", state.setup_pass, TRACED_SETUP_PROBES)
            peak_alloc = phase("memory", state.memory_pass)
            sweep = phase("sweep", state.sweep)
            tracer.write(WORK / f"spans-{args.workload}.jsonl")
            values, problems = bench.per_layer(tracer, plain, traced, setups, sweep,
                                               peak_alloc)
        else:
            pacer = bench.Pacer()
            samples = phase("timed", state.timed_pass, args.seconds, pacer)
            peak_rss = bench.peak_rss_mb()
            setups = phase("setup", state.setup_pass, SETUP_PROBES, pacer)
            values = bench.end_to_end(samples, setups, pacer, peak_rss)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(state.failures)
    values["fail_frac"] = failed / state.attempted
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"no value computed for {missing}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report = {"meta": metadata(args), "phase_s": phases,
              "values": values, "failures": state.failures, "checks": problems}
    print(json.dumps({"report": report}))
    for name, entry in metrics.items():
        print(f"  {name:30s} {entry['value']:>14.6g} {entry['unit']}", file=sys.stderr)
    for line in state.failures + problems:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": not state.failures and not problems,
                      "attempted": state.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
