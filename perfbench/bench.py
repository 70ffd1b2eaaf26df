"""The measured passes and the metrics derived from them.

Imported by ``run.py`` once ``src/`` is on the path.  One iteration is one
``looper.run`` followed by the replay ``proofloop replay`` performs and the
text export ``proofloop trace`` performs, each timed on its own and each
checked against the workload's prediction between the timed calls.

The gated timings are scaled to the host's speed: the timed pass runs the
reference task (``reference.py``) between timed operations and divides each
operation's time by the mean of the task times just before and after it.
The raw wall-time medians and tails are reported beside them.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import proofloop.ledger as ledger_mod
import proofloop.looper as looper
from proofloop.agents import ScriptedBackend, load_fixture
from proofloop.leanenv import SimVerifier, load_sim_rules

import workloads
from reference import NOMINAL_S, reference_task
from tracing import Tracer, layer_totals, self_times, subtree_self_time

HERE = Path(__file__).resolve().parent
MIN_ITERATIONS = 2
# Replays and trace exports per timed iteration.  On ``wide`` they cost a small
# share of a run, so a second round gives them more samples cheaply.
OP_REPEATS = {"burnside": 1, "wide": 2, "replan": 1}
SWEEP_SIZES = (100, 200, 400, 800)
ACCOUNTING_TOLERANCE = 0.01
CHILD_TIMEOUT_S = 60

# Per-layer metrics named by span: (span name, report calls, report self time).
SPAN_METRICS = (
    ("plan.select", True, True),
    ("plan.set_status", True, True),
    ("plan.apply_diff", True, True),
    ("plan.serialize", False, True),
    ("plan.parse", False, True),
    ("leanenv.build", True, True),
    ("leanenv.scan", True, True),
    ("leanenv.write", True, True),
    ("leanenv.remove", True, False),
    ("leanenv.audit", False, True),
    ("ledger.event", True, True),
    ("ledger.frame", True, True),
    ("ledger.usage", False, True),
    ("ledger.read", False, True),
    ("ledger.verify", False, True),
    ("ledger.load", False, True),
    ("ledger.export", False, True),
    ("agents.invoke", True, True),
    ("agents.context", False, True),
)


def _no_span(name: str):
    return nullcontext()


class Pacer:
    """Runs the reference task between timed operations.

    Call :meth:`tick` right before each timed operation, :meth:`record` right
    after it, and :meth:`tick` once more after the last one.
    """

    def __init__(self) -> None:
        self.refs: list[float] = []
        self.ops: list[tuple[str, float, int]] = []

    def tick(self) -> None:
        """Time the reference task twice and keep the mean."""
        self.refs.append((reference_task() + reference_task()) / 2)

    def record(self, name: str, seconds: float) -> None:
        self.ops.append((name, seconds, len(self.refs) - 1))

    def scaled(self, name: str) -> list[float]:
        """Times of ``name`` at the nominal host speed, in seconds."""
        return [seconds * NOMINAL_S / ((self.refs[i] + self.refs[i + 1]) / 2)
                for op, seconds, i in self.ops if op == name]


class _NoPacer(Pacer):
    def tick(self) -> None:
        pass

    def record(self, name: str, seconds: float) -> None:
        pass


def frame_bytes(ledger_path: Path) -> int:
    return sum(len(line) for line in ledger_path.read_bytes().splitlines(keepends=True)
               if line.startswith(b'{"rec": "frame"'))


class Bench:
    """One workload's inputs, prediction, and the operations run on them."""

    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.inputs, self.prediction = workloads.generate(workload, root, work / "inputs", seed)
        self.fixture = load_fixture(self.inputs.fixture_file)
        self.rules = load_sim_rules(self.inputs.rules_file)
        self.attempted = 0
        self.failures: list[str] = []
        self._iteration = 0

    # -- checks ----------------------------------------------------------------

    def _check(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))

    def _check_run(self, what: str, p: workloads.Prediction, outcome, ledger) -> None:
        got = {
            "verdict": outcome.verdict.value,
            "reason": outcome.reason.value if outcome.reason else None,
            "statements": ledger.outcome.statement_count if ledger.outcome else None,
            "diffs": outcome.final_plan_revision,
            "frames": len(ledger.frames),
            "usage_records": len(ledger.usage_records),
            "event_total": len(ledger.events),
        }
        problems = [f"{key} {value!r} != predicted {getattr(p, key)!r}"
                    for key, value in got.items() if value != getattr(p, key)]
        kinds = Counter(event.kind.value for event in ledger.events)
        problems += [f"{kind} events {kinds[kind]} != predicted {count}"
                     for kind, count in p.events.items() if kinds[kind] != count]
        self._check(what, problems)

    def _check_replay(self, what: str, result) -> None:
        expected = (self.prediction.frames, self.prediction.diffs)
        self._check(what, [] if tuple(result) == expected
                    else [f"replay gave {result}, predicted {expected}"])

    def _check_trace(self, what: str, text: str) -> None:
        p = self.prediction
        problems: list[str] = []
        if p.golden_trace is not None and text.encode("utf-8") != p.golden_trace:
            problems.append("trace differs from the golden bytes")
        blocks = text.split("\nframe ")
        if len(blocks) - 1 != p.frames:
            problems.append(f"{len(blocks) - 1} frames, predicted {p.frames}")
        else:
            last = blocks[-1].splitlines()
            header = f"{p.frames - 1} revision {p.diffs}"
            if last[0] != header:
                problems.append(f"last frame header {last[0]!r}, predicted {header!r}")
            states = Counter(line.split()[2] for line in last[1:]
                             if line.startswith("  ") and not line.startswith("  edge "))
            if states != p.final_states:
                problems.append(f"last frame states {dict(states)}, "
                                f"predicted {dict(p.final_states)}")
        self._check(what, problems)

    # -- one iteration -----------------------------------------------------------

    def iterate(self, tracer: Tracer | None = None, repeats: int = 1,
                pacer: Pacer | None = None) -> dict:
        """Run once, then replay and trace ``repeats`` times each.

        The checks sit outside the timed calls.  ``replay_s`` and ``trace_s``
        are lists with one time per repeat.  A ``pacer`` runs the reference
        task before each timed call and records the call's time.
        """
        pacer = pacer or _NoPacer()
        self._iteration += 1
        run_id = f"it{self._iteration}"
        base = self.work / run_id
        ledger_path = base / "ledger.jsonl"
        backend = ScriptedBackend(self.fixture)
        verifier = SimVerifier(self.rules)
        span = _no_span
        if tracer is not None:
            tracer.run_id = run_id
            tracer.counts.clear()
            span = tracer.root
        gc.collect()

        pacer.tick()
        with span("looper.run") as root:
            t0 = perf_counter()
            outcome, ledger = looper.run(self.inputs.input_file, backend, verifier,
                                         looper.LoopConfig(), workspace_dir=base / "ws",
                                         ledger_path=ledger_path)
            run_s = perf_counter() - t0
        pacer.record("run_s", run_s)
        self._check_run(f"{run_id} run", self.prediction, outcome, ledger)
        sample = {"run_id": run_id, "run_s": run_s,
                  "ledger_bytes": ledger_path.stat().st_size,
                  "statements": ledger.outcome.statement_count,
                  "replans": outcome.final_plan_revision, "frames": len(ledger.frames)}
        del outcome, ledger

        sample["replay_s"], sample["trace_s"] = [], []
        for _ in range(repeats):
            pacer.tick()
            with span("cli.replay"):
                t0 = perf_counter()
                result = ledger_mod.verify_replay(ledger_mod.read_ledger_records(ledger_path))
                sample["replay_s"].append(perf_counter() - t0)
            pacer.record("replay_s", sample["replay_s"][-1])
            self._check_replay(f"{run_id} replay", result)
        for _ in range(repeats):
            pacer.tick()
            with span("cli.trace"):
                t0 = perf_counter()
                text = ledger_mod.export_trace(ledger_mod.load_ledger(ledger_path), "text")
                sample["trace_s"].append(perf_counter() - t0)
            pacer.record("trace_s", sample["trace_s"][-1])
            self._check_trace(f"{run_id} trace", text)
            del text

        if tracer is not None:
            sample["root"] = root
            sample["counts"] = Counter(tracer.counts)
            sample["frame_bytes"] = frame_bytes(ledger_path)
        shutil.rmtree(base)
        return sample

    # -- passes ------------------------------------------------------------------

    def timed_pass(self, seconds: float, pacer: Pacer) -> list[dict]:
        """Untraced, paced iterations for ``seconds``, after one unsampled warm-up."""
        repeats = OP_REPEATS[self.workload]
        self.iterate(repeats=repeats)
        samples: list[dict] = []
        start = perf_counter()
        while len(samples) < MIN_ITERATIONS or perf_counter() - start < seconds:
            samples.append(self.iterate(repeats=repeats, pacer=pacer))
        pacer.tick()
        return samples

    def traced_pass(self, seconds: float, tracer: Tracer) -> tuple[list[dict], list[dict]]:
        """Alternate untraced and traced iterations so drift hits both alike."""
        self.iterate()  # warm-up, checked but not sampled
        plain: list[dict] = []
        traced: list[dict] = []
        start = perf_counter()
        while len(traced) < MIN_ITERATIONS or perf_counter() - start < seconds:
            plain.append(self.iterate())
            tracer.install()
            try:
                traced.append(self.iterate(tracer))
            finally:
                tracer.uninstall()
        return plain, traced

    def memory_pass(self) -> float:
        """Peak traced allocation over one run, replay and trace, in MB."""
        gc.collect()
        tracemalloc.start()
        try:
            self.iterate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 1e6

    def setup_pass(self, probes: int, pacer: Pacer | None = None) -> list[dict]:
        """Fresh interpreters importing proofloop.cli and loading the inputs."""
        pacer = pacer or _NoPacer()
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(self.root / "src"),
               str(self.inputs.fixture_file), str(self.inputs.rules_file)]
        results = []
        for i in range(probes + 1):
            if i:
                pacer.tick()
            t0 = perf_counter()
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            wall = perf_counter() - t0
            if proc.returncode != 0:
                raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
            data = json.loads(proc.stdout.strip().splitlines()[-1])
            if data["entries"] != self.prediction.fixture_entries:
                raise RuntimeError(f"setup probe parsed {data['entries']} fixture entries, "
                                   f"predicted {self.prediction.fixture_entries}")
            if i:  # the first interpreter is a warm-up
                data["setup_s"] = wall
                results.append(data)
                pacer.record("setup_s", wall)
        pacer.tick()
        return results

    def sweep(self) -> dict[str, float]:
        """One untraced, checked run of the wide shape at each plan size."""
        out: dict[str, float] = {}
        for n in SWEEP_SIZES:
            base = self.work / f"sweep-{n}"
            inputs, prediction = workloads.wide(base / "inputs", self.seed, n)
            backend = ScriptedBackend(load_fixture(inputs.fixture_file))
            verifier = SimVerifier(load_sim_rules(inputs.rules_file))
            gc.collect()
            t0 = perf_counter()
            outcome, ledger = looper.run(inputs.input_file, backend, verifier,
                                         looper.LoopConfig(), workspace_dir=base / "ws",
                                         ledger_path=base / "ledger.jsonl")
            run_s = perf_counter() - t0
            self._check_run(f"sweep n={n} run", prediction, outcome, ledger)
            out[f"sweep.stmt_ms.n{n}"] = run_s * 1000 / prediction.statements
            out[f"sweep.ledger_bytes.n{n}"] = (base / "ledger.jsonl").stat().st_size
            del outcome, ledger
            shutil.rmtree(base)
        return out


# ---------------------------------------------------------------------------
# Metric assembly.

def tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples above it, and its value.

    Below 20 samples that percentile would sit under the median, so the
    maximum is reported instead, as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return 100, ordered[-1]
    pct = 100 * (n - 10) // n
    return pct, ordered[-(n * (100 - pct) // 100) - 1]


def timing(name: str, samples: list[dict]) -> dict[str, float]:
    """Median, tail and sample count of one raw timing over samples.

    A sample's entry may be one time or a list of repeats.
    """
    values: list[float] = []
    for sample in samples:
        value = sample[name]
        values.extend(value if isinstance(value, list) else [value])
    pct, value = tail(values)
    return {f"{name}.median": statistics.median(values), f"{name}.tail": value,
            f"{name}.tail_pct": pct, f"{name}.samples": len(values)}


def peak_rss_mb() -> float:
    """High-water resident set of this process so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(samples: list[dict], setups: list[dict], pacer: Pacer,
               peak_mb: float) -> dict[str, float]:
    """Scaled medians of the timings, with their raw medians and tails beside them."""
    out: dict[str, float] = {}
    for name in ("run_s", "replay_s", "trace_s", "setup_s"):
        out.update(timing(name, setups if name == "setup_s" else samples))
        out[name] = statistics.median(pacer.scaled(name))
    out["reference_ms"] = statistics.median(pacer.refs) * 1000
    out["ledger_bytes"] = statistics.median(s["ledger_bytes"] for s in samples)
    out["peak_rss_mb"] = peak_mb
    return out


def per_layer(tracer: Tracer, plain: list[dict], traced: list[dict], setups: list[dict],
              sweep: dict[str, float], peak_alloc_mb: float
              ) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the traced pass, and any accounting problems.

    Calls and counts are those of the last traced iteration (they repeat
    exactly); seconds are self times, the median over traced iterations.
    """
    problems: list[str] = []
    per_iteration = []
    accounted = []
    selfs = self_times(tracer.spans)
    for sample in traced:
        per_iteration.append(layer_totals(tracer.spans, selfs, sample["run_id"]))
        # Layer self times under the run span must add up to the run's own time.
        share = subtree_self_time(tracer.spans, selfs, sample["root"]) / sample["run_s"]
        accounted.append(share)
        if abs(share - 1) > ACCOUNTING_TOLERANCE:
            problems.append(f"{sample['run_id']}: layer self times cover {share:.4f} "
                            f"of the traced run_s")
    calls = per_iteration[-1][0]
    counts = traced[-1]["counts"]

    def median_seconds(name: str) -> float:
        return statistics.median(seconds.get(name, 0.0) for _, seconds in per_iteration)

    out: dict[str, float] = {}
    for name, with_calls, with_seconds in SPAN_METRICS:
        if with_calls:
            out[f"{name}.calls"] = calls[name]
        if with_seconds:
            out[f"{name}.s"] = median_seconds(name)
    builds = calls["leanenv.build"] or 1
    out["plan.apply_diff.rejected"] = counts["plan.apply_diff.rejected"]
    out["plan.invalidated"] = counts["plan.invalidated"]
    out["plan.nodes"] = traced[-1]["statements"]
    out["leanenv.build.files"] = counts["leanenv.build.files"] / builds
    out["leanenv.build.clean_ratio"] = counts["leanenv.build.clean"] / builds
    out["ledger.frame_bytes"] = traced[-1]["frame_bytes"]
    out["agents.malformed"] = counts["agents.malformed"]
    out["agents.fixture_parse.s"] = statistics.median(s["fixture_parse_s"] for s in setups)
    out["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
    out["looper.self_s"] = median_seconds("looper.run")
    out["looper.replans"] = traced[-1]["replans"]
    out["looper.frames"] = traced[-1]["frames"]
    out.update(sweep)
    traced_run = statistics.median(s["run_s"] for s in traced)
    plain_run = statistics.median(s["run_s"] for s in plain)
    out["trace_overhead_frac"] = traced_run / plain_run - 1
    out["trace.accounted_frac"] = statistics.median(accounted)
    out["peak_alloc_mb"] = peak_alloc_mb
    # The end-to-end timings of the untraced iterations and set-up probes.
    for name in ("run_s", "replay_s", "trace_s"):
        out.update(timing(name, plain))
    out.update(timing("setup_s", setups))
    return out, problems
