"""Span tracing from outside the program, for the benchmark's traced pass.

:class:`Tracer` replaces public callables with wrappers that record a span
(name, start, end, parent, run id) around each call, at the place where callers
resolve the name: ``looper`` binds ``apply_diff`` by name, so its wrapper goes
on ``proofloop.looper.apply_diff``, while ``verify_replay`` resolves the same
function through ``proofloop.ledger``.  Methods are wrapped on their class.
Spans stay in memory until :meth:`Tracer.write`; :meth:`Tracer.uninstall`
puts every original back.

A span's self time is its duration minus the time its direct children cover.
The program is single-threaded, so children never overlap and the self times
of one root's spans add up to the root's duration.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import proofloop.leanenv as leanenv
import proofloop.ledger as ledger
import proofloop.looper as looper
from proofloop.agents import MalformedResponse
from proofloop.plan import RejectedDiff


def _on_build(counts: Counter, args: tuple, report) -> None:
    counts["leanenv.build.files"] += len(args[1].node_files)
    counts["leanenv.build.clean"] += report.clean


def _on_apply_diff(counts: Counter, args: tuple, result) -> None:
    counts["plan.invalidated"] += len(result[1])


# (owner, attribute, span name, hook run on the result); a span name is a layer
# and an operation, and names the per-layer metrics derived from it.
def _targets() -> list[tuple[object, str, str, object]]:
    return [
        (looper, "next_open_statement", "plan.select", None),
        (looper, "is_complete", "plan.select", None),
        (looper, "set_status", "plan.set_status", None),
        (ledger, "set_status", "plan.set_status", None),
        (looper, "apply_diff", "plan.apply_diff", _on_apply_diff),
        (ledger, "apply_diff", "plan.apply_diff", _on_apply_diff),
        (looper, "plan_to_text", "plan.serialize", None),
        (looper, "diff_to_text", "plan.serialize", None),
        (ledger, "plan_from_text", "plan.parse", None),
        (ledger, "diff_from_text", "plan.parse", None),
        (looper, "invoke", "agents.invoke", None),
        (looper, "assemble_context", "agents.context", None),
        (leanenv.SimVerifier, "build", "leanenv.build", _on_build),
        (leanenv, "scan_forbidden_text", "leanenv.scan", None),
        (leanenv.Workspace, "write_node_source", "leanenv.write", None),
        (leanenv.Workspace, "remove_node_source", "leanenv.remove", None),
        (looper, "audit_verdict", "leanenv.audit", None),
        (ledger.RunLedger, "record_event", "ledger.event", None),
        (ledger.RunLedger, "snapshot_frame", "ledger.frame", None),
        (ledger.RunLedger, "record_usage", "ledger.usage", None),
        (ledger, "read_ledger_records", "ledger.read", None),
        (ledger, "verify_replay", "ledger.verify", None),
        (ledger, "load_ledger", "ledger.load", None),
        (ledger, "export_trace", "ledger.export", None),
    ]


# Exceptions that are outcomes of a layer rather than failures of the benchmark.
_COUNTED_RAISES = {
    "plan.apply_diff": (RejectedDiff, "plan.apply_diff.rejected"),
    "agents.invoke": (MalformedResponse, "agents.malformed"),
}


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1, run id].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        counted = _COUNTED_RAISES.get(name)

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if counted and isinstance(exc, counted[0]):
                    counts[counted[1]] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def root(self, name: str):
        """Record a root span around a block the benchmark itself calls; yields its index."""
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        index = len(self.spans)
        span = [name, 0.0, 0.0, -1, self.run_id]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            yield index
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:  # [name, start, end, parent index, run id]
                out.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration minus the time covered by direct children, per span."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_totals(spans: list[list], selfs: list[float],
                 run_id: str) -> tuple[Counter, dict[str, float]]:
    """Calls and summed self time per span name, over one run id's spans."""
    calls: Counter = Counter()
    seconds: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        if span[4] == run_id:
            calls[span[0]] += 1
            seconds[span[0]] += own
    return calls, seconds


def subtree_self_time(spans: list[list], selfs: list[float], root_index: int) -> float:
    """Summed self time of a root span and all its descendants."""
    inside = {root_index}
    total = selfs[root_index]
    for i in range(root_index + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
            total += selfs[i]
    return total
