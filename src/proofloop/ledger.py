"""Append-only run record: events, graph frames, token/cost accounting, stats.

The ledger is a line-delimited JSON file flushed after every record, so a
multi-hour run stays inspectable live and a crash loses at most the in-flight
line.  Frames snapshot node statuses and edges after every plan mutation and
every status change; the trace exporter turns them into a layered text or DOT
rendering.  Replay determinism is defined modulo timestamp fields.

On disk (version 3) the first frame is a keyframe that holds the whole graph;
every later frame is a delta of the statuses and, after a diff, the structure
that changed (see :func:`frame_record`).  Version 2 wrote a keyframe at every
structure change and version 1 only keyframes; both read as version 3.
"""

from __future__ import annotations

import json
import statistics
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import Decimal, ROUND_HALF_UP
from enum import Enum
from heapq import heappop, heappush
from itertools import chain, filterfalse, islice, repeat, starmap
from operator import itemgetter, mul
from pathlib import Path
from typing import IO, Any, Iterable, Iterator

from .agents import TOKEN_CLASSES, AgentError, TokenUsage, token_counts
from .plan import (
    Change, ProofPlan, Status, apply_diff, cycle_from, derive_change, diff_from_text,
    encode_json, plan_from_text, scan_json, set_status,
)


class LedgerError(Exception):
    pass


class LedgerClosed(LedgerError):
    pass


class UnsupportedFormat(LedgerError):
    pass


class EmptyInput(LedgerError):
    pass


class UnsolvedIncluded(LedgerError):
    pass


LEDGER_VERSION = 3
READABLE_VERSIONS = (1, 2, 3)  # version 1 has no deltas, version 2 only status deltas


def _check_header(header: dict[str, Any] | None, source: object) -> None:
    """A ledger opens with a run header of a version this reader knows."""
    if header is None or header.get("rec") != "run":
        raise LedgerError(f"{source} is not a run ledger")
    version = header.get("version")
    if type(version) is not int or version not in READABLE_VERSIONS:
        raise LedgerError(f"{source}: unsupported ledger version {version!r}")


class EventKind(str, Enum):
    PLAN_CREATED = "PlanCreated"
    DIFF_APPLIED = "DiffApplied"
    LEAN_ATTEMPT = "LeanAttempt"
    BUILD_CLEAN = "BuildClean"
    BUILD_SORRIES = "BuildSorries"
    CHECK_PASS = "CheckPass"
    CHECK_FAIL = "CheckFail"
    NODE_CLOSED = "NodeClosed"
    NODE_FAILING = "NodeFailing"
    RESTART = "Restart"
    SUCCESS_EXIT = "SuccessExit"
    BUDGET_STOP = "BudgetStop"


# The status each node-status event sets, for the loop and verify_replay alike.
STATUS_EVENTS = {
    EventKind.NODE_CLOSED: Status.CLOSED,
    EventKind.NODE_FAILING: Status.FAILING,
}

# How the detail of each final-audit event starts; replay reopens the anchor node on a
# CheckFail event whose detail starts so, as the loop does.
AUDIT_DETAIL = "audit:"


class Verdict(str, Enum):
    SOLVED = "solved"
    UNFINISHED = "unfinished"


class StopReason(str, Enum):
    TIME_BUDGET = "time-budget"
    REPLAN_LIMIT = "replan-limit"
    BACKEND_FAILURE = "backend-failure"
    AUDIT_FAIL = "audit-fail"


# Frame status vocabulary mirrors the trace legend, not the plan enum.
FRAME_STATUS = {
    Status.CLOSED: "formalized",
    Status.OPEN: "not-yet",
    Status.FAILING: "failing",
}
_STATUSES = {status: status for status in FRAME_STATUS.values()}  # one string per status

FRAME_COLORS = {
    "formalized": "#3B5B92",
    "not-yet": "#B4B7BD",
    "failing": "#B65F45",
}


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


@dataclass(frozen=True)
class LoopEvent:
    ts: str
    kind: EventKind
    node_id: str | None = None
    detail: str = ""
    data: dict[str, Any] | None = None


@dataclass(frozen=True)
class Frame:
    index: int
    node_states: dict[str, str]
    edges: tuple[tuple[str, str], ...]
    plan_revision: int
    # What the record of a loaded delta named; None for a keyframe or a frame built in memory.
    change: Change | None = field(default=None, compare=False, repr=False)


def frame_of(plan: ProofPlan, index: int, previous: Frame | None = None,
             change: Change | None = None) -> Frame:
    """The frame ``plan`` gives at ``index``: the one derivation of a frame from a plan.

    Given ``previous``, the frame of the plan before, and ``change``, the :class:`Change`
    since, the statuses are ``previous``'s, in the plan's order if the change moved or
    removed ids, with those of the ids it names read anew.
    """
    if previous is None or change is None:
        states = {nid: FRAME_STATUS[plan.nodes[nid].status] for nid in plan.order}
    else:
        states, order = previous.node_states, plan.order
        states = (dict(zip(order, map(states.get, order)))
                  if change.after or change.removed else states.copy())
        for nid in change.statuses:
            states[nid] = FRAME_STATUS[plan.nodes[nid].status]
    return Frame(index, states, plan.edges, plan.revision)


def frame_record(previous: Frame | None, frame: Frame,
                 change: Change | None = None) -> dict[str, Any]:
    """The record that stands for ``frame`` after ``previous``: the one derivation of a
    frame record, for the writer and replay alike.

    With no frame before it, a keyframe.  Otherwise a delta written from ``change``, the
    :class:`Change` since ``previous``: ``nodes`` holds the new ids and changed statuses
    in its order; ``removed`` the dropped ids, ``after`` each id whose predecessor in the
    node order changed and ``deps`` each id whose dependency list changed, each only
    when not empty.  Only the ids the change names are read.
    """
    record = {"rec": "frame", "index": frame.index, "revision": frame.plan_revision}
    if previous is None:
        return {**record, "nodes": frame.node_states, "edges": list(map(list, frame.edges))}
    old, new = previous.node_states, frame.node_states
    record["nodes"] = {nid: new[nid] for nid in change.statuses if new[nid] != old.get(nid)}
    if change.removed:
        record["removed"] = list(change.removed)
    if change.after:
        record["after"] = change.after
    if change.deps:
        record["deps"] = {nid: [dep for dep, _ in pairs] for nid, pairs in change.deps.items()}
    return record


def _edges_by_node(frame: Frame) -> dict[str, list[tuple[str, str]]]:
    """Each id's edges, its (dep, id) pairs in edge order."""
    edges: dict[str, list[tuple[str, str]]] = {nid: [] for nid in frame.node_states}
    for pair in frame.edges:
        edges[pair[1]].append(pair)
    return edges


def read_frame(record: dict[str, Any], previous: Frame | None,
               shared: dict | None = None, carried: list | None = None) -> Frame:
    """The frame a frame record stands for: the one reader of frame records.

    A record without ``edges`` is a delta on ``previous`` (see :func:`frame_record`).
    A record of the wrong shape, an edge that names an id outside its frame, or a pair
    listed twice, is a LedgerError that names the frame.  Given ``shared``, one table
    per read, frames share ids and (dep, node) pairs; given ``carried`` too, a
    structure delta starts from the per-node pairs the one before it left, if they
    are ``previous``'s.  A delta is read by what it names: the ids, links and deps it
    lists, which its frame keeps as its :class:`Change`.
    """
    index, revision, nodes = record.get("index"), record.get("revision"), record.get("nodes")
    intern = ({} if shared is None else shared).setdefault
    by_node = change = None
    try:
        if type(index) is not int or type(revision) is not int:
            raise ValueError("index and revision must be integers")
        if not isinstance(nodes, dict):
            raise ValueError("nodes is not an object")
        statuses = dict(zip(nodes, map(_STATUSES.__getitem__, nodes.values())))
        if "edges" in record:
            raw = record["edges"]
            if type(raw) is not list or set(map(type, raw)) - {list} or set(map(len, raw)) - {2}:
                raise ValueError("edges is not a list of [dep, node] pairs")
            pairs = tuple(map(tuple, raw))
            _check_edges(pairs, statuses)
            states = dict(zip(map(intern, statuses, statuses), statuses.values()))
            pairs = tuple(map(intern, pairs, pairs))
        elif previous is None:
            raise ValueError("a delta with no frame before it")
        elif record.keys().isdisjoint(("removed", "after", "deps")):  # statuses only
            if not statuses.keys() <= previous.node_states.keys():
                raise ValueError(f"the delta names a node not in frame {previous.index}")
            return Frame(index, {**previous.node_states, **statuses}, previous.edges, revision,
                         Change(statuses, basis=previous.node_states))
        else:
            if carried and carried[0] is previous.edges:
                grouped, by_node = carried
            else:
                by_node = _edges_by_node(previous)
                grouped = tuple(chain.from_iterable(map(by_node.get, previous.node_states)))
            states, pairs, change = _restructure(record, previous, statuses, grouped, by_node,
                                                 intern)
    except KeyError as exc:
        fault = f"unknown status {exc}"
    except TypeError:
        fault = "an id or a status is not a string"
    except ValueError as exc:
        fault = str(exc)
    else:
        if carried is not None and by_node is not None:
            carried[:] = pairs, by_node
        return Frame(index, states, pairs, revision, change)
    raise LedgerError(f"malformed ledger record: frame {index!r}: {fault}")


def _check_edges(pairs: tuple[tuple[str, str], ...], states: dict[str, str]) -> None:
    if not set(chain.from_iterable(pairs)) <= states.keys():
        raise ValueError("an edge names an id outside the frame")
    if len(set(pairs)) < len(pairs):
        raise ValueError("an edge is listed twice")


def _restructure(record: dict[str, Any], previous: Frame, statuses: dict[str, str],
                 grouped: tuple[tuple[str, str], ...], by_node: dict[str, list[tuple[str, str]]],
                 intern):
    """The statuses, edges and change of a delta that changes the structure of ``previous``.

    The new frame is copied from runs of the previous one: a run of the node order ends
    where a removed id, an id that ``after`` places anew or an id whose deps ``deps``
    lists cuts it, and starts after its first id's old predecessor.  ``grouped`` holds
    the previous pairs id by id in node order, as a delta's frame holds them, so a run's
    statuses and pairs are copied as slices; ``by_node`` holds each id's pairs and is
    patched to the new frame's.  Only the links of ``after`` and the cut ids are followed
    one by one.  Only the new ids and pairs are interned and checked: a carried pair was
    checked with ``previous``, and only a removal can make it name an id outside the frame.
    """
    removed, after, new_deps = map(record.get, ("removed", "after", "deps"), ([], {}, {}))
    if type(removed) is not list or type(after) is not dict or type(new_deps) is not dict:
        raise ValueError("removed is not a list, or after or deps is not an object")
    old, gone = previous.node_states, set(removed)
    if not gone <= old.keys():
        raise ValueError("removed names an unknown id")
    if len(gone) < len(removed) or not gone.isdisjoint(statuses):
        raise ValueError("removed names an id twice, or one that nodes lists")
    came = set(filterfalse(old.__contains__, statuses))
    moved = after.keys() - came  # the kept ids that after places anew
    if not came <= after.keys() or not moved <= old.keys() or not moved.isdisjoint(gone):
        raise ValueError("after names an unknown or removed id, or misses a new one")
    order = list(old)
    relisted = {nid for nid in new_deps if nid in old} - gone - moved  # kept in place
    cuts = sorted(map(order.index, gone | moved | relisted))
    # Each run as (start, end, and both in grouped), and each id placed alone, by the id
    # it follows.
    links: dict[str | None, tuple[int, int, int, int] | str] = {}
    start = first = 0  # where the next run starts, in the node order and in grouped
    for end in cuts:
        last = first + sum(map(len, map(by_node.get, order[start:end], repeat(()))))
        if start < end:
            links[order[start - 1] if start else None] = (start, end, first, last)
        start, first = end + 1, last + len(by_node.get(order[end], ()))
    if start < len(order):
        links[order[start - 1] if start else None] = (start, len(order), first, len(grouped))
    links.update({order[i - 1] if i else None: order[i] for i in cuts if order[i] in relisted})
    # An id after an unknown id, or after the same id as another, is left out of the chain.
    links.update({pred: intern(nid, nid) for nid, pred in after.items()})
    placed, link = [], links.get(None)
    while link is not None:
        placed.append(link)
        link = links.get(link if type(link) is str else order[link[1] - 1])
    if sum(1 if type(link) is str else link[1] - link[0] for link in placed) < (
            len(order) - len(gone) + len(came)):
        raise ValueError("the predecessor links do not form one chain")
    states = dict(chain.from_iterable(((link, old.get(link)),) if type(link) is str
                                      else islice(old.items(), *link[:2]) for link in placed))
    states.update(statuses)
    if not set(map(type, new_deps.values())) <= {list} or not new_deps.keys() <= states.keys():
        raise ValueError("deps is not an object of lists of the frame's ids")
    fresh = {nid: [intern(pair, pair) for pair in zip(map(intern, deps, deps), repeat(nid))]
             for nid, deps in zip(map(intern, new_deps, new_deps), new_deps.values())}
    by_node.update(fresh)
    pairs = tuple(chain.from_iterable(by_node.get(link, ()) if type(link) is str
                                      else grouped[link[2]:link[3]] for link in placed))
    _check_edges(pairs if gone else tuple(chain.from_iterable(fresh.values())), states)
    for nid in gone:
        by_node.pop(nid, None)
    return states, pairs, Change(statuses, came, gone, deps=fresh, basis=old)


_OPTIONAL_STR = frozenset({str, type(None)})
_REAL = frozenset({int, float})  # not bool, an int subclass that JSON's true reads as
_INFINITY = float("inf")


@dataclass(frozen=True)
class UsageRecord:
    ts: str
    kind: str
    check_kind: str | None
    node_id: str | None
    usage: TokenUsage
    elapsed: float

    def __post_init__(self) -> None:
        if type(self.kind) is not str:
            raise ValueError(f"usage kind is not a string: {self.kind!r}")
        if type(self.check_kind) not in _OPTIONAL_STR or type(self.node_id) not in _OPTIONAL_STR:
            raise ValueError(f"usage check or node is neither a string nor null: "
                             f"{self.check_kind!r}, {self.node_id!r}")
        if type(self.elapsed) not in _REAL or not 0 <= self.elapsed < _INFINITY:  # nan fails too
            raise ValueError(f"usage elapsed is not a finite non-negative number: {self.elapsed!r}")


@dataclass(frozen=True)
class Outcome:
    """How a run ended; verdict and reason are coerced to their enums."""

    verdict: Verdict
    reason: StopReason | None
    wall_clock: float
    statement_count: int
    final_plan_revision: int  # the record's "revision"

    def __post_init__(self) -> None:
        object.__setattr__(self, "verdict", Verdict(self.verdict))
        object.__setattr__(self, "reason", None if self.reason is None else StopReason(self.reason))
        if (self.verdict is Verdict.SOLVED) == (self.reason is not None):
            raise ValueError("solved outcomes carry no reason; unfinished ones must")


@dataclass
class RunLedger:
    """In-memory view of one run's record; optionally mirrored to a file."""

    run_id: str
    events: list[LoopEvent] = field(default_factory=list)
    frames: list[Frame] = field(default_factory=list)
    usage_records: list[UsageRecord] = field(default_factory=list)
    outcome: Outcome | None = None
    _sink: IO[str] | None = None
    _closed: bool = False

    @property
    def usage_total(self) -> TokenUsage:
        per_class = zip(*(token_counts(record.usage) for record in self.usage_records))
        return TokenUsage(*map(sum, per_class))  # no records: no columns, every count 0

    def _emit(self, record: dict[str, Any]) -> None:
        """Write one record; every writer calls this before it changes the ledger in memory."""
        if self._closed:
            raise LedgerClosed("ledger already closed")
        if self._sink is not None:
            self._sink.write(encode_json(record) + "\n")
            self._sink.flush()

    def record_event(self, kind: EventKind, node_id: str | None = None,
                     detail: str = "", data: dict[str, Any] | None = None) -> None:
        event = LoopEvent(utc_now_iso(), kind, node_id, detail, data)
        record: dict[str, Any] = {
            "rec": "event", "ts": event.ts, "kind": kind.value,
            "node": node_id, "detail": detail,
        }
        if data is not None:
            record["data"] = data
        self._emit(record)
        self.events.append(event)

    def snapshot_frame(self, plan: ProofPlan, change: Change | None = None) -> None:
        """Record ``plan``'s frame: the first is a keyframe; any later one is a delta written
        from ``change``, the :class:`Change` of the step that made ``plan`` from the plan of
        the last frame, which defaults to the one a plan from ``apply_diff`` carries."""
        previous = self.frames[-1] if self.frames else None
        change = change or plan.change
        if previous is not None and change is None:
            raise ValueError("a frame after the first is written from the change of its step")
        frame = frame_of(plan, len(self.frames), previous, change)
        self._emit(frame_record(previous, frame, change))
        self.frames.append(frame)

    def record_usage(self, kind: str, check_kind: str | None, node_id: str | None,
                     usage: TokenUsage, elapsed: float) -> None:
        record = UsageRecord(utc_now_iso(), kind, check_kind, node_id, usage, elapsed)
        self._emit({
            "rec": "usage", "ts": record.ts, "kind": kind, "check": check_kind,
            "node": node_id, **usage.as_dict(), "elapsed": elapsed,
        })
        self.usage_records.append(record)

    def record_outcome(self, outcome: Outcome) -> None:
        total = self.usage_total
        self._emit({
            "rec": "outcome", "verdict": outcome.verdict, "reason": outcome.reason,
            "wall_clock": outcome.wall_clock, "statement_count": outcome.statement_count,
            "revision": outcome.final_plan_revision,
            "usage_total": total.as_dict(),
        })
        self.outcome = outcome
        self._closed = True
        if self._sink is not None:
            self._sink.close()
            self._sink = None


def open_ledger(run_id: str, path: Path | None = None, meta: dict[str, Any] | None = None) -> RunLedger:
    sink: IO[str] | None = None
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        sink = path.open("w", encoding="utf-8")
    ledger = RunLedger(run_id=run_id, _sink=sink)
    header = {"rec": "run", "version": LEDGER_VERSION, "run_id": run_id}
    if meta:
        header.update(meta)
    ledger._emit(header)
    return ledger


_JSON_SPACE = " \t\n\r"  # the whitespace json.loads allows around a value


def read_ledger_records(path: Path) -> Iterator[dict[str, Any]]:
    """Yield JSON-line records one by one, each line read as ``json.loads`` reads it.
    Only the final line may fail to parse (an in-flight record); any other bad line, or
    a non-object, is a LedgerError when reached.

    A line is decoded by one call of the JSON scanner; a line it does not take whole
    (leading whitespace, a fault, anything but JSON whitespace after the value) is
    read again by ``json.loads``, whose verdict and error text stand.
    """
    unparsed: str | None = None  # an error only if another record follows
    with path.open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            try:
                record, end = scan_json(line, 0)
                whole = not line[end:].strip(_JSON_SPACE)
            except (StopIteration, json.JSONDecodeError):
                whole = False
            if not whole and line.isspace():
                continue
            if unparsed is not None:
                raise LedgerError(unparsed)
            if not whole:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    unparsed = f"{path}: line {number} is not a JSON record: {exc}"
                    continue
            if type(record) is not dict:
                raise LedgerError(f"{path}: line {number} is not a JSON object")
            yield record


_record_counts = itemgetter(*TOKEN_CLASSES)
_EVENT_KINDS = {kind.value: kind for kind in EventKind}


def load_ledger(path: Path) -> RunLedger:
    """Load a ledger; a record of the wrong shape is a :class:`LedgerError`.

    Frame records are read by :func:`read_frame`, with one table shared by
    every frame of the ledger.
    """
    records = read_ledger_records(path)
    header = next(records, None)
    _check_header(header, path)
    ledger = RunLedger(run_id=header.get("run_id", ""))
    ledger._closed = True
    shared: dict = {}
    carried: list = []
    try:
        for record in records:
            kind = record.get("rec")
            if kind == "event":
                try:
                    event_kind = _EVENT_KINDS[record["kind"]]
                except (KeyError, TypeError):  # it fails as EventKind fails
                    event_kind = EventKind(record["kind"])
                ledger.events.append(LoopEvent(
                    record.get("ts", ""), event_kind,
                    record.get("node"), record.get("detail", ""), record.get("data"),
                ))
            elif kind == "frame":
                ledger.frames.append(read_frame(
                    record, ledger.frames[-1] if ledger.frames else None, shared, carried))
            elif kind == "usage":
                try:
                    counts = _record_counts(record)
                except KeyError:  # a class left out reads 0
                    counts = map(record.get, TOKEN_CLASSES, repeat(0))
                ledger.usage_records.append(UsageRecord(
                    record.get("ts", ""), record.get("kind", ""), record.get("check"),
                    record.get("node"), TokenUsage(*counts), record.get("elapsed", 0.0),
                ))
            elif kind == "outcome":
                ledger.outcome = Outcome(
                    record["verdict"], record.get("reason"), record.get("wall_clock", 0.0),
                    record.get("statement_count", 0), record.get("revision", 0),
                )
    except (AgentError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise LedgerError(f"malformed ledger record: {exc!r}") from exc
    return ledger


class ReplayMismatch(LedgerError):
    pass


def verify_replay(records: Iterable[dict[str, Any]]) -> tuple[int, int]:
    """Re-execute the ledger's diffs and check every frame against them, keeping
    only the replayed plan and the last frame.

    Each frame record, read by :func:`read_frame`, must equal :func:`frame_record`
    of the last frame (of none, for a keyframe) and the replayed plan's frame.  A delta
    is derived from the ids that status events touched since the last frame, in event
    order, or from the :class:`Change` that ``apply_diff`` gave the one diff since; after
    any other steps, from the change found between the two plans.
    Returns (frames checked, diffs applied); the first fault in ``records`` raises
    :class:`ReplayMismatch` (a frame or invalidation set that differs) or
    :class:`LedgerError` (a malformed record, a missing header, an unknown version).
    A CheckFail event with an ``AUDIT_DETAIL`` detail reopens the anchor node, as the loop does.
    """
    records = iter(records)
    _check_header(next(records, None), "the replayed ledger")
    plan: ProofPlan | None = None
    basis: ProofPlan | None = None  # the plan of the last frame checked
    previous: Frame | None = None  # the last frame checked
    # The ids whose status events were applied since the last frame, in event order, while
    # that is all; the change of one diff, if that is all; else None.
    since: dict[str, None] | Change | None = {}
    frames_checked = 0
    diffs_applied = 0
    try:
        for record in records:
            rec = record.get("rec")
            if rec == "event":
                kind = record.get("kind")
                data = record.get("data") or {}
                node = record.get("node")
                if kind == EventKind.PLAN_CREATED:
                    plan, since = plan_from_text(data["plan"]), None
                elif kind == EventKind.DIFF_APPLIED:
                    if plan is None:
                        raise ReplayMismatch("diff applied before any plan was created")
                    diff = diff_from_text(data["diff"])
                    plan, invalidated = apply_diff(plan, diff)
                    since = plan.change if since == {} else None
                    diffs_applied += 1
                    recorded = list(data.get("invalidated", []))
                    try:  # a list in order sorts in linear time, where the set would not
                        same = (recorded == sorted(recorded) and len(recorded) == len(invalidated)
                                and invalidated == set(recorded))
                    except TypeError:  # an item that does not sort or hash: no id
                        same = False
                    if not same:
                        raise ReplayMismatch(
                            f"diff #{diffs_applied}: invalidated set {sorted(invalidated)} "
                            f"!= recorded {data.get('invalidated')}")
                elif plan is not None and (kind in STATUS_EVENTS or (
                        kind == EventKind.CHECK_FAIL
                        and record.get("detail", "").startswith(AUDIT_DETAIL))):
                    # A status event, or the audit CheckFail that reopens the anchor node
                    plan = set_status(plan, node, STATUS_EVENTS.get(kind, Status.OPEN))
                    if type(since) is dict:
                        since[node] = None
                    else:
                        since = None
            elif rec == "frame":
                delta = "edges" not in record
                if delta and previous is None:
                    raise ReplayMismatch(f"frame {record.get('index')!r}: a delta "
                                         "with no frame before it")
                change = (Change(since) if type(since) is dict
                          else since or basis and derive_change(basis, plan))
                expected = None if plan is None else frame_of(plan, frames_checked, previous,
                                                              change)
                written = expected and frame_record(previous if delta else None, expected,
                                                    change)
                # Equal records differ only if an integer is written as a float or a bool.
                if record != written or {type(record["index"]), type(record["revision"])} != {int}:
                    read_frame(record, previous)  # a malformed record is a LedgerError
                    if written is None:
                        raise ReplayMismatch("frame recorded before any plan was created")
                    key = next(key for key in (*written, *record)
                               if record.get(key) != written.get(key))
                    raise ReplayMismatch(f"frame {record['index']}: {key!r} differs from replay")
                previous, basis, since = expected, plan, {}
                frames_checked += 1
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise LedgerError(f"malformed ledger record: {exc!r}") from exc
    return frames_checked, diffs_applied


# ---------------------------------------------------------------------------
# Layered layout: level 0 for dep-free nodes, else one above the deepest dep.

def depth_layout(frame: Frame) -> dict[str, int]:
    """Levels in one pass, Kahn-style: a node is placed once all its in-frame deps are,
    each placement lifting its dependents; a cycle leaves nodes unplaced."""
    nodes = frame.node_states
    levels = dict.fromkeys(nodes, 0)
    waiting = dict.fromkeys(nodes, 0)  # in-frame deps not yet placed
    dependents: dict[str, list[str]] = {node: [] for node in nodes}
    for dep, node in frame.edges:
        if node in nodes and dep in nodes:
            waiting[node] += 1
            dependents[dep].append(node)
    placed = [node for node, count in waiting.items() if not count]
    for dep in placed:  # grows as nodes become ready
        above = levels[dep] + 1
        for node in dependents[dep]:
            if levels[node] < above:
                levels[node] = above
            waiting[node] -= 1
            if not waiting[node]:
                placed.append(node)
    if len(placed) < len(nodes):
        unplaced_dep = {node: dep for dep, node in frame.edges
                        if waiting.get(node) and waiting.get(dep)}
        raise cycle_from(next(node for node, count in waiting.items() if count), unplaced_dep)
    return levels


# ---------------------------------------------------------------------------
# Cost accounting (USD, half-up to cents) and multi-run statistics.

@dataclass(frozen=True, init=False)
class CostModel:
    """USD per million tokens, one rate per token class in ``TOKEN_CLASSES`` order."""

    rates: tuple[Decimal, ...]

    def __init__(self, *rates: Decimal | int | str) -> None:
        values = tuple(Decimal(str(rate)) for rate in rates)
        for name, value in zip(TOKEN_CLASSES, values, strict=True):
            if not value.is_finite() or value < 0:
                raise LedgerError(f"rate for {name} must be finite and non-negative")
        object.__setattr__(self, "rates", values)


ZERO_RATES = CostModel(*repeat(0, len(TOKEN_CLASSES)))

_CENT = Decimal("0.01")
_MILLION = Decimal(1_000_000)


def cost(usage: TokenUsage, model: CostModel) -> Decimal:
    """Dot product of counts (in millions) with rates, rounded half-up to cents."""
    exact = sum(map(mul, token_counts(usage), model.rates)) / _MILLION
    return exact.quantize(_CENT, rounding=ROUND_HALF_UP)


@dataclass(frozen=True)
class RunStats:
    mean_time_h: float
    std_time_h: float
    median_time_h: float
    min_time_h: float
    max_time_h: float
    mean_statements: float
    std_statements: float
    mean_min_per_stmt: float
    std_min_per_stmt: float
    runs: int


def aggregate_stats(ledgers: list[RunLedger]) -> RunStats:
    """Sample statistics over solved runs; minutes/statement is the per-run ratio."""
    if not ledgers:
        raise EmptyInput("no ledgers to aggregate")
    for ledger in ledgers:
        if ledger.outcome is None or ledger.outcome.verdict is not Verdict.SOLVED:
            raise UnsolvedIncluded(f"run {ledger.run_id} is not solved")
        if ledger.outcome.statement_count < 1:
            raise LedgerError(f"solved run {ledger.run_id} has no statements")
    hours = [ledger.outcome.wall_clock / 3600.0 for ledger in ledgers]
    stmts = [float(ledger.outcome.statement_count) for ledger in ledgers]
    ratios = [
        (ledger.outcome.wall_clock / 60.0) / ledger.outcome.statement_count
        for ledger in ledgers
    ]
    # One run has no sample spread.
    std = statistics.stdev if len(ledgers) > 1 else (lambda values: 0.0)
    return RunStats(
        mean_time_h=statistics.fmean(hours), std_time_h=std(hours),
        median_time_h=statistics.median(hours), min_time_h=min(hours), max_time_h=max(hours),
        mean_statements=statistics.fmean(stmts), std_statements=std(stmts),
        mean_min_per_stmt=statistics.fmean(ratios), std_min_per_stmt=std(ratios),
        runs=len(ledgers),
    )


def render_stats_row(stats: RunStats) -> str:
    """One mean±std row: time, median, min-max, statements, minutes/statement."""
    return (
        f"{stats.mean_time_h:.2f}±{stats.std_time_h:.2f}h"
        f" | {stats.median_time_h:.2f}h"
        f" | {stats.min_time_h:.2f}-{stats.max_time_h:.2f}h"
        f" | {stats.mean_statements:.1f}±{stats.std_statements:.1f}"
        f" | {stats.mean_min_per_stmt:.1f}±{stats.std_min_per_stmt:.1f}"
    )


# ---------------------------------------------------------------------------
# Trace export.

# Per format: a node line from (level, id, status, color), an edge line from (dep, node),
# and the trace's opening lines, a frame's header from (index, revision), its footer and
# the (empty) lines between frames.
_NODE_LINES = {"text": "  {} {} {}",
               "dot": '  "{1}" [class="{2}", fillcolor="{3}", label="{1}\\nL{0}"];'}
_EDGE_LINES = {"text": "  edge {} {}", "dot": '  "{}" -> "{}";'}
_FRAMING = {"text": (["prooftrace v1"], "frame {} revision {}", "end", []),
            "dot": ([], "digraph frame{} {{\n  rankdir=BT;\n  node [shape=box, style=filled];",
                    "}", [""])}
_BLOCK = 64  # lines to a joined block of a full layout


class _Blocks:
    """Lines in the order of their keys, and their text joined block by block: a block
    holds the lines from its bound up to the next block's, and is joined anew only after
    a line of it changed (:meth:`touch`)."""

    def __init__(self, keys: list, lines: list[str]) -> None:
        self.keys, self.lines = keys, lines
        self.bounds = keys[_BLOCK::_BLOCK]  # the first key of each block but the first
        self.texts: list[str | None] = [None] * (len(self.bounds) + 1)

    def touch(self, key) -> None:
        self.texts[bisect_right(self.bounds, key)] = None

    def joined(self) -> list[str]:
        """The text of each block that holds a line, in order."""
        texts, keys, bounds = self.texts, self.keys, self.bounds
        for k in [k for k, text in enumerate(texts) if text is None]:
            low = bisect_left(keys, bounds[k - 1]) if k else 0
            high = bisect_left(keys, bounds[k]) if k < len(bounds) else len(keys)
            texts[k] = "\n".join(self.lines[low:high])
        return list(filter(None, texts))


class _Layout:
    """One structure's levels, its nodes in (level, id) order with their lines rendered
    for the statuses of the last frame (``states``), its sorted (dep, node) pairs with
    their rendered lines, both also joined in :class:`_Blocks`, and each id's deps and
    users over every pair."""

    def __init__(self, frame: Frame, fmt: str) -> None:
        """Lay ``frame`` out in full, from :func:`depth_layout`."""
        self.node_line, self.edge_line = _NODE_LINES[fmt].format, _EDGE_LINES[fmt].format
        self.levels, self.states = depth_layout(frame), frame.node_states
        self.ordered = sorted(zip(self.levels.values(), self.levels))
        self.node_lines = [self.render(level, nid, self.states[nid]) for level, nid in self.ordered]
        self.pairs = sorted(frame.edges)  # a repeated pair is printed once per occurrence
        self.edge_lines = list(starmap(self.edge_line, self.pairs))
        self.node_blocks = _Blocks(self.ordered, self.node_lines)
        self.edge_blocks = _Blocks(self.pairs, self.edge_lines)
        self.deps, self.users = defaultdict(set), defaultdict(set)
        for dep, node in frame.edges:
            self.deps[node].add(dep)
            self.users[dep].add(node)

    def render(self, level: int, node: str, status: str) -> str:
        return self.node_line(level, node, status, FRAME_COLORS[status])

    def text(self) -> list[str]:
        """The node lines, then the edge lines, in joined blocks."""
        return [*self.node_blocks.joined(), *self.edge_blocks.joined()]

    def level(self, node: str, nodes: dict) -> int:
        """One above ``node``'s deepest dep in ``nodes``, or 0."""
        level, levels = 0, self.levels
        for dep in self.deps[node]:
            if dep in nodes and levels[dep] >= level:
                level = levels[dep] + 1
        return level

    def _move(self, out: dict[str, int], into: list[str], nodes: dict[str, str]) -> None:
        """Take the ids ``out`` out of the node order, each at the level it maps to, and
        put the ids ``into`` in at their levels, with their lines for ``nodes``'
        statuses, in one merge of the span of the order that the moved entries cover."""
        ordered, lines = self.ordered, self.node_lines
        entries = sorted(zip(map(self.levels.__getitem__, into), into))
        ends = entries[:1] + entries[-1:]
        if out:
            ends += min(zip(out.values(), out)), max(zip(out.values(), out))
        if not ends:
            return
        low, high = bisect_left(ordered, min(ends)), bisect_right(ordered, max(ends))
        kept = [pair for pair in zip(ordered[low:high], lines[low:high]) if pair[0][1] not in out]
        render = self.render
        added = zip(entries, [render(level, nid, nodes[nid]) for level, nid in entries])
        merged = sorted([*kept, *added])  # two sorted runs; no two entries are equal
        ordered[low:high] = map(itemgetter(0), merged)
        lines[low:high] = map(itemgetter(1), merged)
        for key in [*zip(out.values(), out), *entries]:
            self.node_blocks.touch(key)

    def _link(self, dep: str, node: str) -> None:
        """Insert the pair and its line."""
        i = bisect_left(self.pairs, (dep, node))
        self.pairs.insert(i, (dep, node))
        self.edge_lines.insert(i, self.edge_line(dep, node))
        self.edge_blocks.touch((dep, node))
        self.deps[node].add(dep)
        self.users[dep].add(node)

    def _unlink(self, dep: str, node: str) -> None:
        i = bisect_left(self.pairs, (dep, node))
        del self.pairs[i], self.edge_lines[i]
        self.edge_blocks.touch((dep, node))
        self.deps[node].discard(dep)
        self.users[dep].discard(node)

    def restate(self, statuses: dict[str, str], done: set | frozenset = frozenset()) -> None:
        """Re-render the lines of the ids in ``statuses``, but ``done``, for their statuses."""
        for node, status in statuses.items():
            if node not in done:
                level = self.levels[node]
                self.node_lines[bisect_left(self.ordered, (level, node))] = self.render(
                    level, node, status)
                self.node_blocks.touch((level, node))

    def patch(self, change: Change, nodes: dict[str, str]) -> bool:
        """Patch the layout in place to the structure and statuses ``nodes`` that
        ``change`` names: the pairs of each id whose deps it lists, or that it removes,
        come and go; its new ids and each id whose level changes are placed anew.  False,
        with the layout spoilt, on a cycle."""
        levels, deps = self.levels, self.deps
        dirty = set(change.came)  # the ids whose deps may have changed
        for node, pairs in change.deps.items():
            new, old = {dep for dep, _ in pairs}, deps[node]
            if new != old:
                for dep in new - old:
                    self._link(dep, node)
                for dep in old - new:
                    self._unlink(dep, node)
                dirty.add(node)
        for node in change.removed:  # its users list their deps anew, without it
            for dep in list(deps[node]):
                self._unlink(dep, node)
            del deps[node]
            self.users.pop(node, None)
        out = {node: levels.pop(node) for node in change.removed}
        levels.update(dict.fromkeys(change.came, 0))
        before = self._relevel(dirty, nodes)
        if before is None:
            return False
        moved = {nid: level for nid, level in before.items()
                 if level != levels[nid] and nid not in change.came}
        self._move({**out, **moved}, [*change.came, *moved], nodes)
        self.restate(change.statuses, change.came.union(moved))
        return True

    def _relevel(self, dirty: set[str], nodes: dict[str, str]) -> dict[str, int] | None:
        """Re-level ``dirty`` and the users of each id whose level changes, each id once
        its waiting deps are: ids are taken in order of their last level, a topological
        order of the structure before, and each walks depth first through its deps that
        wait.  The old level of each id that changed, or None on a cycle: a dep on the
        walk, or a level past the node count."""
        levels, deps, users, level_of = self.levels, self.deps, self.users, self.level
        waiting, before, top = set(dirty), {}, len(nodes)
        queue = sorted((levels[nid], nid) for nid in dirty)  # a heap
        walk: list[str] = []  # the path down to a dep that waits
        while walk or queue:
            nid = walk.pop() if walk else heappop(queue)[1]
            if nid not in waiting:
                continue
            if not waiting.isdisjoint(deps[nid]):
                dep = next(filter(waiting.__contains__, deps[nid]))
                if dep == nid or dep in walk:
                    return None
                walk += nid, dep
                continue
            waiting.discard(nid)
            level, old = level_of(nid, nodes), levels[nid]
            if level == old:
                continue
            if level > top:
                return None
            before.setdefault(nid, old)
            levels[nid] = level
            for user in users[nid]:
                if user not in waiting:
                    waiting.add(user)
                    heappush(queue, (levels[user], user))
        return before


def _layouts(frames: list[Frame], fmt: str) -> Iterator[tuple[Frame, _Layout]]:
    """Yield each frame with the layout whose node and edge lines render it.

    The layout depends only on the edges and the node set.  A loaded delta is patched
    into the layout of the frame before it from its :class:`Change`: a status change
    re-renders the lines of the ids it names; a structure change moves only the pairs
    and ids it names and re-levels only them and the users of an id whose level
    changed.  Any other frame (a keyframe, a frame built in memory, a delta on a frame
    the layout does not show) and a structure the patch cannot take is laid out in
    full.  The layout is patched in place: its lines are read before the next frame is
    asked for.
    """
    layout = None
    for frame in frames:
        change = frame.change
        if layout is None or change is None or change.basis is not layout.states:
            layout = _Layout(frame, fmt)
        elif not (change.came or change.removed or change.deps):
            layout.restate(change.statuses)
        elif not layout.patch(change, frame.node_states):
            layout = _Layout(frame, fmt)
        layout.states = frame.node_states
        yield frame, layout


def export_trace(ledger: RunLedger, fmt: str) -> str:
    """Render every frame; deterministic ordering by (level, node id).  The text is one
    join of the layouts' joined blocks, which a frame shares with the frame before it
    wherever its lines did not change."""
    if fmt not in _FRAMING:
        raise UnsupportedFormat(f"unsupported trace format {fmt!r}")
    if not ledger.frames:
        raise LedgerError("ledger has no frames to export")
    opening, header, footer, between = _FRAMING[fmt]
    chunks = list(opening)
    for frame, layout in _layouts(ledger.frames, fmt):
        if chunks:
            chunks += between
        chunks += [header.format(frame.index, frame.plan_revision), *layout.text(), footer]
    return "\n".join([*chunks, ""])
