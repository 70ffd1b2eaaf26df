"""Shared proof plan: a dependency-ordered DAG of statements with one anchored target.

The plan is the only state that crosses agent invocations.  Each node holds an
informal statement, a proof sketch, its dependency ids and a completion status;
exactly one node carries the anchor (the original target declaration whose
signature the final proof must preserve).  All mutation goes through
:func:`apply_diff`, which applies a whole diff atomically or rejects it, and
reports the set of downstream nodes it invalidated.

Plans are immutable snapshots: ``apply_diff`` returns a new plan.  The text
serialization (``plan_to_text`` / ``plan_from_text``) is lossless and is shared
by fixture files, the run ledger and the trace exporter.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain, count, filterfalse, islice, repeat
from operator import attrgetter
from typing import Collection, Iterable, NoReturn, TypeVar

from .lexer import forbidden_words, tokenize


class PlanError(Exception):
    """Base class for plan construction and mutation errors."""


class CycleError(PlanError):
    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__("dependency cycle: " + " -> ".join(cycle))


class AnchorError(PlanError):
    pass


class DanglingDepError(PlanError):
    pass


class RejectedDiff(PlanError):
    """The diff would break a plan invariant; the plan is unchanged."""


class Status(str, Enum):
    OPEN = "open"
    FAILING = "failing"
    CLOSED = "closed"


class DiffCause(str, Enum):
    INITIAL_PLAN = "initial-plan"
    FAITHFULNESS_FAIL = "faithfulness-fail"
    MATH_FAIL = "math-fail"
    DECOMPOSITION_SPLIT = "decomposition-split"


# Statement ids appear in space-separated lists of the text format.
_ID_RE = re.compile(r"^\S+$")


def _check_id(node_id: str) -> str:
    if not isinstance(node_id, str) or not _ID_RE.match(node_id):
        raise PlanError(f"invalid statement id: {node_id!r}")
    return node_id


@dataclass(frozen=True)
class AnchorDecl:
    """The original target declaration: name, full header text, sorry body."""

    decl_name: str
    signature_text: str
    original_body: str

    def __post_init__(self) -> None:
        if not self.signature_text.strip():
            raise AnchorError("anchor signature text must be non-empty")
        if not any(word == "sorry" for _, word, _ in forbidden_words(tokenize(self.original_body))):
            raise AnchorError("anchor body must contain a sorry token")


@dataclass(frozen=True)
class PlanNode:
    """One statement of the plan."""

    node_id: str
    informal: str
    sketch: str
    deps: tuple[str, ...] = ()
    status: Status = Status.OPEN
    anchor: AnchorDecl | None = None

    def __post_init__(self) -> None:
        _check_id(self.node_id)
        object.__setattr__(self, "deps", tuple(self.deps))
        seen: set[str] = set()
        for dep in self.deps:
            _check_id(dep)
            if dep == self.node_id:
                raise PlanError(f"node {self.node_id} depends on itself")
            if dep in seen:
                raise PlanError(f"node {self.node_id} lists dep {dep} twice")
            seen.add(dep)

    @cached_property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        """The (dep, id) pairs, made once: the edges of the plans a diff makes share them."""
        return tuple(zip(self.deps, repeat(self.node_id)))

    def with_status(self, status: Status) -> PlanNode:
        return PlanNode(self.node_id, self.informal, self.sketch, self.deps, status, self.anchor)


@dataclass(frozen=True)
class NodeRewrite:
    """Replacement text/sketch/deps for an existing node; the id is stable."""

    node_id: str
    informal: str
    sketch: str
    deps: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_id(self.node_id)
        object.__setattr__(self, "deps", tuple(self.deps))


@dataclass(frozen=True)
class PlanDiff:
    adds: tuple[PlanNode, ...] = ()
    removes: tuple[str, ...] = ()
    rewrites: tuple[NodeRewrite, ...] = ()
    cause: DiffCause = DiffCause.INITIAL_PLAN

    def __post_init__(self) -> None:
        object.__setattr__(self, "adds", tuple(self.adds))
        object.__setattr__(self, "removes", tuple(self.removes))
        object.__setattr__(self, "rewrites", tuple(self.rewrites))


@dataclass(slots=True)
class Change:
    """What one step changed, by id, in the order of the plan after it: the ids whose
    status changed (``statuses``; a loaded delta maps them to its statuses) and, for a
    structure change, the new ids, the removed ids (in the order before), each id whose
    predecessor changed with the new one (``after``) and the (dep, id) pairs of each id
    whose deps changed (each None when the step names none).  A loaded delta keeps the
    frame before's statuses as ``basis``."""

    statuses: Collection[str] = ()
    came: Collection[str] = ()
    removed: Collection[str] = ()
    after: dict[str, str | None] | None = None
    deps: dict[str, list[tuple[str, str]]] | None = None
    basis: dict[str, str] | None = None


@dataclass(frozen=True)
class ProofPlan:
    """Immutable plan snapshot.  ``order`` is a topological sort of the ids.

    The ``edges`` ((dep, node) pairs in order), the anchor id, ``dependents`` (each id's
    users, copied on write) and ``position`` (each id's index in ``order``) depend only on
    the structure, so they are derived once when the plan is built and handed on by
    status-only updates.  ``change`` is the :class:`Change` of the diff that made the plan.
    ``_first_open`` is a position in ``order`` before which every id is Closed:
    :func:`next_open_statement` resumes from it and moves it on, and :func:`set_status`
    hands it on.
    """

    nodes: dict[str, PlanNode]
    order: tuple[str, ...]
    revision: int = 0
    retired: frozenset[str] = field(default_factory=frozenset)
    edges: tuple[tuple[str, str], ...] | None = field(default=None, repr=False, compare=False)
    _anchor_id: str | None = field(default=None, repr=False, compare=False)
    _first_open: int = field(default=0, repr=False, compare=False)
    dependents: dict[str, list[str]] | None = field(default=None, repr=False, compare=False)
    position: dict[str, int] | None = field(default=None, repr=False, compare=False)
    change: Change | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.edges is None:
            edges = tuple((dep, node_id) for node_id in self.order
                          for dep in self.nodes[node_id].deps)
            object.__setattr__(self, "edges", edges)
        if self._anchor_id is None:
            anchor_id = next((node_id for node_id in self.order
                              if self.nodes[node_id].anchor is not None), None)
            object.__setattr__(self, "_anchor_id", anchor_id)
        if self.dependents is None:
            object.__setattr__(self, "dependents", _dependents(self.nodes))
        if self.position is None:
            object.__setattr__(self, "position", dict(zip(self.order, count())))

    @property
    def anchor_id(self) -> str:
        if self._anchor_id is None:
            raise AnchorError("plan has no anchor node")
        return self._anchor_id

    @property
    def anchor(self) -> AnchorDecl:
        decl = self.nodes[self.anchor_id].anchor
        assert decl is not None
        return decl


def _dependents(nodes: dict[str, PlanNode]) -> dict[str, list[str]]:
    """Map node id -> ids that list it as a direct dependency."""
    dependents: dict[str, list[str]] = {node_id: [] for node_id in nodes}
    for node in nodes.values():
        for dep in node.deps:
            dependents[dep].append(node.node_id)
    return dependents


def _reach(seeds: Iterable[str], dependents: dict[str, list[str]], reached: set[str]) -> set[str]:
    """``reached`` with the ``seeds`` outside it and every id downstream of them along
    ``dependents`` that the walk meets outside it."""
    frontier = [node_id for node_id in seeds if node_id not in reached]
    reached.update(frontier)
    while frontier:
        for user in dependents[frontier.pop()]:
            if user not in reached:
                reached.add(user)
                frontier.append(user)
    return reached


def _sort(order: tuple[str, ...], at: dict[str, int], nodes: dict[str, PlanNode],
          dependents: dict[str, list[str]], gone: set[str], adds: list[str],
          broken: list[str], held: set[str]) -> tuple[tuple[str, ...], int, int]:
    """The least topological order of ``nodes`` by previous position (``at`` in
    ``order``, the adds after, in turn), and the span of it that the sort placed.

    ``order``, that order before the step, stands without the ``gone`` ids up to the
    first ``broken`` id, whose deps name an add or a later id.  Kahn's algorithm runs
    from there until the broken ids and adds are placed; the ids left follow in their
    old order.  It counts only the ``held`` ids (the broken ids' users' closure), the
    adds and the broken ids' later deps: these up front, a held id once a dep of it is
    placed.  The other ids are ready at their turn, so they run as one stream.
    """
    start = min(map(at.__getitem__, broken), default=len(order))
    keys = dict(zip(adds, count(len(order))))
    late = {dep for node_id in broken for dep in nodes[node_id].deps
            if at.get(dep, -1) >= start}.difference(held)
    held.update(late, adds)
    waiting = {node_id: len(held.intersection(nodes[node_id].deps))
               for node_id in chain(broken, late, adds)}
    pending = set(waiting)
    heap = sorted((at.get(node_id, keys.get(node_id)), node_id)
                  for node_id, left in waiting.items() if not left)
    out = list(filterfalse(gone.__contains__, islice(order, start)))
    first, placed = len(out), set()
    streamed = hi = start  # the stream ran up to ``streamed``; nothing from ``hi`` on is placed
    while pending:
        if not heap:
            unplaced = held - placed
            unplaced_dep = {node_id: next(filter(unplaced.__contains__, nodes[node_id].deps))
                            for node_id in filter(unplaced.__contains__, nodes)}
            raise cycle_from(next(iter(unplaced_dep)), unplaced_dep)
        key, node_id = heappop(heap)
        if streamed < key and streamed < len(order):
            run = len(out)
            out.extend(filterfalse(held.__contains__, filterfalse(
                gone.__contains__, islice(order, streamed, key))))
            streamed, hi = key, at[out[-1]] + 1 if len(out) > run else hi
        out.append(node_id)
        placed.add(node_id)
        pending.discard(node_id)
        hi = max(hi, key + 1) if node_id in at else hi
        for user in dependents[node_id]:
            if user in waiting:
                waiting[user] -= 1
            elif user in held:
                deps = nodes[user].deps
                waiting[user] = len(held.intersection(deps)) - len(placed.intersection(deps))
            else:
                continue
            if not waiting[user]:
                heappush(heap, (at.get(user, keys.get(user)), user))
    out += filterfalse(placed.__contains__, filter(held.__contains__, islice(order, start, hi)))
    return (*out, *filterfalse(gone.__contains__, islice(order, hi, None))), first, len(out)


def cycle_from(start: str, unplaced_dep: dict[str, str]) -> CycleError:
    """The cycle reached from ``start`` along ``unplaced_dep``: each node a topological
    pass leaves unplaced has an unplaced dep, so the walk comes back to its own path."""
    path: dict[str, int] = {}
    node_id = start
    while node_id not in path:
        path[node_id] = len(path)
        node_id = unplaced_dep[node_id]
    return CycleError(list(path)[path[node_id]:] + [node_id])


def _validate_graph(nodes: dict[str, PlanNode]) -> str:
    """Check for one anchor and no dangling deps; return the anchor id."""
    anchors = [node_id for node_id, node in nodes.items() if node.anchor is not None]
    if len(anchors) != 1:
        raise AnchorError(f"plan must have exactly one anchor, found {len(anchors)}")
    for node in nodes.values():
        for dep in node.deps:
            if dep not in nodes:
                raise DanglingDepError(f"node {node.node_id} depends on unknown {dep}")
    return anchors[0]


def create_plan(nodes: list[PlanNode] | tuple[PlanNode, ...]) -> ProofPlan:
    """Build a revision-0 plan: sorted as a diff that adds ``nodes`` to an empty plan."""
    node_map: dict[str, PlanNode] = {}
    for node in nodes:
        if node.node_id in node_map:
            raise PlanError(f"duplicate statement id {node.node_id}")
        node_map[node.node_id] = node
    anchor_id = _validate_graph(node_map)
    dependents = _dependents(node_map)
    order = _sort((), {}, node_map, dependents, set(), list(node_map), [], set(node_map))[0]
    return ProofPlan(nodes=node_map, order=order, revision=0, _anchor_id=anchor_id,
                     dependents=dependents)


def derive_change(old: ProofPlan, new: ProofPlan, named: Iterable[str] | None = None) -> Change:
    """The :class:`Change` from ``old`` to ``new``, found among the ``named`` ids, which
    hold every id it names and may hold others; among every id of both if None."""
    at, pos = old.position, new.position
    named = set(chain(old.order, new.order) if named is None else named)
    ids = sorted(filter(pos.__contains__, named), key=pos.__getitem__)
    preds = {node_id: new.order[pos[node_id] - 1] if pos[node_id] else None for node_id in ids}
    return Change(
        statuses=[node_id for node_id in ids if node_id not in at
                  or old.nodes[node_id].status is not new.nodes[node_id].status],
        came=[node_id for node_id in ids if node_id not in at],
        removed=sorted(filter(at.__contains__, named.difference(pos)), key=at.__getitem__),
        after={node_id: pred for node_id, pred in preds.items() if node_id not in at
               or pred != (old.order[at[node_id] - 1] if at[node_id] else None)},
        deps={node_id: list(new.nodes[node_id].pairs) for node_id in ids
              if new.nodes[node_id].deps != (old.nodes[node_id].deps if node_id in at else ())})


def apply_diff(plan: ProofPlan, diff: PlanDiff) -> tuple[ProofPlan, frozenset[str]]:
    """Apply ``diff`` atomically.

    Returns the new plan and the invalidated set: every surviving node whose
    statement or deps changed, plus everything downstream of a changed or
    removed node, all reset to Open.  A rewrite that only touches the sketch
    invalidates the node itself but not its dependents.  Raises
    :class:`RejectedDiff` (plan unchanged) if the result would break any
    invariant.  It reads the diff's ids, the span of the order it re-sorts and the
    invalidated ids; the new plan carries its :class:`Change`.
    """
    anchor_id = plan.anchor_id
    removes = set(diff.removes)
    if len(removes) != len(diff.removes):
        raise RejectedDiff("duplicate ids in removes")
    if anchor_id in removes:
        raise RejectedDiff("diff removes the anchored target")
    for node_id in removes:
        if node_id not in plan.nodes:
            raise RejectedDiff(f"removes unknown node {node_id}")

    rewrite_map: dict[str, NodeRewrite] = {}
    for rewrite in diff.rewrites:
        if rewrite.node_id in rewrite_map:
            raise RejectedDiff(f"node {rewrite.node_id} rewritten twice")
        if rewrite.node_id not in plan.nodes:
            raise RejectedDiff(f"rewrites unknown node {rewrite.node_id}")
        if rewrite.node_id in removes:
            raise RejectedDiff(f"node {rewrite.node_id} both removed and rewritten")
        rewrite_map[rewrite.node_id] = rewrite

    add_ids: list[str] = []
    for node in diff.adds:
        if node.node_id in plan.nodes or node.node_id in add_ids:
            raise RejectedDiff(f"added id {node.node_id} already exists")
        if node.node_id in plan.retired:
            raise RejectedDiff(f"added id {node.node_id} was retired by an earlier diff")
        if node.anchor is not None:
            raise RejectedDiff("diff adds a second anchor")
        add_ids.append(node.node_id)

    # Assemble the new node map: a copy with the diff's ids changed.
    new_nodes = dict(plan.nodes)
    for node_id in removes:
        del new_nodes[node_id]
    changed_full: set[str] = set()   # informal or deps changed
    changed_sketch: set[str] = set()  # sketch only
    faults: dict[str, PlanError] = {}
    for node_id, rewrite in rewrite_map.items():
        node = plan.nodes[node_id]
        try:
            new_nodes[node_id] = PlanNode(node_id, rewrite.informal, rewrite.sketch,
                                          rewrite.deps, node.status, node.anchor)
        except PlanError as exc:
            faults[node_id] = exc
        if rewrite.informal != node.informal or tuple(rewrite.deps) != node.deps:
            changed_full.add(node_id)
        elif rewrite.sketch != node.sketch:
            changed_sketch.add(node_id)
    if faults:  # the first in plan order, as a pass over the plan meets it
        exc = faults[next(filter(faults.__contains__, plan.nodes))]
        raise RejectedDiff(str(exc)) from exc
    for node in diff.adds:
        new_nodes[node.node_id] = node
    # Only the diff's ids can leave a dep dangling; the whole plan is read to word it.
    relinked = [node_id for node_id in changed_full
                if new_nodes[node_id].deps != plan.nodes[node_id].deps]
    linked = relinked + add_ids
    if not all(dep in new_nodes for node_id in linked for dep in new_nodes[node_id].deps) or any(
            gone in new_nodes[user].deps for gone in removes
            for user in plan.dependents[gone] if user in new_nodes):
        try:
            _validate_graph(new_nodes)
        except PlanError as exc:
            raise RejectedDiff(str(exc)) from exc

    # The dependents map, copied on write: a new list for each dep that gains or loses a user.
    dependents = {**plan.dependents, **{node_id: [] for node_id in add_ids}}
    for node_id in [*removes, *linked]:
        old = plan.nodes[node_id].deps if node_id in plan.nodes else ()
        new = new_nodes[node_id].deps if node_id in new_nodes else ()
        for dep in set(old).symmetric_difference(new).difference(removes):
            dependents[dep] = ([*dependents[dep], node_id] if dep in new else
                               [user for user in dependents[dep] if user != node_id])
    for node_id in removes:
        del dependents[node_id]

    # Invalidation: closure of changed/removed seeds over the old dependent edges,
    # restricted to survivors; sketch-only edits stay local.  The walk starts from the
    # broken ids over the new edges, which gives the sort its held ids.
    at = plan.position
    broken = [node_id for node_id in relinked if any(
        at.get(dep, len(at)) > at[node_id] for dep in new_nodes[node_id].deps)]
    held = _reach(broken, dependents, set())
    reached = _reach(changed_full | removes, plan.dependents, set(held))
    invalidated = frozenset(reached.difference(removes, add_ids).union(changed_sketch))
    try:
        order, first, end = _sort(plan.order, at, new_nodes, dependents, removes, add_ids,
                                  broken, held)
    except CycleError as exc:
        raise RejectedDiff(str(exc)) from exc

    opened = Status.OPEN  # read once: reading a member off its enum class is a descriptor call
    reset = [node_id for node_id in invalidated if new_nodes[node_id].status is not opened]
    for node_id in reset:
        new_nodes[node_id] = new_nodes[node_id].with_status(opened)
    edges = tuple(chain.from_iterable(map(attrgetter("pairs"), map(new_nodes.__getitem__, order))))
    new_plan = ProofPlan(nodes=new_nodes, order=order, revision=plan.revision + 1,
                         retired=plan.retired | removes, edges=edges, _anchor_id=anchor_id,
                         dependents=dependents)
    # An id's predecessor can change only in the span the sort placed, just after it, and
    # just after a removed id.
    after_gone = (next(filterfalse(removes.__contains__, islice(plan.order, at[gone] + 1, None)),
                       None) for gone in removes)
    named = chain(linked, reset, removes, order[first:end + 1], after_gone)
    object.__setattr__(new_plan, "change", derive_change(plan, new_plan, named))
    return new_plan, invalidated


def set_status(plan: ProofPlan, node_id: str, status: Status) -> ProofPlan:
    """Status-only update used by the run loop; structure is untouched.

    The selection cursor is handed on, except that reopening a Closed node, which
    may lie before it, moves it back to the start.
    """
    if node_id not in plan.nodes:
        raise PlanError(f"unknown node {node_id}")
    nodes = dict(plan.nodes)
    node = nodes[node_id]
    nodes[node_id] = node.with_status(status)
    reopened = node.status is Status.CLOSED and status is not Status.CLOSED
    return ProofPlan(nodes=nodes, order=plan.order, revision=plan.revision,
                     retired=plan.retired, edges=plan.edges, _anchor_id=plan._anchor_id,
                     _first_open=0 if reopened else plan._first_open,
                     dependents=plan.dependents, position=plan.position)


def next_open_statement(plan: ProofPlan) -> str | None:
    """Earliest Open/Failing node in order whose deps are all Closed.

    ``order`` is topological, so every dep of the first non-Closed node comes
    before it and is Closed.  The walk starts at the plan's cursor and leaves it
    at the id it returns, so between diffs and reopens each Closed id is passed
    once, however many selections there are.
    """
    order, nodes, at = plan.order, plan.nodes, plan._first_open
    while at < len(order) and nodes[order[at]].status is Status.CLOSED:
        at += 1
    object.__setattr__(plan, "_first_open", at)
    return order[at] if at < len(order) else None


def is_complete(plan: ProofPlan) -> bool:
    return next_open_statement(plan) is None


# ---------------------------------------------------------------------------
# Text serialization.  Line-oriented, one node per record, lossless.
# See docs/formats.md for the grammar.

# The JSON encoder and scanner of the plan text and the ledger, built once:
# ``json.dumps(value, ensure_ascii=False)`` builds this encoder on every call.
encode_json = json.JSONEncoder(ensure_ascii=False).encode
scan_json = json.JSONDecoder().scan_once  # (value, end) for the JSON value at an index
_q = encode_json  # a JSON string literal


def _statement_lines(head: str, informal: str, sketch: str, deps: tuple[str, ...]) -> list[str]:
    """A node or rewrite block up to its ``deps`` line; :func:`_statement` reads it back."""
    return [head, f"informal {_q(informal)}", f"sketch {_q(sketch)}", " ".join(("deps", *deps))]


def _node_lines(node: PlanNode, keyword: str = "node") -> list[str]:
    lines = _statement_lines(f"{keyword} {node.node_id}", node.informal, node.sketch, node.deps)
    lines.append(f"status {node.status.value}")
    if node.anchor is not None:
        a = node.anchor
        lines.append(f"anchor {_q(a.decl_name)} {_q(a.signature_text)} {_q(a.original_body)}")
    lines.append("end")
    return lines


def plan_to_text(plan: ProofPlan) -> str:
    lines = ["proofplan v1", f"revision {plan.revision}"]
    if plan.retired:
        lines.append("retired " + " ".join(sorted(plan.retired)))
    for node_id in plan.order:
        lines.extend(_node_lines(plan.nodes[node_id]))
    return "\n".join(lines) + "\n"


_E = TypeVar("_E", bound=Enum)


class LineReader:
    """Reads one of the v1 line formats (plan, diff, fixture, sim rules).

    Outside heredocs, blank lines and lines starting with ``#`` are skipped and
    lines are read stripped.  ``pos`` counts the lines consumed, so every error,
    raised as ``error`` with ``"<what> line <n>: <msg>"``, names the last line
    consumed (the line after the last one at the end of the text).
    """

    def __init__(self, text: str, what: str, error: type[Exception] = PlanError):
        # Only "\n" ends a line: str.splitlines would also split a JSON string at U+2028.
        self.lines = text.removesuffix("\n").split("\n") if text else []
        self.pos = 0
        self.what = what
        self.error = error

    def fail(self, msg: str) -> NoReturn:
        raise self.error(f"{self.what} line {self.pos}: {msg}")

    def peek(self) -> str | None:
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            if line and not line.startswith("#"):
                return line
            self.pos += 1
        return None

    def take(self) -> str:
        line = self.peek()
        self.pos += 1
        if line is None:
            self.fail(f"unexpected end of {self.what}")
        return line

    def expect(self, keyword: str) -> str:
        line = self.take()
        if line != keyword and not line.startswith(keyword + " "):
            self.fail(f"expected {keyword!r}, got {line!r}")
        return line[len(keyword):].strip()

    def header(self, name: str) -> None:
        if self.take() != f"{name} v1":
            self.fail(f"not a {name} v1 document")

    def raw_until(self, marker: str) -> str:
        """The lines after the last one consumed, as written, up to a line equal to ``marker``."""
        try:
            end = self.lines.index(marker, self.pos)
        except ValueError:
            self.fail(f"heredoc missing terminator {marker!r}")
        body = self.lines[self.pos:end]
        self.pos = end + 1
        return "".join(line + "\n" for line in body)

    def member(self, enum: type[_E], raw: str, what: str) -> _E:
        try:
            return enum(raw)
        except ValueError:
            self.fail(f"unknown {what} {raw!r}")

    def ints(self, text: str, count: int | None = None) -> list[int]:
        """The space-separated non-negative integers of ``text``, ``count`` of them if given."""
        words = text.split()
        if count not in (None, len(words)) or not all(w.isascii() and w.isdigit() for w in words):
            self.fail(f"expected {count or 'only'} non-negative integers, got {text!r}")
        return [int(word) for word in words]


def _json_fields(reader: LineReader, rest: str, count: int) -> list[str]:
    out = []
    idx = 0
    for _ in range(count):
        while idx < len(rest) and rest[idx] == " ":
            idx += 1
        try:
            value, idx = scan_json(rest, idx)
        except (StopIteration, json.JSONDecodeError):
            reader.fail(f"bad quoted field in {rest!r}")
        if not isinstance(value, str):
            reader.fail("expected string field")
        out.append(value)
    return out


def _statement(reader: LineReader) -> tuple[str, str, tuple[str, ...]]:
    """The ``informal``, ``sketch`` and ``deps`` lines of a node or rewrite block."""
    informal = _json_fields(reader, reader.expect("informal"), 1)[0]
    sketch = _json_fields(reader, reader.expect("sketch"), 1)[0]
    return informal, sketch, tuple(reader.expect("deps").split())


def _node_block(reader: LineReader, node_id: str) -> PlanNode:
    informal, sketch, deps = _statement(reader)
    status = reader.member(Status, reader.expect("status"), "status")
    anchor = None
    line = reader.take()
    if line.startswith("anchor "):
        anchor = _json_fields(reader, line[len("anchor "):], 3)
        line = reader.take()
    if line != "end":
        reader.fail(f"expected 'end', got {line!r}")
    try:
        return PlanNode(node_id, informal, sketch, deps, status, anchor and AnchorDecl(*anchor))
    except PlanError as exc:
        reader.fail(str(exc))


def plan_from_text(text: str) -> ProofPlan:
    reader = LineReader(text, "plan")
    reader.header("proofplan")
    revision = reader.ints(reader.expect("revision"), 1)[0]
    has_retired = (reader.peek() or "").startswith("retired")
    retired = frozenset(reader.expect("retired").split() if has_retired else ())
    nodes: list[PlanNode] = []
    while reader.peek() is not None:
        nodes.append(_node_block(reader, reader.expect("node")))
    plan = create_plan(nodes)
    return ProofPlan(nodes=plan.nodes, order=plan.order, revision=revision, retired=retired,
                     edges=plan.edges, _anchor_id=plan._anchor_id,
                     dependents=plan.dependents, position=plan.position)


def diff_to_text(diff: PlanDiff) -> str:
    lines = ["plandiff v1", f"cause {diff.cause.value}"]
    for node in diff.adds:
        lines.extend(_node_lines(node, "add"))
    lines.extend(f"remove {node_id}" for node_id in diff.removes)
    for r in diff.rewrites:
        lines.extend(_statement_lines(f"rewrite {r.node_id}", r.informal, r.sketch, r.deps))
        lines.append("end")
    return "\n".join(lines) + "\n"


def diff_from_text(text: str) -> PlanDiff:
    reader = LineReader(text, "diff")
    reader.header("plandiff")
    cause = reader.member(DiffCause, reader.expect("cause"), "cause")
    adds: list[PlanNode] = []
    removes: list[str] = []
    rewrites: list[NodeRewrite] = []
    while (line := reader.peek()) is not None:
        word, _, node_id = reader.take().partition(" ")
        node_id = node_id.strip()
        if word == "add":
            adds.append(_node_block(reader, node_id))
        elif word == "remove" and node_id:
            removes.append(node_id)
        elif word == "rewrite":
            informal, sketch, deps = _statement(reader)
            if reader.take() != "end":
                reader.fail("rewrite block missing 'end'")
            try:
                rewrites.append(NodeRewrite(node_id, informal, sketch, deps))
            except PlanError as exc:
                reader.fail(str(exc))
        else:
            reader.fail(f"unexpected line {line!r}")
    return PlanDiff(tuple(adds), tuple(removes), tuple(rewrites), cause)
