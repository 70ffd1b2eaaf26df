"""Shared builders and independent oracles for the test suite.

The oracles here deliberately use different algorithms from the library code:
invalidation is re-derived by fixpoint scans over the edge list, depth levels
by Bellman-Ford style relaxation, costs in exact rational arithmetic, and the
forbidden-token reference scanner is a plain character automaton.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from proofloop.agents import (
    CheckKind,
    CheckVerdict,
    Fixture,
    FixtureEntry,
    FixtureKey,
    LeanOutcome,
    TaskKind,
    TokenUsage,
)
from proofloop.plan import (
    AnchorDecl,
    DiffCause,
    NodeRewrite,
    PlanDiff,
    PlanNode,
    ProofPlan,
    Status,
    create_plan,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BURNSIDE_DIR = REPO_ROOT / "fixtures" / "burnside"


def anchor_decl(name: str = "T") -> AnchorDecl:
    return AnchorDecl(name, f"theorem {name} : True", ":= by\n  sorry\n")


def mk_node(node_id: str, deps: tuple[str, ...] = (), status: Status = Status.OPEN,
            anchor: AnchorDecl | None = None, informal: str | None = None,
            sketch: str = "") -> PlanNode:
    return PlanNode(node_id, informal if informal is not None else f"statement {node_id}",
                    sketch, deps, status, anchor)


def chain_plan(ids: list[str], statuses: dict[str, Status] | None = None,
               anchor_id: str | None = None) -> ProofPlan:
    """A -> B -> C style: each node depends on the previous one."""
    statuses = statuses or {}
    anchor_id = anchor_id or ids[-1]
    nodes = []
    for i, node_id in enumerate(ids):
        deps = (ids[i - 1],) if i else ()
        nodes.append(mk_node(node_id, deps, statuses.get(node_id, Status.OPEN),
                             anchor_decl(node_id) if node_id == anchor_id else None))
    return create_plan(nodes)


# ---------------------------------------------------------------------------
# Fixture building for scripted runs.

SIMPLE_INPUT = """theorem Main : True := by
  sorry
"""


def clean_src(node_id: str, extra: str = "") -> str:
    return f"theorem {node_id}_stub : True := trivial\n{extra}"


def sorried_src(node_id: str) -> str:
    return f"theorem {node_id}_stub : True := by\n  sorry\n"


def error_src(node_id: str, i: int = 1) -> str:
    return f"-- sim: error broken {node_id} #{i}\ntheorem {node_id}_stub : True := trivial\n"


def main_clean_src(extra: str = "") -> str:
    return f"theorem Main : True := trivial\n{extra}"


def workspace_texts(ws) -> dict[str, str]:
    """The text on disk of each file of ``ws``, by relative path, as the audit's scan reads it."""
    return {rel: (ws.root_dir / rel).read_text(encoding="utf-8") for rel in ws.node_files.values()}


class FixtureBuilder:
    """Occurrence-tracking fixture assembly for synthetic runs."""

    def __init__(self) -> None:
        self.fixture = Fixture()
        self._occ: dict[tuple, int] = {}

    def _next(self, key: FixtureKey) -> int:
        occ = self._occ.get(key, 0) + 1
        self._occ[key] = occ
        return occ

    def initial(self, diff: PlanDiff) -> "FixtureBuilder":
        key = FixtureKey(TaskKind.PLAN_INITIAL)
        self.fixture.add(FixtureEntry(key, self._next(key), diff))
        return self

    def revise(self, node_id: str, diff: PlanDiff) -> "FixtureBuilder":
        key = FixtureKey(TaskKind.PLAN_REVISE, None, node_id)
        self.fixture.add(FixtureEntry(key, self._next(key), diff))
        return self

    def lean(self, node_id: str, source: str, usage: TokenUsage = TokenUsage()) -> "FixtureBuilder":
        key = FixtureKey(TaskKind.LEAN_WORK, None, node_id)
        self.fixture.add(FixtureEntry(key, self._next(key), LeanOutcome(source), usage))
        return self

    def check(self, node_id: str, kind: CheckKind, passed: bool,
              note: str = "") -> "FixtureBuilder":
        key = FixtureKey(TaskKind.CHECK, kind, node_id)
        self.fixture.add(FixtureEntry(key, self._next(key), CheckVerdict(passed, note)))
        return self


def single_node_fixture() -> Fixture:
    """One anchored statement, closed on the first clean attempt."""
    diff = PlanDiff(adds=(mk_node("Main", anchor=anchor_decl("Main")),),
                    cause=DiffCause.INITIAL_PLAN)
    builder = FixtureBuilder()
    builder.initial(diff)
    builder.lean("Main", main_clean_src())
    builder.check("Main", CheckKind.FAITHFULNESS, True)
    return builder.fixture


def splitter_fixture(cycles: int) -> Fixture:
    """A perpetually splitting run: every decomposition check votes to split."""
    builder = FixtureBuilder()
    builder.initial(PlanDiff(adds=(mk_node("Main", anchor=anchor_decl("Main")),),
                             cause=DiffCause.INITIAL_PLAN))
    current = "Main"
    for i in range(1, cycles + 1):
        helper = f"H{i}"
        builder.lean(current, sorried_src(current))
        builder.check(current, CheckKind.MATH, True)
        builder.check(current, CheckKind.DECOMPOSITION, False, "split")
        node = mk_node(helper)
        rewrite = NodeRewrite(current, f"statement {current}", "", (helper,))
        builder.revise(current, PlanDiff(adds=(node,), rewrites=(rewrite,),
                                         cause=DiffCause.DECOMPOSITION_SPLIT))
        current = helper
    builder.lean(current, sorried_src(current))
    builder.check(current, CheckKind.MATH, True)
    builder.check(current, CheckKind.DECOMPOSITION, False, "split")
    return builder.fixture


def replan_fixture(statements: int, splits: int) -> Fixture:
    """A chain-like DAG whose only source, S0, is split ``splits`` times.

    Statement i > 0 depends on S(i-1), and every third one also on S(i-2).
    Each round S0 builds with a sorry, passes the math check and fails the
    decomposition check; the diff adds helper Xk, points S0 at every helper so
    far, and the helper then closes.  Every third diff also restates the
    previous helper, which reopens and closes again.  The last round hits the
    replan limit when the run is configured with ``replan_limit=splits``.
    """
    ids = [f"S{i}" for i in range(statements)]
    nodes = [mk_node(ids[0])]
    for i in range(1, statements):
        deps = (ids[i - 1],) + ((ids[i - 2],) if i % 3 == 0 and i > 1 else ())
        anchor = anchor_decl("Main") if i == statements - 1 else None
        nodes.append(mk_node(ids[i], deps, anchor=anchor))
    builder = FixtureBuilder()
    builder.initial(PlanDiff(adds=tuple(nodes), cause=DiffCause.INITIAL_PLAN))
    helpers: list[str] = []
    for k in range(1, splits + 2):
        builder.lean(ids[0], sorried_src(ids[0]))
        builder.check(ids[0], CheckKind.MATH, True)
        builder.check(ids[0], CheckKind.DECOMPOSITION, False, "split")
        if k > splits:
            break
        rewrites = []
        if k % 3 == 0:
            rewrites.append(NodeRewrite(helpers[-1], f"restated {helpers[-1]}", "", ()))
            builder.lean(helpers[-1], clean_src(helpers[-1]))
            builder.check(helpers[-1], CheckKind.FAITHFULNESS, True)
        helpers.append(f"X{k}")
        rewrites.append(NodeRewrite(ids[0], f"statement {ids[0]}", "", tuple(helpers)))
        builder.revise(ids[0], PlanDiff(adds=(mk_node(helpers[-1]),), rewrites=tuple(rewrites),
                                        cause=DiffCause.DECOMPOSITION_SPLIT))
        builder.lean(helpers[-1], clean_src(helpers[-1]))
        builder.check(helpers[-1], CheckKind.FAITHFULNESS, True)
    return builder.fixture


# ---------------------------------------------------------------------------
# Independent oracles.

def oracle_invalidated(plan: ProofPlan, diff: PlanDiff) -> set[str]:
    """Fixpoint recomputation of the invalidated set over the OLD edge list."""
    edges = [(dep, node_id) for node_id, node in plan.nodes.items() for dep in node.deps]
    seeds: set[str] = set(diff.removes)
    self_only: set[str] = set()
    for rewrite in diff.rewrites:
        old = plan.nodes[rewrite.node_id]
        if rewrite.informal != old.informal or tuple(rewrite.deps) != old.deps:
            seeds.add(rewrite.node_id)
        elif rewrite.sketch != old.sketch:
            self_only.add(rewrite.node_id)
    reached = set(seeds)
    changed = True
    while changed:
        changed = False
        for dep, user in edges:
            if dep in reached and user not in reached:
                reached.add(user)
                changed = True
    survivors = set(plan.nodes) - set(diff.removes)
    return (reached | self_only) & survivors


def oracle_order(nodes: dict[str, PlanNode], sort_key: dict[str, int]) -> tuple[str, ...]:
    """The topological order that takes, at each step, the unplaced node of least
    ``sort_key`` whose deps are all placed; a cycle leaves it short of ``nodes``."""
    placed: list[str] = []
    while True:
        ready = [node_id for node_id, node in nodes.items()
                 if node_id not in placed and all(dep in placed for dep in node.deps)]
        if not ready:
            return tuple(placed)
        placed.append(min(ready, key=sort_key.__getitem__))


def oracle_delta(previous, frame) -> dict:
    """The frame record of ``frame`` after ``previous`` by comparing the two frames
    whole, as docs/formats.md "Ledger version 3" defines a delta: the new ids and
    changed statuses in node order, then, when not empty, the removed ids in the old
    order, each id whose predecessor changed and each id whose deps changed."""
    record = {"rec": "frame", "index": frame.index, "revision": frame.plan_revision}
    if previous is None:
        return {**record, "nodes": dict(frame.node_states),
                "edges": [list(edge) for edge in frame.edges]}
    old, new = previous.node_states, frame.node_states
    old_pred = dict(zip(old, [None, *old]))
    new_pred = dict(zip(new, [None, *new]))

    def deps_of(edges, node_id):
        return [dep for dep, node in edges if node == node_id]

    changes = {
        "nodes": {nid: status for nid, status in new.items() if old.get(nid) != status},
        "removed": [nid for nid in old if nid not in new],
        "after": {nid: pred for nid, pred in new_pred.items()
                  if nid not in old_pred or old_pred[nid] != pred},
        "deps": {nid: deps_of(frame.edges, nid) for nid in new
                 if deps_of(frame.edges, nid) != deps_of(previous.edges, nid)},
    }
    return {**record, **{key: value for key, value in changes.items()
                         if value or key == "nodes"}}


def oracle_levels(node_ids: list[str], edges: list[tuple[str, str]]) -> dict[str, int]:
    """Longest path from sources by relaxation until fixpoint."""
    levels = {node: 0 for node in node_ids}
    for _ in range(len(node_ids) + 1):
        moved = False
        for dep, node in edges:
            if levels[node] < levels[dep] + 1:
                levels[node] = levels[dep] + 1
                moved = True
        if not moved:
            return levels
    raise AssertionError("relaxation did not converge; graph is cyclic")


def oracle_closed_cycle(cycle: list[str], deps: dict[str, tuple[str, ...]]) -> bool:
    """True iff ``cycle`` walks distinct nodes back to its first one, each step from a
    node to one of its ``deps``."""
    return (len(cycle) >= 2 and cycle[0] == cycle[-1] and len(set(cycle)) == len(cycle) - 1
            and all(step in deps.get(node, ()) for node, step in zip(cycle, cycle[1:])))


def oracle_cost(counts, rates) -> Fraction:
    """USD for token counts at USD-per-million rates, exactly, rounded half up to cents."""
    exact = sum(Fraction(count) * Fraction(str(rate)) for count, rate in zip(counts, rates))
    return Fraction(math.floor(exact / 10_000 + Fraction(1, 2)), 100)  # in cents: * 100 / 1e6


def oracle_ledger_records(path: Path) -> tuple[list[dict], str | None]:
    """The records of a ledger file read line by line with ``json.loads``, up to the
    first fault, and the text of that fault (None if there is none).

    Lines end as a file opened in text mode ends them: at ``\n``, ``\r\n`` or a lone
    ``\r``, never at U+2028 or U+0085.  A line that is all whitespace is skipped.  A line
    ``json.loads`` refuses is a fault only once another line that is not blank follows
    it; a line that holds a value other than an object is a fault at once.
    """
    text = path.read_bytes().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    pieces = text.split("\n")
    lines = [piece + "\n" for piece in pieces[:-1]] + ([pieces[-1]] if pieces[-1] else [])
    records: list[dict] = []
    refused = None
    for number, line in enumerate(lines, 1):
        if line.isspace():
            continue
        if refused is not None:
            return records, refused
        try:
            value = json.loads(line)
        except json.JSONDecodeError as exc:
            refused = f"{path}: line {number} is not a JSON record: {exc}"
            continue
        if not isinstance(value, dict):
            return records, f"{path}: line {number} is not a JSON object"
        records.append(value)
    return records, None


def expand_deltas(records: list[dict]) -> list[dict]:
    """The ledger records with every delta frame written out as the full frame it
    stands for, as a version 1 writer records it.

    A delta keeps the previous frame's order and edges unless it changes the
    structure.  Then its node order is found by looking up, one step at a time,
    the one id that follows the last one placed, and its edges list each id's deps
    in that order, the listed ``deps`` in place of the previous frame's.  A frame
    that lists one (dep, node) pair twice stands for no plan.
    """
    out: list[dict] = []
    full: dict | None = None
    for record in records:
        if record.get("rec") == "frame" and "edges" not in record:
            assert full is not None, "a delta with no frame before it"
            nodes = {**full["nodes"], **record["nodes"]}
            order, edges = list(full["nodes"]), full["edges"]
            if record.keys() & {"removed", "after", "deps"}:
                removed = record.get("removed", [])
                gone = set(removed)
                assert len(gone) == len(removed) and not gone & record["nodes"].keys(), \
                    f"frame {record['index']}: a delta that removes an id twice or lists it again"
                before = dict(zip(order, [None] + order))
                before.update(record.get("after", {}))
                order = [None]
                while len(order) <= len(nodes) - len(removed):
                    order.append(next(nid for nid, pred in before.items()
                                      if pred == order[-1] and nid not in removed))
                del order[0]
                deps: dict = {nid: [] for nid in nodes}
                for dep, nid in edges:
                    deps[nid].append(dep)
                deps.update(record.get("deps", {}))
                edges = [[dep, nid] for nid in order for dep in deps[nid]]
            record = {"rec": "frame", "index": record["index"], "revision": record["revision"],
                      "nodes": {nid: nodes[nid] for nid in order}, "edges": edges}
        if record.get("rec") == "frame":
            pairs = [tuple(edge) for edge in record["edges"]]
            assert len(set(pairs)) == len(pairs), f"frame {record['index']}: a pair listed twice"
            full = record
        out.append(record)
    return out


def oracle_frames(records: list[dict]) -> list[SimpleNamespace]:
    """The frames a ledger's records stand for, read without the ledger module:
    every frame record of ``expand_deltas(records)``, its edges as tuples."""
    return [SimpleNamespace(index=r["index"], plan_revision=r["revision"], node_states=r["nodes"],
                            edges=[tuple(edge) for edge in r["edges"]])
            for r in expand_deltas(records) if r.get("rec") == "frame"]


def oracle_delta_accepted(previous: dict, delta: dict) -> bool:
    """Whether a reader accepts ``delta`` on the full frame record ``previous``, by the
    rules of docs/formats.md "Ledger version 3", one rule at a time.  The keys are
    assumed to hold the JSON types the rules ask for.

    The node order is walked by scanning, at each step, every id for those that
    follow the last one placed: exactly one must.
    """
    old, nodes = list(previous["nodes"]), delta["nodes"]
    removed, after = delta.get("removed", []), delta.get("after", {})
    if any(nid not in old for nid in removed):
        return False
    if len(set(removed)) < len(removed) or any(nid in nodes for nid in removed):
        return False
    ids = [nid for nid in old if nid not in removed] + [nid for nid in nodes if nid not in old]
    if any(nid not in ids for nid in after) or any(nid not in after for nid in nodes
                                                   if nid not in old):
        return False
    pred = dict(zip(old, [None] + old))
    pred.update(after)
    last = None
    for _ in ids:
        following = [nid for nid in ids if pred[nid] == last]
        if len(following) != 1:
            return False
        last = following[0]
    deps = {nid: [dep for dep, node in previous["edges"] if node == nid] for nid in ids}
    if any(nid not in ids for nid in delta.get("deps", {})):
        return False
    if any(len(set(listed)) < len(listed) for listed in delta.get("deps", {}).values()):
        return False
    deps.update(delta.get("deps", {}))
    return all(dep in ids for nid in ids for dep in deps[nid])


_ORACLE_COLORS = {"formalized": "#3B5B92", "not-yet": "#B4B7BD", "failing": "#B65F45"}


def oracle_trace(frames, fmt: str) -> str:
    """Render each frame on its own from docs/formats.md, with relaxation levels.

    Levels count only edges between nodes of the frame; every edge is listed.
    """
    blocks = []
    for frame in frames:
        inside = [(dep, node) for dep, node in frame.edges
                  if dep in frame.node_states and node in frame.node_states]
        levels = oracle_levels(list(frame.node_states), inside)
        nodes = sorted(frame.node_states, key=lambda node: (levels[node], node))
        edges = sorted(frame.edges)
        if fmt == "text":
            block = [f"frame {frame.index} revision {frame.plan_revision}"]
            block += [f"  {levels[n]} {n} {frame.node_states[n]}" for n in nodes]
            block += [f"  edge {dep} {node}" for dep, node in edges]
            blocks.append("\n".join(block + ["end"]))
        else:
            block = [f"digraph frame{frame.index} {{", "  rankdir=BT;",
                     "  node [shape=box, style=filled];"]
            for n in nodes:
                status = frame.node_states[n]
                block.append(f'  "{n}" [class="{status}", fillcolor="{_ORACLE_COLORS[status]}",'
                             f' label="{n}\\nL{levels[n]}"];')
            block += [f'  "{dep}" -> "{node}";' for dep, node in edges]
            blocks.append("\n".join(block + ["}"]))
    if fmt == "text":
        return "\n".join(["prooftrace v1"] + blocks) + "\n"
    return "\n\n".join(blocks) + "\n"


def _oracle_letter_like(ch: str) -> bool:
    cp = ord(ch)
    return ((0x3B1 <= cp <= 0x3C9 and cp != 0x3BB) or (0x391 <= cp <= 0x3A9 and cp not in (0x3A0, 0x3A3))
            or 0x3CA <= cp <= 0x3FB or 0x1F00 <= cp <= 0x1FFE or 0x2100 <= cp <= 0x214F
            or 0x1D49C <= cp <= 0x1D59F)


def _oracle_id_first(ch: str) -> bool:
    return ch.isascii() and (ch.isalpha() or ch == "_") or _oracle_letter_like(ch)


def _oracle_id_rest(ch: str) -> bool:
    cp = ord(ch)
    return (_oracle_id_first(ch) or ch in "0123456789'" or 0x2080 <= cp <= 0x2089
            or 0x2090 <= cp <= 0x209C or 0x1D62 <= cp <= 0x1D6A)


def _oracle_name_part(text: str, i: int) -> int:
    """End of the identifier part starting at ``i``, or -1 if none starts there."""
    n = len(text)
    if i < n and text[i] == "«":
        close = text.find("»", i + 1)
        return -1 if close < 0 else close + 1
    if i < n and _oracle_id_first(text[i]):
        i += 1
        while i < n and _oracle_id_rest(text[i]):
            i += 1
        return i
    return -1


def _oracle_char_literal(text: str, i: int) -> int:
    """End of the char literal opening at ``text[i] == "'"``, or -1 if none does."""
    n = len(text)
    if i + 1 >= n:
        return -1
    if text[i + 1] != "\\":
        ends = [i + 2]
    else:
        j = i + 2
        ends = []
        if text.startswith("u{", j):
            k = j + 2
            while k < n and text[k] in "0123456789abcdefABCDEF":
                k += 1
            if k < n and text[k] == "}":
                ends.append(k + 1)
        for letter, width in (("u", 4), ("x", 2)):
            digits = text[j + 1:j + 1 + width]
            if (text.startswith(letter, j) and len(digits) == width
                    and all(d in "0123456789abcdefABCDEF" for d in digits)):
                ends.append(j + 1 + width)
        if j < n:
            ends.append(j + 1)
    for end in ends:
        if end < n and text[end] == "'":
            return end + 1
    return -1


def _oracle_raw_hashes(text: str, i: int) -> int:
    """How many ``#`` the raw string opening at ``text[i] == "r"`` uses, or -1 if none opens."""
    hashes = 0
    while text.startswith("#", i + 1 + hashes):
        hashes += 1
    return hashes if text.startswith('"', i + 1 + hashes) else -1


def _oracle_walk(text: str, filename: str, in_part: bool) -> tuple[list, int, bool]:
    """Read ``text`` as code: the forbidden hits, where reading stopped, and whether
    the text ends inside an open block comment or string.

    With ``in_part`` the text is the rest of an interpolation part, and reading
    stops at the ``}`` that closes it (braces count only in code).
    """
    forbidden = ("sorry", "admit", "axiom")
    hits = []
    n = len(text)
    i = 0
    line = 1
    braces = 0
    left_open = False
    while i < n:
        ch = text[i]
        start = i
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith("/-", i):
            depth = 1
            i += 2
            while i < n and depth:
                if text.startswith("/-", i):
                    depth += 1
                    i += 2
                elif text.startswith("-/", i):
                    depth -= 1
                    i += 2
                else:
                    i += 1
            left_open = depth > 0
        elif ch == "r" and _oracle_raw_hashes(text, i) >= 0:
            close = '"' + "#" * _oracle_raw_hashes(text, i)
            end = text.find(close, i + len(close) + 1)
            i = n if end < 0 else end + len(close)
            left_open = end < 0
        elif ch == '"':
            close = i + 1
            while close < n and text[close] != '"':
                close += 2 if text[close] == "\\" else 1
            stop = min(close, n)
            j = i + 1
            while j < stop:  # each unescaped { opens a part that is read as code
                if text[j] == "{":
                    part_hits, used, _ = _oracle_walk(text[j + 1:stop], filename, True)
                    first = line + text.count("\n", start, j + 1) - 1
                    hits += [(word, name, first + at) for word, name, at in part_hits]
                    j += used + 2
                else:
                    j += 2 if text[j] == "\\" else 1
            i = close + 1 if close < n else n
            left_open = close >= n
        elif ch == "'":
            end = _oracle_char_literal(text, i)
            i = i + 1 if end < 0 else end
        elif _oracle_name_part(text, i) >= 0:
            i = _oracle_name_part(text, i)
            while i < n and text[i] == "." and _oracle_name_part(text, i + 1) >= 0:
                i = _oracle_name_part(text, i + 1)
            name = text[start:i].replace("«", "").replace("»", "")
            parts = name.split(".")
            if name == "debug.skipKernelTC":
                hits.append((name, filename, line))
            else:
                for part in parts:
                    if part in forbidden:
                        hits.append((part, filename, line))
                        break
        elif in_part and ch in "{}":
            braces += 1 if ch == "{" else -1
            if braces < 0:
                return hits, i, False
            i += 1
        else:
            i += 1
        line += text.count("\n", start, i)
    return hits, i, left_open


def oracle_scan(text: str, filename: str = "<memory>") -> list[tuple[str, str, int]]:
    """Character automaton reference for the forbidden-token scanner.

    Covers line and nested block comments, strings with escapes, raw strings
    with any number of ``#``, char literals, ``«»`` names and dotted Lean
    identifiers; ``!`` and ``?`` end an identifier.  An identifier is flagged
    once: as ``debug.skipKernelTC``, or for its first dot-separated part that
    is a forbidden word, with ``«»`` removed.  Each ``{…}`` part of a ``"…"``
    string is read as code, up to its closing brace or the end of the string.
    """
    return _oracle_walk(text, filename, False)[0]


def oracle_unterminated(text: str) -> bool:
    """True if ``text`` ends inside a block comment or string that never closes."""
    return _oracle_walk(text, "<memory>", False)[2]


# ---------------------------------------------------------------------------
# Random generators (seeded by callers).

def random_dag_plan(rng: random.Random, max_nodes: int = 50) -> ProofPlan:
    count = rng.randint(2, max_nodes)
    ids = [f"n{i}" for i in range(count)]
    nodes = []
    for i, node_id in enumerate(ids):
        pool = ids[:i]
        deps = tuple(sorted(rng.sample(pool, rng.randint(0, min(len(pool), 4)))))
        is_anchor = i == count - 1
        status = rng.choice([Status.OPEN, Status.FAILING, Status.CLOSED])
        nodes.append(mk_node(node_id, deps, status,
                             anchor_decl(node_id) if is_anchor else None))
    order = list(range(count))
    rng.shuffle(order)
    return create_plan([nodes[i] for i in order])


def random_diff(rng: random.Random, plan: ProofPlan) -> PlanDiff:
    ids = list(plan.order)
    anchor = plan.anchor_id
    removable = [node_id for node_id in ids if node_id != anchor]
    removes = tuple(sorted(rng.sample(removable, rng.randint(0, min(2, len(removable))))))
    survivors = [node_id for node_id in ids if node_id not in removes]
    position = {node_id: i for i, node_id in enumerate(plan.order)}

    rewrites: dict[str, NodeRewrite] = {}
    # First fix the dangling deps left by removals.
    for node_id in survivors:
        node = plan.nodes[node_id]
        if any(dep in removes for dep in node.deps):
            deps = tuple(dep for dep in node.deps if dep not in removes)
            rewrites[node_id] = NodeRewrite(node_id, node.informal, node.sketch, deps)
    # Then some free-choice rewrites with random change flags.
    for node_id in rng.sample(survivors, rng.randint(0, min(3, len(survivors)))):
        if node_id in rewrites:
            continue
        node = plan.nodes[node_id]
        informal = node.informal
        sketch = node.sketch
        deps = tuple(dep for dep in node.deps if dep not in removes)
        mode = rng.choice(["informal", "sketch", "deps", "none"])
        if mode == "informal":
            informal += " (edited)"
        elif mode == "sketch":
            sketch += " (edited)"
        elif mode == "deps":
            earlier = [e for e in survivors if position[e] < position[node_id]]
            deps = tuple(sorted(rng.sample(earlier, rng.randint(0, min(len(earlier), 3)))))
        rewrites[node_id] = NodeRewrite(node_id, informal, sketch, deps)

    adds = []
    add_count = rng.randint(0, 2)
    for i in range(add_count):
        node_id = f"a{plan.revision}_{i}"
        pool = survivors + [a.node_id for a in adds]
        deps = tuple(sorted(rng.sample(pool, rng.randint(0, min(len(pool), 3)))))
        adds.append(mk_node(node_id, deps))
    return PlanDiff(tuple(adds), removes, tuple(rewrites.values()),
                    DiffCause.DECOMPOSITION_SPLIT)


def random_split_diff(rng: random.Random, plan: ProofPlan) -> PlanDiff:
    """A diff shaped like a split: it adds helpers and points rewrites at them and at
    later ids, so the order must be re-sorted; now and then a rewrite closes a cycle,
    and now and then an id is removed, its users rewritten to drop it."""
    ids = list(plan.order)
    anchor = plan.anchor_id
    removable = [node_id for node_id in ids if node_id != anchor]
    removes = tuple(rng.sample(removable, rng.randint(0, min(1, len(removable)))))
    survivors = [node_id for node_id in ids if node_id not in removes]
    adds: list[PlanNode] = []
    for i in range(rng.randint(0, 3)):
        pool = survivors + [node.node_id for node in adds]
        deps = tuple(rng.sample(pool, rng.randint(0, min(len(pool), 2))))
        adds.append(mk_node(f"h{plan.revision}_{i}", deps))
    rewrites: dict[str, NodeRewrite] = {}
    for node_id in survivors:
        node = plan.nodes[node_id]
        if any(dep in removes for dep in node.deps):
            deps = tuple(dep for dep in node.deps if dep not in removes)
            rewrites[node_id] = NodeRewrite(node_id, node.informal, node.sketch, deps)
    for node_id in rng.sample(survivors, rng.randint(1, min(3, len(survivors)))):
        node = plan.nodes[node_id]
        deps = [dep for dep in node.deps if dep not in removes]
        at = ids.index(node_id)
        later = [other for other in ids[at + 1:] if other not in removes]
        pool = later + [add.node_id for add in adds]
        for dep in rng.sample(pool, rng.randint(0, min(len(pool), 2))):
            if dep not in deps:
                deps.insert(rng.randint(0, len(deps)), dep)
        rewrites[node_id] = NodeRewrite(node_id, node.informal + " (split)", node.sketch,
                                        tuple(deps))
    return PlanDiff(tuple(adds), removes, tuple(rewrites.values()), DiffCause.DECOMPOSITION_SPLIT)


LEAN_WORDS = ["sorry", "admit", "axiom", "sorryFree", "unsorry", "sorry'", "axiom_of_choice",
              "admitted", "theorem", "foo", "rfl", "x1", "αsorry", "sorry?", "sorry!", "sorry₁",
              "x.sorry", "sorry.x", "«sorry»", "«a b».admit", "debug.skipKernelTC", "λsorry",
              "2sorry", "h'", "r"]
LEAN_LITERALS = ["'\"'", "'\\''", "'\\u{22}'", "'\\x22'", "'a'", "'\\\\'", "r\"sorry\"",
                 'r#"a"b sorry"#', 'r##"x"#sorry"##', '"a\\" sorry"', '"\\\\"',
                 's!"{(sorry : Nat)}"', '"a {x} sorry"', '"\\{sorry}"', '"{ \'}\' ++ admit }"',
                 '"{ /- } -/ sorry}"', '"{f {a} axiom} sorry"', '"}{sorry"', '"{\\"sorry\\"}"',
                 'r"{sorry}"', 'm!"a\n{b\nsorry}"']


def plant_declarations(rng: random.Random, files: dict[str, str], name: str,
                       count: int) -> list[tuple[str, str]]:
    """Insert ``count`` declarations of ``name`` into random files of ``files``, in place,
    each on lines of its own and half of them inside a ``namespace`` block; return
    ``(file, qualified name)`` for each.  A declaration goes in only at a line start whose
    prefix :func:`oracle_unterminated` finds closed, so it is code, and the text after it
    reads as before; the lexer's declaration reader is not consulted."""
    cuts = {rel: [0] + [at + 1 for at, char in enumerate(text)
                        if char == "\n" and not oracle_unterminated(text[:at + 1])]
            for rel, text in files.items()}
    chosen: list[tuple[str, int, str]] = []
    planted = []
    for k in range(count):
        rel = rng.choice(sorted(files))
        declaration, qualified = f"theorem {name} : True := trivial\n", name
        if rng.random() < 0.5:
            declaration = f"namespace N{k}\n{declaration}end N{k}\n"
            qualified = f"N{k}.{name}"
        chosen.append((rel, rng.choice(cuts[rel]), declaration))
        planted.append((rel, qualified))
    for rel, cut, declaration in sorted(chosen, key=lambda item: -item[1]):
        files[rel] = files[rel][:cut] + declaration + files[rel][cut:]
    return planted


def random_lean_file(rng: random.Random) -> str:
    """Token soup mixing keywords, lookalikes, comments, strings (some interpolated) and literals."""
    words = LEAN_WORDS
    pieces: list[str] = []
    for _ in range(rng.randint(5, 60)):
        roll = rng.random()
        if roll < 0.45:
            pieces.append(rng.choice(words))
            pieces.append(rng.choice([" ", " ", "\n", " (", ") ", ".", ", "]))
        elif roll < 0.55:
            pieces.append("-- " + " ".join(rng.choices(words, k=rng.randint(1, 4))) + "\n")
        elif roll < 0.67:
            inner = " ".join(rng.choices(words, k=rng.randint(1, 4)))
            if rng.random() < 0.4:
                inner += " /- " + rng.choice(words) + " -/ "
            pieces.append("/- " + inner + " -/")
        elif roll < 0.79:
            body = " ".join(rng.choices(words, k=rng.randint(1, 3)))
            if rng.random() < 0.3:
                body += "\\\" " + rng.choice(words)
            if rng.random() < 0.2:
                body += "\\\\"
            if rng.random() < 0.3:  # an interpolation part, maybe with nesting or left open
                part = " ".join(rng.choices(words + ["{", "}", "'}'", "/- } -/"], k=rng.randint(1, 4)))
                body += rng.choice(["{", "{", "\\{"]) + part + rng.choice(["}", "}", ""])
            pieces.append(rng.choice(['"', '"', 's!"']) + body + '"')
        elif roll < 0.92:
            pieces.append(rng.choice(LEAN_LITERALS) + rng.choice([" ", "\n", ""]))
        else:
            pieces.append("\n")
    if rng.random() < 0.1:
        pieces.append("/- unterminated " + rng.choice(words))
    if rng.random() < 0.1:
        pieces.append('"unterminated ' + rng.choice(words))
    if rng.random() < 0.1:
        pieces.append('r#"unterminated ' + rng.choice(words))
    return "".join(pieces)
