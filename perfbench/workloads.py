"""Workload generators for the harness benchmark.

Each generator writes the three inputs a scripted run takes (``input.lean``,
the agents fixture and the sim rule table) into a directory, and returns a
:class:`Prediction` of what the loop must do with them.  The prediction is
derived from the workload's own shape, not by running the loop, so every run,
replay and trace can be checked against it.

Fixtures are assembled through the public ``proofloop.agents`` fixture API and
serialised with ``fixture_to_text``; the run reads them back with
``load_fixture`` like the CLI does.
"""

from __future__ import annotations

import random
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from proofloop.agents import (
    CheckKind,
    CheckVerdict,
    Fixture,
    FixtureEntry,
    FixtureKey,
    LeanOutcome,
    TaskKind,
    TokenUsage,
    fixture_to_text,
)
from proofloop.plan import AnchorDecl, DiffCause, NodeRewrite, PlanDiff, PlanNode

TARGET_INPUT = "theorem Main : True := by\n  sorry\n"
TARGET_SIGNATURE = "theorem Main : True"
TARGET_BODY = ":= by\n  sorry\n"
REPLAN_LIMIT = 64  # LoopConfig's default; the replan workload is built to hit it

USAGE = {
    TaskKind.PLAN_INITIAL: TokenUsage(2400, 900, 4000, 300),
    TaskKind.PLAN_REVISE: TokenUsage(1800, 600, 3000, 200),
    TaskKind.LEAN_WORK: TokenUsage(1500, 700, 2500, 150),
    TaskKind.CHECK: TokenUsage(900, 40, 1200, 0),
}


@dataclass(frozen=True)
class Inputs:
    input_file: Path
    fixture_file: Path
    rules_file: Path


@dataclass
class Prediction:
    """What one run of a workload must produce, fixed before the run."""

    verdict: str
    reason: str | None
    statements: int
    diffs: int
    frames: int
    usage_records: int
    events: Counter = field(default_factory=Counter)  # per kind; empty means total only
    event_total: int = 0
    final_states: Counter = field(default_factory=Counter)  # last frame, by status
    fixture_entries: int = 0
    golden_trace: bytes | None = None


class _Builder:
    """Occurrence-numbered fixture assembly."""

    def __init__(self) -> None:
        self.fixture = Fixture()
        self._occ: Counter = Counter()

    def _add(self, key: FixtureKey, payload) -> None:
        self._occ[key] += 1
        self.fixture.add(FixtureEntry(key, self._occ[key], payload, USAGE[key.kind]))

    def initial(self, diff: PlanDiff) -> None:
        self._add(FixtureKey(TaskKind.PLAN_INITIAL), diff)

    def revise(self, node_id: str, diff: PlanDiff) -> None:
        self._add(FixtureKey(TaskKind.PLAN_REVISE, None, node_id), diff)

    def lean(self, node_id: str, source: str) -> None:
        self._add(FixtureKey(TaskKind.LEAN_WORK, None, node_id), LeanOutcome(source))

    def check(self, node_id: str, kind: CheckKind, passed: bool, note: str = "") -> None:
        self._add(FixtureKey(TaskKind.CHECK, kind, node_id), CheckVerdict(passed, note))


def _write(out_dir: Path, builder: _Builder, rules: str) -> Inputs:
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(out_dir / "input.lean", out_dir / "agents.fx", out_dir / "sim-rules.txt")
    inputs.input_file.write_text(TARGET_INPUT, encoding="utf-8")
    inputs.fixture_file.write_text(fixture_to_text(builder.fixture), encoding="utf-8")
    inputs.rules_file.write_text(rules, encoding="utf-8")
    return inputs


def _anchor_node(node_id: str, deps: tuple[str, ...]) -> PlanNode:
    return PlanNode(node_id, "The anchored target: True holds.",
                    "Combine the listed lemmas.", deps,
                    anchor=AnchorDecl("Main", TARGET_SIGNATURE, TARGET_BODY))


def _lemma_source(node_id: str) -> str:
    return f"theorem {node_id}_stmt (n : Nat) : n + 0 = n := by simp\n"


def _broken_source(node_id: str) -> str:
    return f"-- sim: error unknown identifier in {node_id}\n" + _lemma_source(node_id)


def _sorry_source(node_id: str) -> str:
    return f"theorem {node_id}_stmt (n : Nat) : n + 0 = n := by\n  sorry\n"


_TARGET_SOURCE = "-- sim: key generated-final\ntheorem Main : True := trivial\n"
_RULES = ("simrules v1\n"
          "# The generated target closes through this rule.\n"
          "rule generated-final\nclean true\naxioms propext\nend\n")


# ---------------------------------------------------------------------------
# burnside: the shipped replay fixture.

def burnside(root: Path, out_dir: Path) -> tuple[Inputs, Prediction]:
    """Copy the shipped fixture; its counts are those of the committed goldens."""
    src = root / "fixtures" / "burnside"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("input.lean", "agents.fx", "sim-rules.txt"):
        shutil.copyfile(src / name, out_dir / name)
    inputs = Inputs(out_dir / "input.lean", out_dir / "agents.fx", out_dir / "sim-rules.txt")
    prediction = Prediction(
        verdict="solved", reason=None, statements=32, diffs=6, frames=64,
        usage_records=325, events=Counter({"LeanAttempt": 234, "DiffApplied": 6}),
        event_total=449, final_states=Counter({"formalized": 32}), fixture_entries=325,
        golden_trace=(src / "golden" / "trace-full.txt").read_bytes(),
    )
    return inputs, prediction


# ---------------------------------------------------------------------------
# wide: N independent lemmas plus an anchor on the last three.

# Statements of the timed ``wide`` workload.  On a shared 2-vCPU VM a run at
# 400 took about 3.5 s, so a 28-second pass held six runs, and the scaled
# run_s of ten seeds spread 0.17 (interquartile range over median).  At 200 a
# run takes about a second.  The per-layer sweep still runs the shape up to 800.
WIDE_N = 200


def wide(out_dir: Path, seed: int, n: int = WIDE_N) -> tuple[Inputs, Prediction]:
    """Lemma order is a seeded permutation; n // 10 seeded lemmas fail one compile first."""
    rng = random.Random(seed)
    ids = [f"L{i:04d}" for i in range(n)]
    rng.shuffle(ids)
    failing = set(rng.sample(ids, n // 10))
    nodes = [PlanNode(node_id, f"{node_id}: n + 0 = n for every natural n.",
                      "Unfold and simplify.") for node_id in ids]
    nodes.append(_anchor_node("Main", tuple(ids[-3:])))

    builder = _Builder()
    builder.initial(PlanDiff(adds=tuple(nodes), cause=DiffCause.INITIAL_PLAN))
    for node_id in ids:
        if node_id in failing:
            builder.lean(node_id, _broken_source(node_id))
        builder.lean(node_id, _lemma_source(node_id))
        builder.check(node_id, CheckKind.FAITHFULNESS, True)
    builder.lean("Main", _TARGET_SOURCE)
    builder.check("Main", CheckKind.FAITHFULNESS, True)
    inputs = _write(out_dir, builder, _RULES)

    statements = n + 1
    attempts = statements + len(failing)
    # Every statement: attempt(s), BuildClean, faithfulness CheckPass, NodeClosed;
    # then PlanCreated up front and the audit CheckPass plus SuccessExit at the end.
    events = Counter({"PlanCreated": 1, "LeanAttempt": attempts, "BuildClean": statements,
                      "CheckPass": statements + 1, "NodeClosed": statements,
                      "SuccessExit": 1})
    prediction = Prediction(
        verdict="solved", reason=None, statements=statements, diffs=0,
        frames=1 + statements, usage_records=1 + attempts + statements,
        events=events, event_total=sum(events.values()),
        final_states=Counter({"formalized": statements}),
        fixture_entries=len(builder.fixture.entries),
    )
    return inputs, prediction


# ---------------------------------------------------------------------------
# replan: a stuck first statement that keeps splitting until the replan limit.

def replan(out_dir: Path, seed: int, n: int = 1000) -> tuple[Inputs, Prediction]:
    """A seeded DAG whose only source, S0000, is split REPLAN_LIMIT times.

    Statement i > 0 depends on one or two of the 20 statements before it (half
    of them, chosen by the seed, on two), so everything lies downstream of
    S0000.  Each round S0000 builds with a sorry, passes the math check, fails
    the decomposition check, and the revise diff adds helper Hk and points
    S0000 at every helper so far.  Every 8th diff also rewrites an earlier,
    closed helper chosen by the seed, which reopens it and removes its file.
    """
    rng = random.Random(seed)
    ids = [f"S{i:04d}" for i in range(n)]
    two_deps = set(rng.sample(range(2, n), (n - 2) // 2))
    nodes = [PlanNode(ids[0], "S0000: the stuck root statement.", "Split it.")]
    for i in range(1, n):
        window = ids[max(0, i - 20):i]
        deps = tuple(sorted(rng.sample(window, 2 if i in two_deps else 1)))
        informal = f"{ids[i]}: follows from " + ", ".join(deps) + "."
        if i == n - 1:
            nodes.append(_anchor_node(ids[i], deps))
        else:
            nodes.append(PlanNode(ids[i], informal, "Chain the dependencies.", deps))

    root = ids[0]
    builder = _Builder()
    builder.initial(PlanDiff(adds=tuple(nodes), cause=DiffCause.INITIAL_PLAN))
    helpers: list[str] = []
    reproved = 0
    for k in range(1, REPLAN_LIMIT + 1):
        builder.lean(root, _sorry_source(root))
        builder.check(root, CheckKind.MATH, True)
        builder.check(root, CheckKind.DECOMPOSITION, False, "split off one helper")
        helper = f"H{k:02d}"
        rewrites = []
        if k % 8 == 0:
            old = helpers[rng.randrange(len(helpers))]
            rewrites.append(NodeRewrite(old, f"{old}: helper lemma, restated at diff {k}.",
                                        "Prove directly.", ()))
            builder.lean(old, _lemma_source(old))
            builder.check(old, CheckKind.FAITHFULNESS, True)
            reproved += 1
        helpers.append(helper)
        rewrites.append(NodeRewrite(root, nodes[0].informal, nodes[0].sketch, tuple(helpers)))
        builder.revise(root, PlanDiff(
            adds=(PlanNode(helper, f"{helper}: helper lemma.", "Prove directly."),),
            rewrites=tuple(rewrites), cause=DiffCause.DECOMPOSITION_SPLIT))
        builder.lean(helper, _lemma_source(helper))
        builder.check(helper, CheckKind.FAITHFULNESS, True)
    # The last round fails decomposition again and hits the replan limit.
    builder.lean(root, _sorry_source(root))
    builder.check(root, CheckKind.MATH, True)
    builder.check(root, CheckKind.DECOMPOSITION, False, "split off one helper")
    inputs = _write(out_dir, builder, _RULES)

    rounds = REPLAN_LIMIT + 1
    helper_proofs = REPLAN_LIMIT + reproved
    events = Counter({
        "PlanCreated": 1,
        "LeanAttempt": rounds + helper_proofs,
        "BuildSorries": rounds,
        "CheckPass": rounds + helper_proofs,  # math passes, helper faithfulness passes
        "CheckFail": rounds,                  # decomposition fails
        "DiffApplied": REPLAN_LIMIT,
        "Restart": REPLAN_LIMIT,
        "BuildClean": helper_proofs,
        "NodeClosed": helper_proofs,
        "BudgetStop": 1,
    })
    prediction = Prediction(
        verdict="unfinished", reason="replan-limit", statements=n + REPLAN_LIMIT,
        diffs=REPLAN_LIMIT, frames=1 + REPLAN_LIMIT + helper_proofs,
        usage_records=1 + 3 * rounds + REPLAN_LIMIT + 2 * helper_proofs,
        events=events, event_total=sum(events.values()),
        final_states=Counter({"formalized": REPLAN_LIMIT, "not-yet": n}),
        fixture_entries=len(builder.fixture.entries),
    )
    return inputs, prediction


def generate(name: str, root: Path, out_dir: Path, seed: int) -> tuple[Inputs, Prediction]:
    if name == "burnside":
        return burnside(root, out_dir)
    if name == "wide":
        return wide(out_dir, seed)
    if name == "replan":
        return replan(out_dir, seed)
    raise ValueError(f"unknown workload {name!r}")
