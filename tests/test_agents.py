import dataclasses
import json

import pytest

from helpers import anchor_decl, mk_node, single_node_fixture
from proofloop.agents import (
    TOKEN_CLASSES,
    AgentError,
    AgentTask,
    CheckKind,
    CheckVerdict,
    Fixture,
    FixtureEntry,
    FixtureKey,
    FixtureMiss,
    FixtureParse,
    LeanOutcome,
    LocalContext,
    MalformedResponse,
    ScriptedBackend,
    TaskKind,
    TokenUsage,
    UnknownNode,
    assemble_context,
    fixture_to_text,
    invoke,
    parse_fixture,
)
from proofloop.plan import DiffCause, PlanDiff, create_plan


def burnside_like_plan():
    return create_plan([
        mk_node("t1", ("h2", "h3"), anchor=anchor_decl("t1"), sketch="target sketch"),
        mk_node("h2", sketch="secret sketch h2"),
        mk_node("h3", ("h2",), sketch="secret sketch h3"),
    ])


class TestAssembleContext:
    def test_target_context_carries_anchor_and_dep_statements(self):
        plan = burnside_like_plan()
        ctx = assemble_context(plan, "t1")
        assert ctx.anchor_signature == plan.anchor.signature_text
        assert ctx.dep_statements == (("h2", "statement h2"), ("h3", "statement h3"))
        assert ctx.statement == "statement t1"
        assert ctx.sketch == "target sketch"

    def test_leaf_node_has_empty_deps_and_no_anchor(self):
        plan = burnside_like_plan()
        ctx = assemble_context(plan, "h2")
        assert ctx.dep_statements == ()
        assert ctx.anchor_signature is None

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            assemble_context(burnside_like_plan(), "ghost")

    def test_faithfulness_context_is_source_and_statement_only(self):
        plan = burnside_like_plan()
        ctx = assemble_context(plan, "h3", lean_source="theorem x := y",
                               build_errors="err", check_kind=CheckKind.FAITHFULNESS)
        assert ctx.lean_source == "theorem x := y"
        assert ctx.statement == "statement h3"
        assert ctx.sketch == ""
        assert ctx.dep_statements == ()
        assert ctx.build_errors is None
        assert ctx.anchor_signature is None

    def test_math_and_decomposition_contexts_include_build_errors(self):
        plan = burnside_like_plan()
        for kind in (CheckKind.MATH, CheckKind.DECOMPOSITION):
            ctx = assemble_context(plan, "h3", lean_source="src", build_errors="boom",
                                   check_kind=kind)
            assert ctx.build_errors == "boom"
            assert ctx.sketch == ""

    def test_check_contexts_never_leak_other_sketches(self):
        plan = burnside_like_plan()
        for kind in CheckKind:
            ctx = assemble_context(plan, "h3", lean_source="src", check_kind=kind)
            blob = json.dumps(dataclasses.asdict(ctx))
            assert "secret sketch h2" not in blob
            assert "secret sketch h3" not in blob
            assert "target sketch" not in blob


class TestEnvelopeValidation:
    def test_check_tasks_require_exactly_one_check_kind(self):
        with pytest.raises(AgentError):
            AgentTask(TaskKind.CHECK, LocalContext())
        with pytest.raises(AgentError):
            AgentTask(TaskKind.LEAN_WORK, LocalContext(), check_kind=CheckKind.MATH)
        AgentTask(TaskKind.CHECK, LocalContext(), check_kind=CheckKind.MATH)

    def test_payload_kind_mismatch_rejected_for_every_kind(self):
        payloads = {
            TaskKind.PLAN_INITIAL: PlanDiff(cause=DiffCause.INITIAL_PLAN),
            TaskKind.PLAN_REVISE: PlanDiff(cause=DiffCause.MATH_FAIL),
            TaskKind.LEAN_WORK: LeanOutcome("src"),
            TaskKind.CHECK: CheckVerdict(True),
        }

        class AnswerWith:
            def __init__(self, payload):
                self.payload = payload

            def invoke(self, task):
                return self.payload, TokenUsage()

        for kind in TaskKind:
            task = task_for(kind, "n", CheckKind.MATH if kind is TaskKind.CHECK else None)
            payload, _, _ = invoke(AnswerWith(payloads[kind]), task)
            assert payload is payloads[kind]
            for payload in (*payloads.values(), "text", None):
                if type(payload) is not type(payloads[kind]):
                    with pytest.raises(MalformedResponse, match=kind.value):
                        invoke(AnswerWith(payload), task)

    def test_negative_usage_rejected(self):
        with pytest.raises(AgentError):
            TokenUsage(prompt=-1)

    @pytest.mark.parametrize("count", [1.5, True, "7", -1, None])
    def test_a_count_is_a_non_negative_int_in_every_class(self, count):
        for name in TOKEN_CLASSES:
            with pytest.raises(AgentError, match=f"token count for {name}"):
                TokenUsage(**{name: count})


def task_for(kind: TaskKind, node_id: str | None = None,
             check: CheckKind | None = None) -> AgentTask:
    return AgentTask(kind, LocalContext(node_id=node_id), check_kind=check,
                     cause=DiffCause.MATH_FAIL if kind is TaskKind.PLAN_REVISE else None)


class TestScriptedBackend:
    def test_entries_replay_in_occurrence_order(self):
        fixture = Fixture()
        key = FixtureKey(TaskKind.CHECK, CheckKind.MATH, "n")
        fixture.add(FixtureEntry(key, 1, CheckVerdict(False, "first")))
        fixture.add(FixtureEntry(key, 2, CheckVerdict(True, "second")))
        backend = ScriptedBackend(fixture)
        task = task_for(TaskKind.CHECK, "n", CheckKind.MATH)
        first, _, _ = invoke(backend, task)
        second, _, _ = invoke(backend, task)
        assert (first.note, second.note) == ("first", "second")
        with pytest.raises(FixtureMiss):
            invoke(backend, task)

    def test_same_fixture_same_sequence(self):
        fixture = single_node_fixture()
        seq1 = []
        seq2 = []
        for backend, out in ((ScriptedBackend(fixture), seq1),
                             (ScriptedBackend(fixture), seq2)):
            for task in (task_for(TaskKind.PLAN_INITIAL), task_for(TaskKind.LEAN_WORK, "Main")):
                payload, _, _ = invoke(backend, task)
                out.append(payload)
        assert seq1 == seq2

    def test_empty_fixture_misses(self):
        backend = ScriptedBackend(Fixture())
        with pytest.raises(FixtureMiss):
            invoke(backend, task_for(TaskKind.LEAN_WORK, "n"))

    def test_keys_distinguish_check_kinds_and_nodes(self):
        fixture = Fixture()
        fixture.add(FixtureEntry(FixtureKey(TaskKind.CHECK, CheckKind.MATH, "a"), 1,
                                 CheckVerdict(True, "math-a")))
        fixture.add(FixtureEntry(FixtureKey(TaskKind.CHECK, CheckKind.FAITHFULNESS, "a"), 1,
                                 CheckVerdict(False, "faith-a")))
        backend = ScriptedBackend(fixture)
        faith, _, _ = invoke(backend, task_for(TaskKind.CHECK, "a", CheckKind.FAITHFULNESS))
        math, _, _ = invoke(backend, task_for(TaskKind.CHECK, "a", CheckKind.MATH))
        assert (faith.note, math.note) == ("faith-a", "math-a")

    def test_usage_and_elapsed_are_reported(self):
        fixture = Fixture()
        fixture.add(FixtureEntry(FixtureKey(TaskKind.LEAN_WORK, None, "n"), 1,
                                 LeanOutcome("src"), TokenUsage(10, 2, 0, 1)))
        _, usage, elapsed = invoke(ScriptedBackend(fixture), task_for(TaskKind.LEAN_WORK, "n"))
        assert usage == TokenUsage(10, 2, 0, 1)
        assert elapsed >= 0.0

    def test_duplicate_entry_rejected(self):
        fixture = Fixture()
        entry = FixtureEntry(FixtureKey(TaskKind.LEAN_WORK, None, "n"), 1, LeanOutcome("s"))
        fixture.add(entry)
        with pytest.raises(FixtureParse):
            fixture.add(entry)


FIXTURE_TEXT = """fixture v1
# a comment

entry plan-initial 1
usage 10 20 30 40
payload diff <<EOF
plandiff v1
cause initial-plan
add Main
informal "only statement"
sketch ""
deps
status open
anchor "Main" "theorem Main : True" ":= by\\n  sorry"
end
EOF
end

entry lean Main 1
payload source <<EOF
theorem Main : True := trivial
EOF
end

entry check faithfulness Main 1
verdict pass "looks right"
end

entry check math Main 1
verdict fail
end
"""


class TestFixtureFormat:
    def test_parse_and_replay(self):
        fixture = parse_fixture(FIXTURE_TEXT)
        assert len(fixture.entries) == 4
        backend = ScriptedBackend(fixture)
        diff, _, _ = invoke(backend, task_for(TaskKind.PLAN_INITIAL))
        assert diff.adds[0].node_id == "Main"
        lean, _, _ = invoke(backend, task_for(TaskKind.LEAN_WORK, "Main"))
        assert lean.source == "theorem Main : True := trivial\n"
        verdict, _, _ = invoke(backend, task_for(TaskKind.CHECK, "Main", CheckKind.FAITHFULNESS))
        assert verdict.passed and verdict.note == "looks right"
        math, _, _ = invoke(backend, task_for(TaskKind.CHECK, "Main", CheckKind.MATH))
        assert not math.passed

    def test_round_trip(self):
        fixture = parse_fixture(FIXTURE_TEXT)
        text = fixture_to_text(fixture)
        again = parse_fixture(text)
        assert fixture_to_text(again) == text
        assert set(again.entries) == set(fixture.entries)

    def test_verdict_notes_survive_quoting(self):
        fixture = Fixture()
        note = 'drops the "normal" conjunct \\ badly'
        fixture.add(FixtureEntry(FixtureKey(TaskKind.CHECK, CheckKind.MATH, "n"), 1,
                                 CheckVerdict(False, note)))
        again = parse_fixture(fixture_to_text(fixture))
        entry = again.entries[(FixtureKey(TaskKind.CHECK, CheckKind.MATH, "n"), 1)]
        assert entry.payload.note == note

    @pytest.mark.parametrize("text, fragment", [
        ("nope\n", "not a fixture"),
        ("fixture v1\nentry bogus 1\nend\n", "unknown task kind"),
        ("fixture v1\nentry check n 1\nverdict pass\nend\n", "unknown check kind"),
        ("fixture v1\nentry lean n 1\nend\n", "no payload"),
        ("fixture v1\nentry lean n 1\npayload source <<EOF\nxx\n", "terminator"),
        ("fixture v1\nentry check math n 1\nverdict maybe\nend\n", "pass or fail"),
        ("fixture v1\nentry lean n 1\nusage 1 2\nend\n", "four counts"),
    ])
    def test_parse_errors(self, text, fragment):
        with pytest.raises((FixtureParse, ValueError)) as exc:
            parse_fixture(text)
        assert fragment.split()[0] in str(exc.value)


class TestShippedFixture:
    def test_shipped_fixture_round_trips_byte_for_byte(self):
        from helpers import BURNSIDE_DIR

        text = (BURNSIDE_DIR / "agents.fx").read_text(encoding="utf-8")
        assert fixture_to_text(parse_fixture(text)) == text

    def test_first_faithfulness_on_the_dichotomy_core_fails(self):
        from helpers import BURNSIDE_DIR
        from proofloop.agents import load_fixture

        fixture = load_fixture(BURNSIDE_DIR / "agents.fx")
        key = FixtureKey(TaskKind.CHECK, CheckKind.FAITHFULNESS,
                         "Lem_BurnsideDichotomyCore")
        assert fixture.entries[(key, 1)].payload.passed is False
        assert fixture.entries[(key, 2)].payload.passed is True

    def test_decomposition_on_the_conjugation_helper_votes_split(self):
        from helpers import BURNSIDE_DIR
        from proofloop.agents import load_fixture

        fixture = load_fixture(BURNSIDE_DIR / "agents.fx")
        key = FixtureKey(TaskKind.CHECK, CheckKind.DECOMPOSITION,
                         "Lem_MuellerAffineConjugation")
        assert fixture.entries[(key, 1)].payload.passed is False


class TestKindSafety:
    def test_invoke_rejects_backend_answering_the_wrong_kind(self):
        class WrongKindBackend:
            def invoke(self, task):
                return CheckVerdict(True), TokenUsage()

        with pytest.raises(MalformedResponse):
            invoke(WrongKindBackend(), task_for(TaskKind.LEAN_WORK, "n"))
