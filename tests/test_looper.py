import builtins
import cProfile
import dataclasses
import gc
import importlib.util
import io
import json
import pstats
import re
import subprocess
import sys
from pathlib import Path

import pytest

import proofloop.leanenv as leanenv
import proofloop.ledger as ledger_mod
import proofloop.looper as looper_mod
import proofloop.plan as plan_mod
from helpers import (
    BURNSIDE_DIR,
    REPO_ROOT,
    FixtureBuilder,
    SIMPLE_INPUT,
    anchor_decl,
    clean_src,
    error_src,
    main_clean_src,
    mk_node,
    oracle_levels,
    replan_fixture,
    single_node_fixture,
    sorried_src,
    splitter_fixture,
)
from proofloop.agents import (
    CheckKind,
    CheckVerdict,
    MalformedResponse,
    ScriptedBackend,
    TaskKind,
    TokenUsage,
    load_fixture,
)
from proofloop.leanenv import InputError, SimVerifier, Workspace, find_anchor, load_sim_rules
from proofloop.ledger import (
    EventKind,
    Outcome,
    export_trace,
    load_ledger,
    read_ledger_records,
    verify_replay,
)
from proofloop.looper import (
    LoopConfig,
    StopReason,
    Verdict,
    _CHECK_ROUTES,
    run,
)
from proofloop.plan import DiffCause, NodeRewrite, PlanDiff, Status


def cfg(**kwargs) -> LoopConfig:
    defaults = dict(wall_clock_budget=60.0, compile_budget=2, replan_limit=8,
                    check_retry_limit=2)
    defaults.update(kwargs)
    return LoopConfig(**defaults)


def run_fixture(tmp_path, fixture, config=None, input_text=SIMPLE_INPUT, rules=None):
    input_file = tmp_path / "input.lean"
    input_file.write_text(input_text, encoding="utf-8")
    ledger_path = tmp_path / "ledger.jsonl"
    outcome, ledger = run(input_file, ScriptedBackend(fixture),
                          SimVerifier(rules or {}), config or cfg(),
                          workspace_dir=tmp_path / "ws", ledger_path=ledger_path)
    return outcome, ledger, ledger_path


class TestFindAnchor:
    def test_sorry_theorem_is_the_anchor(self):
        anchor = find_anchor(SIMPLE_INPUT)
        assert anchor.decl_name == "Main"
        assert anchor.signature_text == "theorem Main : True"
        assert "sorry" in anchor.original_body

    def test_first_sorry_bearing_declaration_wins(self):
        text = ("theorem done : True := trivial\n\n"
                "theorem first : 1 = 1 := by\n  sorry\n\n"
                "theorem second : 2 = 2 := by\n  sorry\n")
        assert find_anchor(text).decl_name == "first"

    def test_no_sorry_is_an_input_error(self):
        with pytest.raises(InputError):
            find_anchor("theorem t : True := trivial\n")

    def test_commented_sorry_does_not_count(self):
        with pytest.raises(InputError):
            find_anchor("-- sorry\ntheorem t : True := trivial\n")

    def test_sorry_before_any_declaration(self):
        with pytest.raises(InputError):
            find_anchor("sorry\n")

    def test_unicode_identifier_ending_in_sorry_is_not_a_sorry(self):
        with pytest.raises(InputError, match="no sorry"):
            find_anchor("theorem t : True := αsorry\n")

    def test_sorry_after_a_quote_char_literal_is_found(self):
        anchor = find_anchor("def q : Char := '\"'\ntheorem Main : True := sorry\n")
        assert anchor.decl_name == "Main"
        assert anchor.original_body == ":= sorry\n"

    @pytest.mark.parametrize("text", [
        "theorem a : True := trivial\n\nexample : 1 = 1 := by sorry\n",
        "theorem a : True := trivial\n\ninstance : Inhabited Nat := sorry\n",
        "instance (priority := 100) : Inhabited Nat := sorry\n",
        "instance {α} [Inhabited α] : Inhabited (List α) := sorry\n",
        "theorem a : True := trivial\ninstance (priority := 100 : Inhabited Nat := sorry\n",
    ], ids=["example", "instance", "instance-with-a-priority", "instance-with-binders",
            "instance-with-an-open-group"])
    def test_a_sorry_in_an_anonymous_declaration_is_refused(self, text):
        with pytest.raises(InputError, match="anonymous"):
            find_anchor(text)

    @pytest.mark.parametrize("text", [
        "instance (priority := 100) foo : Inhabited Nat := sorry\n",
        "instance (priority := low) /- p -/\n  foo : Inhabited Nat := by\n  sorry\n",
        "scoped instance (priority := high) foo : Inhabited Nat := sorry\n",
    ], ids=["one-line", "comment-and-newline", "scoped"])
    def test_an_instance_with_a_priority_is_named_after_the_group(self, text):
        anchor = find_anchor(text)
        assert anchor.decl_name == "foo"
        assert anchor.signature_text == "instance foo : Inhabited Nat"

    def test_a_sorry_in_the_header_of_an_equation_style_declaration_is_refused(self):
        with pytest.raises(InputError, match="sorry of t lies in its header"):
            find_anchor("theorem t : Nat → Nat\n  | 0 => sorry\n  | n + 1 => n\n")

    @pytest.mark.parametrize("text, signature", [
        ("def f (n : Nat := 1) : Nat := by\n  sorry\n", "def f (n : Nat := 1) : Nat"),
        ("theorem t /- a := b -/ (h : 1 = 1) : True := by\n  sorry\n",
         "theorem t (h : 1 = 1) : True"),
    ], ids=["default-value-in-a-binder", "comment-in-the-header"])
    def test_the_body_starts_where_the_signature_ends(self, text, signature):
        anchor = find_anchor(text)
        assert anchor.signature_text == signature
        assert anchor.original_body == ":= by\n  sorry\n"

    @pytest.mark.parametrize("text", [
        "namespace A\ntheorem foo : True := trivial\nend A\n"
        "namespace B\ntheorem foo : True := sorry\nend B\n",
        "theorem foo : True := sorry\nnamespace A\nlemma foo : True := trivial\nend A\n",
    ], ids=["earlier-in-another-namespace", "later-in-a-namespace"])
    def test_a_bare_name_reused_in_another_namespace_is_refused_by_the_audits_lookup(self, text):
        """The audit looks the target up by its bare name, so a run of such an input could
        never pass it; the input is refused by the same lookup before the run starts."""
        with pytest.raises(InputError) as refused:
            find_anchor(text)
        assert str(refused.value) == ("cannot extract target signature: multiple declarations "
                                      "named foo in <input>")

    def test_a_name_qualified_apart_from_the_target_is_not_a_reuse(self):
        anchor = find_anchor("theorem A.foo : True := trivial\ntheorem foo : True := sorry\n")
        assert anchor.decl_name == "foo"
        assert anchor.original_body == ":= sorry\n"

    @pytest.mark.parametrize("after", [
        "example : 1 = 1 := rfl\n",
        "instance : Inhabited Nat := ⟨0⟩\n",
    ], ids=["example", "instance"])
    def test_the_body_ends_at_a_following_anonymous_declaration(self, after):
        anchor = find_anchor(f"theorem Main : True := sorry\n\n{after}")
        assert anchor.original_body == ":= sorry\n\n"


class TestRouting:
    @pytest.mark.parametrize("kind, passed, expected", [
        (CheckKind.FAITHFULNESS, True, Status.CLOSED),
        (CheckKind.FAITHFULNESS, False, DiffCause.FAITHFULNESS_FAIL),
        (CheckKind.MATH, True, CheckKind.DECOMPOSITION),
        (CheckKind.MATH, False, DiffCause.MATH_FAIL),
        (CheckKind.DECOMPOSITION, True, None),
        (CheckKind.DECOMPOSITION, False, DiffCause.DECOMPOSITION_SPLIT),
    ])
    def test_check_routing_is_total(self, kind, passed, expected):
        assert _CHECK_ROUTES[kind, passed] is expected

    @pytest.mark.parametrize("sources, expected", [
        ([main_clean_src()], CheckKind.FAITHFULNESS),
        ([sorried_src("Main")], CheckKind.MATH),
        ([error_src("Main", 1), error_src("Main", 2)], CheckKind.MATH),
    ], ids=["clean", "sorried", "exhausted"])
    def test_a_build_is_followed_by_its_first_check(self, tmp_path, sources, expected):
        builder = FixtureBuilder()
        builder.initial(PlanDiff(adds=(mk_node("Main", anchor=anchor_decl("Main")),),
                                 cause=DiffCause.INITIAL_PLAN))
        for source in sources:
            builder.lean("Main", source)
        for kind in CheckKind:  # each fails, and the replan that follows finds no diff
            builder.check("Main", kind, False)
        _, ledger, _ = run_fixture(tmp_path, builder.fixture, cfg(compile_budget=len(sources)))
        checks = [e.detail for e in ledger.events
                  if e.kind in (EventKind.CHECK_PASS, EventKind.CHECK_FAIL)]
        assert checks == [expected.value]

    def test_each_failed_check_replans_with_its_own_cause(self, tmp_path):
        builder = FixtureBuilder()
        builder.initial(PlanDiff(adds=(mk_node("Main", anchor=anchor_decl("Main")),),
                                 cause=DiffCause.INITIAL_PLAN))
        builder.lean("Main", main_clean_src())
        builder.check("Main", CheckKind.FAITHFULNESS, False)
        builder.revise("Main", PlanDiff(
            rewrites=(NodeRewrite("Main", "statement Main v2", "", ()),),
            cause=DiffCause.FAITHFULNESS_FAIL))
        builder.lean("Main", sorried_src("Main"))
        builder.check("Main", CheckKind.MATH, False)
        builder.revise("Main", PlanDiff(
            rewrites=(NodeRewrite("Main", "statement Main v3", "", ()),),
            cause=DiffCause.MATH_FAIL))
        builder.lean("Main", sorried_src("Main"))
        builder.check("Main", CheckKind.MATH, True)
        builder.check("Main", CheckKind.DECOMPOSITION, False)
        builder.revise("Main", PlanDiff(
            adds=(mk_node("H1"),),
            rewrites=(NodeRewrite("Main", "statement Main v3", "", ("H1",)),),
            cause=DiffCause.DECOMPOSITION_SPLIT))
        builder.lean("H1", clean_src("H1"))
        builder.check("H1", CheckKind.FAITHFULNESS, True)
        builder.lean("Main", main_clean_src())
        builder.check("Main", CheckKind.FAITHFULNESS, True)
        outcome, ledger, ledger_path = run_fixture(tmp_path, builder.fixture)
        assert outcome.verdict is Verdict.SOLVED
        causes = ["faithfulness-fail", "math-fail", "decomposition-split"]
        diffs = [e for e in ledger.events if e.kind is EventKind.DIFF_APPLIED]
        assert [e.data["cause"] for e in diffs] == causes
        assert [e.detail.split(":")[0] for e in diffs] == [f"cause={c}" for c in causes]
        assert verify_replay(read_ledger_records(ledger_path)) == (len(ledger.frames), 3)


class TestOutcomeInvariants:
    def test_solved_carries_no_reason(self):
        with pytest.raises(ValueError):
            Outcome(Verdict.SOLVED, StopReason.TIME_BUDGET, 0.0, 0, 0)
        with pytest.raises(ValueError):
            Outcome(Verdict.UNFINISHED, None, 0.0, 0, 0)


class TestLoopConfig:
    @pytest.mark.parametrize("budget", [-1.0, float("nan")])
    def test_a_wall_clock_budget_below_zero_or_nan_is_rejected(self, budget):
        with pytest.raises(ValueError):
            LoopConfig(wall_clock_budget=budget)


class TestSingleNodeRun:
    def test_solves_and_audits(self, tmp_path):
        outcome, ledger, _ = run_fixture(tmp_path, single_node_fixture())
        assert outcome is ledger.outcome
        assert outcome.verdict is Verdict.SOLVED
        assert ledger.outcome.statement_count == 1
        kinds = [e.kind for e in ledger.events]
        assert kinds == [EventKind.PLAN_CREATED, EventKind.LEAN_ATTEMPT,
                         EventKind.BUILD_CLEAN, EventKind.CHECK_PASS,
                         EventKind.NODE_CLOSED, EventKind.CHECK_PASS,
                         EventKind.SUCCESS_EXIT]
        assert len(ledger.frames) == 2  # initial plan + close

    def test_solved_ledger_has_audit_pass_before_success_exit(self, tmp_path):
        _, ledger, _ = run_fixture(tmp_path, single_node_fixture())
        success_at = next(i for i, e in enumerate(ledger.events)
                          if e.kind is EventKind.SUCCESS_EXIT)
        assert ledger.events[success_at - 1].kind is EventKind.CHECK_PASS
        assert ledger.events[success_at - 1].detail.startswith("audit: pass")

    def test_usage_total_matches_consumed_entries(self, tmp_path):
        from proofloop.agents import TokenUsage

        builder = FixtureBuilder()
        builder.initial(PlanDiff(adds=(mk_node("Main", anchor=anchor_decl("Main")),),
                                 cause=DiffCause.INITIAL_PLAN))
        builder.lean("Main", main_clean_src(), usage=TokenUsage(100, 10, 1, 2))
        builder.check("Main", CheckKind.FAITHFULNESS, True)
        outcome, ledger, _ = run_fixture(tmp_path, builder.fixture)
        assert outcome.verdict is Verdict.SOLVED
        assert ledger.usage_total == TokenUsage(100, 10, 1, 2)


class TestBudgets:
    def test_zero_wall_clock_stops_before_planning(self, tmp_path):
        outcome, ledger, _ = run_fixture(tmp_path, single_node_fixture(),
                                         cfg(wall_clock_budget=0.0))
        assert (outcome.verdict, outcome.reason, outcome.final_plan_revision) == (
            Verdict.UNFINISHED, StopReason.TIME_BUDGET, 0)
        kinds = {e.kind for e in ledger.events}
        assert kinds == {EventKind.BUDGET_STOP}
        assert ledger.outcome.statement_count == 0

    def test_stop_file_cancels_cooperatively(self, tmp_path):
        stop = tmp_path / "stop"
        stop.write_text("", encoding="utf-8")
        outcome, ledger, _ = run_fixture(tmp_path, single_node_fixture(),
                                         cfg(stop_file=stop))
        assert outcome.verdict is Verdict.UNFINISHED
        assert outcome.reason is StopReason.TIME_BUDGET
        assert "stop file" in ledger.events[-1].detail

    def test_replan_limit_counts_accepted_replans_exactly(self, tmp_path):
        outcome, ledger, _ = run_fixture(tmp_path, splitter_fixture(cycles=6),
                                         cfg(replan_limit=3))
        assert (outcome.verdict, outcome.reason, outcome.final_plan_revision) == (
            Verdict.UNFINISHED, StopReason.REPLAN_LIMIT, 3)
        diffs = [e for e in ledger.events if e.kind is EventKind.DIFF_APPLIED]
        assert len(diffs) == 3
        assert ledger.events[-1].kind is EventKind.BUDGET_STOP
        assert "replan-limit" in ledger.events[-1].detail

    def test_every_diff_is_followed_by_a_restart(self, tmp_path):
        _, ledger, _ = run_fixture(tmp_path, splitter_fixture(cycles=4),
                                   cfg(replan_limit=2))
        events = ledger.events
        for i, event in enumerate(events):
            if event.kind is EventKind.DIFF_APPLIED:
                assert events[i + 1].kind is EventKind.RESTART


class TestBackendFailures:
    def test_rejected_diffs_exhaust_into_backend_failure(self, tmp_path):
        builder = FixtureBuilder()
        builder.initial(PlanDiff(adds=(mk_node("Main", anchor=anchor_decl("Main")),),
                                 cause=DiffCause.INITIAL_PLAN))
        builder.lean("Main", sorried_src("Main"))
        builder.check("Main", CheckKind.MATH, True)
        builder.check("Main", CheckKind.DECOMPOSITION, False)
        bad = PlanDiff(removes=("Main",), cause=DiffCause.DECOMPOSITION_SPLIT)
        for _ in range(3):  # initial + check_retry_limit re-invocations
            builder.revise("Main", bad)
        outcome, ledger, _ = run_fixture(tmp_path, builder.fixture)
        assert outcome.verdict is Verdict.UNFINISHED
        assert outcome.reason is StopReason.BACKEND_FAILURE
        assert not any(e.kind is EventKind.DIFF_APPLIED for e in ledger.events)

    def test_fixture_miss_stops_as_backend_failure(self, tmp_path):
        builder = FixtureBuilder()
        builder.initial(PlanDiff(adds=(mk_node("Main", anchor=anchor_decl("Main")),),
                                 cause=DiffCause.INITIAL_PLAN))
        outcome, _, _ = run_fixture(tmp_path, builder.fixture)
        assert outcome.reason is StopReason.BACKEND_FAILURE

    def test_malformed_checks_are_retried_with_fresh_invocations(self, tmp_path):
        class FlakyOnce:
            def __init__(self, inner):
                self.inner = inner
                self.failed = False

            def invoke(self, task):
                from proofloop.agents import TaskKind

                if task.kind is TaskKind.CHECK and not self.failed:
                    self.failed = True
                    raise MalformedResponse("garbled verdict")
                return self.inner.invoke(task)

        input_file = tmp_path / "input.lean"
        input_file.write_text(SIMPLE_INPUT, encoding="utf-8")
        backend = FlakyOnce(ScriptedBackend(single_node_fixture()))
        outcome, ledger = run(input_file, backend, SimVerifier({}), cfg(),
                              workspace_dir=tmp_path / "ws")
        assert outcome.verdict is Verdict.SOLVED
        assert backend.failed


class MalformedOn:
    """Raises MalformedResponse on the given calls of one task kind; delegates the rest."""

    def __init__(self, inner, kind: TaskKind, malformed_calls: set[int]):
        self.inner = inner
        self.kind = kind
        self.malformed_calls = malformed_calls
        self.calls = 0

    def invoke(self, task):
        if task.kind is self.kind:
            self.calls += 1
            if self.calls in self.malformed_calls:
                raise MalformedResponse(f"garbled payload on call {self.calls}")
        return self.inner.invoke(task)


class WrongPayloadOn(MalformedOn):
    """Answers the given calls of one task kind with a check verdict; delegates the rest."""

    def invoke(self, task):
        if task.kind is self.kind:
            self.calls += 1
            if self.calls in self.malformed_calls:
                return CheckVerdict(True, "not a lean source"), TokenUsage(prompt=1)
        return self.inner.invoke(task)


class TestWrongPayloadType:
    """A backend that answers with a payload of another task kind is malformed, and retried."""

    def run_wrong(self, tmp_path, wrong_calls):
        input_file = tmp_path / "input.lean"
        input_file.write_text(SIMPLE_INPUT, encoding="utf-8")
        backend = WrongPayloadOn(ScriptedBackend(single_node_fixture()), TaskKind.LEAN_WORK,
                                 wrong_calls)
        outcome, ledger = run(input_file, backend, SimVerifier({}), cfg(check_retry_limit=2),
                              workspace_dir=tmp_path / "ws")
        return outcome, ledger, backend.calls

    def test_one_wrong_answer_is_retried_and_the_run_solves(self, tmp_path):
        outcome, ledger, calls = self.run_wrong(tmp_path, {1})
        assert outcome.verdict is Verdict.SOLVED
        assert calls == 2
        # The wrong answer was not charged: only the source that was used.
        assert sum(r.kind == TaskKind.LEAN_WORK.value for r in ledger.usage_records) == 1

    def test_wrong_answers_on_every_try_stop_as_backend_failure(self, tmp_path):
        outcome, ledger, calls = self.run_wrong(tmp_path, {1, 2, 3})
        assert outcome.verdict is Verdict.UNFINISHED
        assert outcome.reason is StopReason.BACKEND_FAILURE
        assert calls == 3
        detail = ledger.events[-1].detail
        assert "lean work on Main: backend answered a lean task with CheckVerdict" in detail


class TestSharedRetryBudget:
    """Malformed payloads and rejected plans or diffs draw on one budget of tries."""

    PHASES = [TaskKind.PLAN_INITIAL, TaskKind.PLAN_REVISE]

    def payloads(self, kind: TaskKind) -> tuple[PlanDiff, PlanDiff]:
        """A (rejected, accepted) pair of planning payloads for the phase."""
        if kind is TaskKind.PLAN_INITIAL:
            return (PlanDiff(adds=(mk_node("Main", anchor=anchor_decl("Other")),)),
                    PlanDiff(adds=(mk_node("Main", anchor=anchor_decl("Main")),)))
        cause = DiffCause.DECOMPOSITION_SPLIT
        return (PlanDiff(removes=("Main",), cause=cause),
                PlanDiff(rewrites=(NodeRewrite("Main", "statement Main", "again", ()),),
                         cause=cause))

    def run_phase(self, tmp_path, kind: TaskKind, diffs, malformed_calls):
        builder = FixtureBuilder()
        if kind is TaskKind.PLAN_INITIAL:
            for diff in diffs:
                builder.initial(diff)
        else:
            builder.initial(PlanDiff(adds=(mk_node("Main", anchor=anchor_decl("Main")),)))
            builder.lean("Main", sorried_src("Main"))
            builder.check("Main", CheckKind.MATH, True)
            builder.check("Main", CheckKind.DECOMPOSITION, False)
            for diff in diffs:
                builder.revise("Main", diff)
        builder.lean("Main", main_clean_src())
        builder.check("Main", CheckKind.FAITHFULNESS, True)
        input_file = tmp_path / "input.lean"
        input_file.write_text(SIMPLE_INPUT, encoding="utf-8")
        backend = MalformedOn(ScriptedBackend(builder.fixture), kind, malformed_calls)
        outcome, ledger = run(input_file, backend, SimVerifier({}), cfg(check_retry_limit=2),
                              workspace_dir=tmp_path / "ws")
        return outcome, ledger, backend.calls

    @pytest.mark.parametrize("kind", PHASES)
    def test_malformed_then_rejected_then_valid_succeeds_on_the_third_call(self, tmp_path,
                                                                          kind):
        rejected, accepted = self.payloads(kind)
        outcome, _, calls = self.run_phase(tmp_path, kind, [rejected, accepted], {1})
        assert outcome.verdict is Verdict.SOLVED
        assert calls == 3

    @pytest.mark.parametrize("kind", PHASES)
    def test_three_mixed_failures_stop_after_three_calls(self, tmp_path, kind):
        rejected, _ = self.payloads(kind)
        outcome, ledger, calls = self.run_phase(tmp_path, kind, [rejected] * 3, {2})
        assert outcome.reason is StopReason.BACKEND_FAILURE
        assert calls == 3
        # The two payloads that parsed were charged; the malformed one was not.
        assert sum(r.kind == kind.value for r in ledger.usage_records) == 2
        assert not any(e.kind is EventKind.DIFF_APPLIED for e in ledger.events)


class TestExhaustionPath:
    def exhaust_fixture(self):
        builder = FixtureBuilder()
        builder.initial(PlanDiff(adds=(mk_node("Main", anchor=anchor_decl("Main")),),
                                 cause=DiffCause.INITIAL_PLAN))
        builder.lean("Main", "-- sim: error broken 1\n")
        builder.lean("Main", "-- sim: error broken 2\n")
        builder.check("Main", CheckKind.MATH, True)
        builder.check("Main", CheckKind.DECOMPOSITION, True)  # retry as is
        builder.lean("Main", main_clean_src())
        builder.check("Main", CheckKind.FAITHFULNESS, True)
        return builder.fixture

    def test_exhaust_mark_failing_retry_close(self, tmp_path):
        outcome, ledger, _ = run_fixture(tmp_path, self.exhaust_fixture())
        assert outcome.verdict is Verdict.SOLVED
        kinds = [e.kind for e in ledger.events]
        assert kinds == [
            EventKind.PLAN_CREATED,
            EventKind.LEAN_ATTEMPT, EventKind.LEAN_ATTEMPT,  # two erroring attempts
            EventKind.BUILD_SORRIES,                          # exhaustion summary
            EventKind.NODE_FAILING,
            EventKind.CHECK_PASS, EventKind.CHECK_PASS,       # math, decomposition
            EventKind.LEAN_ATTEMPT, EventKind.BUILD_CLEAN,    # retry cycle
            EventKind.CHECK_PASS,                             # faithfulness
            EventKind.NODE_CLOSED,
            EventKind.CHECK_PASS, EventKind.SUCCESS_EXIT,
        ]
        exhaustion = next(e for e in ledger.events if e.kind is EventKind.BUILD_SORRIES)
        assert "exhausted" in exhaustion.detail
        # Frames appear only on the plan mutation and the two status changes.
        assert len(ledger.frames) == 3

    def test_second_exhaustion_does_not_refile_failing(self, tmp_path):
        builder = FixtureBuilder()
        builder.initial(PlanDiff(adds=(mk_node("Main", anchor=anchor_decl("Main")),),
                                 cause=DiffCause.INITIAL_PLAN))
        for i in range(4):
            builder.lean("Main", f"-- sim: error broken {i}\n")
        builder.check("Main", CheckKind.MATH, True)
        builder.check("Main", CheckKind.DECOMPOSITION, True)
        builder.check("Main", CheckKind.MATH, True)
        builder.check("Main", CheckKind.DECOMPOSITION, True)
        builder.lean("Main", main_clean_src())
        builder.check("Main", CheckKind.FAITHFULNESS, True)
        outcome, ledger, _ = run_fixture(tmp_path, builder.fixture)
        assert outcome.verdict is Verdict.SOLVED
        failing = [e for e in ledger.events if e.kind is EventKind.NODE_FAILING]
        assert len(failing) == 1


class TestFaithfulnessReplan:
    def test_faithfulness_fail_reopens_and_replans(self, tmp_path):
        builder = FixtureBuilder()
        builder.initial(PlanDiff(adds=(mk_node("Main", anchor=anchor_decl("Main")),),
                                 cause=DiffCause.INITIAL_PLAN))
        builder.lean("Main", main_clean_src())
        builder.check("Main", CheckKind.FAITHFULNESS, False, "weakened")
        helper = mk_node("H1")
        builder.revise("Main", PlanDiff(
            adds=(helper,),
            rewrites=(NodeRewrite("Main", "statement Main v2", "", ("H1",)),),
            cause=DiffCause.FAITHFULNESS_FAIL))
        builder.lean("H1", "theorem H1_stub : True := trivial\n")
        builder.check("H1", CheckKind.FAITHFULNESS, True)
        builder.lean("Main", main_clean_src())
        builder.check("Main", CheckKind.FAITHFULNESS, True)
        outcome, ledger, ledger_path = run_fixture(tmp_path, builder.fixture)
        assert outcome.verdict is Verdict.SOLVED
        assert outcome.final_plan_revision == 1
        fail_at = next(i for i, e in enumerate(ledger.events)
                       if e.kind is EventKind.CHECK_FAIL)
        diff_at = next(i for i, e in enumerate(ledger.events)
                       if e.kind is EventKind.DIFF_APPLIED)
        assert fail_at < diff_at
        frames, diffs = verify_replay(read_ledger_records(ledger_path))
        assert diffs == 1


class TestAuditFailRecovery:
    def bad_axiom_src(self):
        return main_clean_src("-- sim: axioms forbiddenAx\n")

    def reopen_fixture(self):
        """The audit fails once, reopens the anchor and replans; the second audit passes."""
        builder = FixtureBuilder()
        builder.initial(PlanDiff(adds=(mk_node("Main", anchor=anchor_decl("Main")),),
                                 cause=DiffCause.INITIAL_PLAN))
        builder.lean("Main", self.bad_axiom_src())
        builder.check("Main", CheckKind.FAITHFULNESS, True)
        builder.revise("Main", PlanDiff(
            rewrites=(NodeRewrite("Main", "statement Main", "avoid the bad axiom", ()),),
            cause=DiffCause.FAITHFULNESS_FAIL))
        builder.lean("Main", main_clean_src())
        builder.check("Main", CheckKind.FAITHFULNESS, True)
        return builder.fixture

    def test_audit_fail_reopens_anchor_and_replans(self, tmp_path):
        outcome, ledger, ledger_path = run_fixture(tmp_path, self.reopen_fixture())
        assert outcome.verdict is Verdict.SOLVED
        audit_fail = next(e for e in ledger.events
                          if e.kind is EventKind.CHECK_FAIL)
        assert audit_fail.detail.startswith("audit:")
        frames, diffs = verify_replay(read_ledger_records(ledger_path))
        assert diffs == 1

    def test_audit_fail_without_replans_left_is_unfinished(self, tmp_path):
        builder = FixtureBuilder()
        builder.initial(PlanDiff(adds=(mk_node("Main", anchor=anchor_decl("Main")),),
                                 cause=DiffCause.INITIAL_PLAN))
        builder.lean("Main", self.bad_axiom_src())
        builder.check("Main", CheckKind.FAITHFULNESS, True)
        builder.revise("Main", PlanDiff(
            rewrites=(NodeRewrite("Main", "statement Main", "still bad", ()),),
            cause=DiffCause.FAITHFULNESS_FAIL))
        builder.lean("Main", self.bad_axiom_src())
        builder.check("Main", CheckKind.FAITHFULNESS, True)
        outcome, ledger, _ = run_fixture(tmp_path, builder.fixture, cfg(replan_limit=1))
        assert (outcome.verdict, outcome.reason, outcome.final_plan_revision) == (
            Verdict.UNFINISHED, StopReason.AUDIT_FAIL, 1)

    def test_a_helper_declaring_the_anchored_name_fails_the_audit(self, tmp_path):
        """The audit looks the target up in every workspace file, not only the anchor's, so
        a namesake in another namespace leaves two candidates until the helper is rewritten."""
        builder = FixtureBuilder()
        builder.initial(PlanDiff(adds=(mk_node("H"),
                                       mk_node("Main", ("H",), anchor=anchor_decl("Main"))),
                                 cause=DiffCause.INITIAL_PLAN))
        builder.lean("H", "namespace Aux\ntheorem Main : True := trivial\nend Aux\n")
        builder.check("H", CheckKind.FAITHFULNESS, True)
        builder.lean("Main", main_clean_src())
        builder.check("Main", CheckKind.FAITHFULNESS, True)
        builder.revise("Main", PlanDiff(
            rewrites=(NodeRewrite("H", "statement H, renamed", "", ()),),
            cause=DiffCause.FAITHFULNESS_FAIL))
        builder.lean("H", clean_src("H"))
        builder.check("H", CheckKind.FAITHFULNESS, True)
        builder.lean("Main", main_clean_src())
        builder.check("Main", CheckKind.FAITHFULNESS, True)
        outcome, ledger, ledger_path = run_fixture(tmp_path, builder.fixture)
        audit_fail = next(e for e in ledger.events if e.kind is EventKind.CHECK_FAIL)
        assert audit_fail.detail == ("audit: target not found: multiple declarations named "
                                     "Main in Proofws/H.lean, Proofws/Main.lean")
        assert outcome.verdict is Verdict.SOLVED
        assert verify_replay(read_ledger_records(ledger_path))[1] == 1


class TestEventStreamProperties:
    def test_no_node_closes_without_a_faithfulness_pass(self, tmp_path):
        outcome, ledger, _ = run_fixture(tmp_path, splitter_fixture(3),
                                         cfg(replan_limit=2))
        events = ledger.events
        for i, event in enumerate(events):
            if event.kind is EventKind.NODE_CLOSED:
                prev = events[i - 1]
                assert prev.kind is EventKind.CHECK_PASS
                assert prev.node_id == event.node_id
                assert prev.detail.startswith("faithfulness")

    def test_checks_never_mutate_before_their_consequence(self, tmp_path):
        _, ledger, _ = run_fixture(tmp_path, single_node_fixture())
        events = ledger.events
        for i, event in enumerate(events[:-1]):
            if event.kind in (EventKind.CHECK_PASS, EventKind.CHECK_FAIL):
                assert events[i + 1].kind is not EventKind.DIFF_APPLIED or \
                    event.kind is EventKind.CHECK_FAIL


def strip_timing(records):
    out = []
    for record in records:
        record = dict(record)
        record.pop("ts", None)
        record.pop("elapsed", None)
        record.pop("wall_clock", None)
        record.pop("started", None)
        out.append(record)
    return out


class TestReplayDeterminism:
    def test_two_runs_are_byte_identical_modulo_timestamps(self, tmp_path):
        records = []
        for name in ("one", "two"):
            base = tmp_path / name
            base.mkdir()
            input_file = base / "input.lean"
            input_file.write_text(SIMPLE_INPUT, encoding="utf-8")
            ledger_path = base / "ledger.jsonl"
            run(input_file, ScriptedBackend(single_node_fixture()), SimVerifier({}),
                cfg(), workspace_dir=base / "ws", ledger_path=ledger_path)
            records.append(strip_timing(read_ledger_records(ledger_path)))
        assert records[0] == records[1]
        assert json.dumps(records[0]) == json.dumps(records[1])


class TestLinearBuildGuard:
    """Counts calls instead of timing them, so it cannot flake on a slow host."""

    LEMMAS = 60

    def wide_fixture(self):
        """Independent lemmas plus an anchor on the last three; every 6th fails once."""
        lemmas = [f"L{i}" for i in range(self.LEMMAS)]
        nodes = [mk_node(lemma) for lemma in lemmas]
        nodes.append(mk_node("Main", tuple(lemmas[-3:]), anchor=anchor_decl("Main")))
        builder = FixtureBuilder()
        builder.initial(PlanDiff(adds=tuple(nodes), cause=DiffCause.INITIAL_PLAN))
        for i, lemma in enumerate(lemmas):
            if i % 6 == 0:
                builder.lean(lemma, error_src(lemma))
            builder.lean(lemma, clean_src(lemma))
            builder.check(lemma, CheckKind.FAITHFULNESS, True)
        builder.lean("Main", main_clean_src())
        builder.check("Main", CheckKind.FAITHFULNESS, True)
        return builder.fixture

    def test_wide_run_scans_linearly_and_builds_from_written_text(self, tmp_path, monkeypatch):
        scans = 0
        real_scan = leanenv.scan_forbidden_text

        def counting_scan(*args, **kwargs):
            nonlocal scans
            scans += 1
            return real_scan(*args, **kwargs)

        monkeypatch.setattr(leanenv, "scan_forbidden_text", counting_scan)
        written: set[Path] = set()  # every file the workspace wrote, up to the build
        reread: list[Path] = []
        taken: list[tuple[list[str], list[str]]] = []  # per build: taken, written since

        class GuardedVerifier(SimVerifier):
            def _take(self, ws, node_id, text):
                taken[-1][0].append(node_id)
                return super()._take(ws, node_id, text)

            def build(self, ws):
                taken.append(([], sorted(ws.dirty)))
                written.update(ws.root_dir / ws.node_files[node_id]
                               for node_id, text in ws.dirty.items() if text is not None)
                opened: list[Path] = []
                real_open = io.open

                def recording_open(file, *args, **kwargs):
                    opened.append(Path(file))
                    return real_open(file, *args, **kwargs)

                with monkeypatch.context() as patch:
                    patch.setattr(io, "open", recording_open)
                    patch.setattr(builtins, "open", recording_open)
                    report = super().build(ws)
                reread.extend(path for path in opened if path in written)
                return report

        input_file = tmp_path / "input.lean"
        input_file.write_text(SIMPLE_INPUT, encoding="utf-8")
        outcome, ledger = run(input_file, ScriptedBackend(self.wide_fixture()),
                              GuardedVerifier(), cfg(),
                              workspace_dir=tmp_path / "ws", ledger_path=None)
        statements = self.LEMMAS + 1
        assert outcome.verdict is Verdict.SOLVED
        assert ledger.outcome.statement_count == statements
        assert scans <= 3 * statements
        assert reread == []
        # Every file is written through the workspace, so each build takes exactly the
        # one file written since the last: none is read from disk, none visited again.
        assert len(taken) >= statements
        assert all(len(ids) == 1 and ids == since for ids, since in taken)

    def test_a_wide_run_makes_its_one_directory_once(self, tmp_path, monkeypatch):
        """A node file's directory is made when its first file is written, not at every
        write: ``mkdir`` runs once for the one directory of a wide run's statements."""
        made: list[Path] = []
        real_mkdir = Path.mkdir

        def counting_mkdir(path, *args, **kwargs):
            made.append(path)
            return real_mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counting_mkdir)
        input_file = tmp_path / "input.lean"
        input_file.write_text(SIMPLE_INPUT, encoding="utf-8")
        outcome, _ = run(input_file, ScriptedBackend(self.wide_fixture()), SimVerifier(), cfg(),
                         workspace_dir=tmp_path / "ws", ledger_path=None)
        assert outcome.verdict is Verdict.SOLVED
        folders = {path.parent for path in (tmp_path / "ws").rglob("*.lean")}
        assert folders == {tmp_path / "ws" / "Proofws"}
        assert [path for path in made if path in folders] == [tmp_path / "ws" / "Proofws"]


class TestAuditReadGuard:
    def test_the_burnside_audit_reads_each_file_once(self, tmp_path, monkeypatch):
        """The scan, the target lookup and the axiom audit share one read per file."""
        reads: list[Path] = []
        auditing = False
        real_read_text = Path.read_text
        real_audit = looper_mod.audit_verdict

        def counting_read_text(path, *args, **kwargs):
            if auditing:
                reads.append(path)
            return real_read_text(path, *args, **kwargs)

        def counting_audit(*args, **kwargs):
            nonlocal auditing
            auditing = True
            try:
                return real_audit(*args, **kwargs)
            finally:
                auditing = False

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        monkeypatch.setattr(looper_mod, "audit_verdict", counting_audit)
        outcome, ledger = run(BURNSIDE_DIR / "input.lean",
                              ScriptedBackend(load_fixture(BURNSIDE_DIR / "agents.fx")),
                              SimVerifier(load_sim_rules(BURNSIDE_DIR / "sim-rules.txt")),
                              LoopConfig(), workspace_dir=tmp_path / "ws", ledger_path=None)
        assert outcome.verdict is Verdict.SOLVED
        files = ledger.outcome.statement_count
        assert files == 32
        assert len(reads) == len(set(reads)) == files


class TestStructureWorkGuard:
    """Counts the work done per plan structure on a small replan-shaped run."""

    STATEMENTS = 40
    SPLITS = 6
    RESTATED = SPLITS // 3  # every third diff restates a closed helper

    def run_replan(self, tmp_path):
        outcome, ledger, ledger_path = run_fixture(
            tmp_path, replan_fixture(self.STATEMENTS, self.SPLITS),
            config=cfg(replan_limit=self.SPLITS))
        assert outcome.reason is StopReason.REPLAN_LIMIT
        assert len(ledger.frames) == 1 + 2 * self.SPLITS + self.RESTATED
        assert [event.node_id for event in ledger.events
                if event.kind is EventKind.DIFF_APPLIED] == ["S0"] * self.SPLITS
        return ledger_path, ledger

    def test_trace_lays_out_once_and_relevels_in_proportion_to_each_diff(self, tmp_path,
                                                                          monkeypatch):
        """One full layout per export; at each structure change, only the ids the diff
        touched and the users of an id whose level changed are re-levelled, once each."""
        ledger_path, _ = self.run_replan(tmp_path)
        frames = load_ledger(ledger_path).frames
        changes = [i for i in range(1, len(frames)) if frames[i].edges != frames[i - 1].edges
                   or frames[i].node_states.keys() != frames[i - 1].node_states.keys()]
        assert len(changes) == self.SPLITS < len(frames) - 1
        layouts, relevelled = 0, []
        real_layout, real_level = ledger_mod.depth_layout, ledger_mod._Layout.level

        def counting_layout(frame):
            nonlocal layouts
            layouts += 1
            return real_layout(frame)

        def recording_level(layout, node, nodes):
            relevelled.append(node)
            return real_level(layout, node, nodes)

        monkeypatch.setattr(ledger_mod, "depth_layout", counting_layout)
        monkeypatch.setattr(ledger_mod._Layout, "level", recording_level)
        for fmt in ("text", "dot"):
            layouts = 0
            export_trace(load_ledger(ledger_path), fmt)
            assert layouts == 1
        relevelled.clear()
        counts = []
        for i, _ in enumerate(ledger_mod._layouts(frames, "text")):
            if i not in changes:
                assert relevelled == []
                continue
            old, new = frames[i - 1], frames[i]
            levels = [oracle_levels(list(f.node_states), f.edges) for f in (old, new)]
            came = new.node_states.keys() - old.node_states.keys()
            touched = came | {node for _, node in set(old.edges) ^ set(new.edges)}
            moved = {nid for nid in levels[0].keys() & levels[1].keys()
                     if levels[0][nid] != levels[1][nid]}
            pushed = {node for dep, node in new.edges if dep in moved}
            bound = (touched | pushed) & new.node_states.keys()
            assert len(relevelled) == len(set(relevelled))
            assert set(relevelled) <= bound
            counts.append(len(relevelled))
            relevelled.clear()
        # The first split lifts every statement above the new helper; each later one
        # re-levels only its new helper and S0.
        assert counts == [self.STATEMENTS + 1] + [2] * (self.SPLITS - 1)

    def test_trace_renders_a_node_line_only_where_its_level_or_status_changed(self, tmp_path,
                                                                              monkeypatch):
        """The first frame renders every node line.  After it, a status-only frame renders
        the lines of its changed statuses, and a structure frame those of its new ids,
        its re-levelled ids and its changed statuses, each once, in text and DOT alike."""
        ledger_path, _ = self.run_replan(tmp_path)
        frames = load_ledger(ledger_path).frames
        rendered = []
        real_render = ledger_mod._Layout.render

        def recording_render(layout, level, node, status):
            rendered.append(node)
            return real_render(layout, level, node, status)

        monkeypatch.setattr(ledger_mod._Layout, "render", recording_render)
        for fmt in ("text", "dot"):
            kinds = []
            for i, _ in enumerate(ledger_mod._layouts(frames, fmt)):
                new = frames[i].node_states
                old = frames[i - 1].node_states if i else {}
                expected = {nid for nid, status in new.items() if old.get(nid) != status}
                if i and (frames[i].edges != frames[i - 1].edges or new.keys() != old.keys()):
                    levels = [oracle_levels(list(f.node_states), f.edges)
                              for f in frames[i - 1:i + 1]]
                    expected |= {nid for nid in new if levels[0].get(nid) != levels[1][nid]}
                    kinds.append("structure")
                elif i:
                    kinds.append("statuses")
                assert len(rendered) == len(set(rendered))
                assert set(rendered) == expected
                rendered.clear()
            assert kinds.count("structure") == self.SPLITS
            assert kinds.count("statuses") == len(frames) - 1 - self.SPLITS

    def test_a_loaded_frame_is_patched_from_what_its_delta_names(self, tmp_path, monkeypatch):
        """After the first frame, no frame's statuses or edges are iterated.  A structure
        frame looks up only the ids its delta names, the ids whose level changed, the
        users of those, and the deps of all these; a status frame renders exactly the
        statuses its delta names and looks up none of the frame's.

        A call count cannot see O(N) work inside one C call, such as ``set(frame.edges)``
        or a key-view difference, so this guard counts what the frames themselves are
        asked: every full iteration, and every id looked up.
        """
        ledger_path, _ = self.run_replan(tmp_path)
        records = [r for r in read_ledger_records(ledger_path) if r["rec"] == "frame"]
        iterated, read, rendered = [], [], []

        class CountingStates(dict):
            def __iter__(self):
                iterated.append("states")
                return super().__iter__()

            def keys(self):
                iterated.append("states")
                return super().keys()

            def values(self):
                iterated.append("states")
                return super().values()

            def items(self):
                iterated.append("states")
                return super().items()

            def __getitem__(self, key):
                read.append(key)
                return super().__getitem__(key)

            def __contains__(self, key):
                read.append(key)
                return super().__contains__(key)

            def get(self, key, default=None):
                read.append(key)
                return super().get(key, default)

        class CountingEdges(tuple):
            def __iter__(self):
                iterated.append("edges")
                return super().__iter__()

        frames, counted = load_ledger(ledger_path).frames, []
        for frame in frames:
            change = frame.change and dataclasses.replace(frame.change,
                                                          basis=counted[-1].node_states)
            counted.append(ledger_mod.Frame(frame.index, CountingStates(frame.node_states),
                                            CountingEdges(frame.edges), frame.plan_revision,
                                            change))
        real_render = ledger_mod._Layout.render

        def recording_render(layout, level, node, status):
            rendered.append(node)
            return real_render(layout, level, node, status)

        monkeypatch.setattr(ledger_mod._Layout, "render", recording_render)
        kinds = []
        for i, _ in enumerate(ledger_mod._layouts(counted, "text")):
            if i:
                assert iterated == []
                old, new = frames[i - 1], frames[i]
                if new.edges == old.edges and new.node_states.keys() == old.node_states.keys():
                    assert read == [] and sorted(rendered) == sorted(records[i]["nodes"])
                    kinds.append("statuses")
                else:
                    levels = [oracle_levels(list(f.node_states), f.edges) for f in (old, new)]
                    moved = {nid for nid, level in levels[1].items()
                             if levels[0].get(nid) != level}
                    near = {*records[i]["nodes"], *records[i].get("deps", {}), *moved,
                            *(node for dep, node in new.edges if dep in moved)}
                    assert set(read) <= near | {dep for dep, node in new.edges if node in near}
                    kinds.append("structure")
            iterated.clear(), read.clear(), rendered.clear()
        assert kinds.count("structure") == self.SPLITS
        assert kinds.count("statuses") == len(frames) - 1 - self.SPLITS

    def test_a_structure_delta_interns_and_checks_only_the_pairs_of_its_deps(self, tmp_path,
                                                                             monkeypatch):
        """With nothing removed, a structure delta interns the pairs of its ``deps`` and
        the ids it names, and checks only those pairs for ids outside the frame."""
        ledger_path, _ = self.run_replan(tmp_path)
        interned, checked = [], []

        class CountingTable(dict):
            def setdefault(self, key, default=None):
                interned.append(key)
                return super().setdefault(key, default)

        real_check = ledger_mod._check_edges

        def recording_check(pairs, states):
            pairs = list(pairs)
            checked.extend(pairs)
            return real_check(pairs, states)

        monkeypatch.setattr(ledger_mod, "_check_edges", recording_check)
        shared, carried, previous, structures = CountingTable(), [], None, 0
        for record in read_ledger_records(ledger_path):
            if record["rec"] != "frame":
                continue
            interned.clear(), checked.clear()
            previous = ledger_mod.read_frame(record, previous, shared, carried)
            if record.keys().isdisjoint(("removed", "after", "deps")):
                assert "edges" in record or interned == checked == []
                continue
            assert "removed" not in record
            after, deps = record.get("after", {}), record.get("deps", {})
            pairs = sorted((dep, nid) for nid, listed in deps.items() for dep in listed)
            assert sorted(checked) == pairs
            assert sorted(key for key in interned if type(key) is tuple) == pairs
            named = {*record["nodes"], *after, *deps, *(dep for dep, _ in pairs)}
            ids = [key for key in interned if type(key) is str]
            assert set(ids) <= named and len(ids) <= len(after) + len(deps) + len(pairs)
            structures += 1
        assert structures == self.SPLITS

    def test_the_writer_serialises_edges_once_per_run(self, tmp_path, monkeypatch):
        """Only the first frame holds the edge list; a diff's frame holds the deps that changed."""
        serialised = 0
        real_encode = ledger_mod.encode_json

        def counting_encode(obj):
            nonlocal serialised
            if isinstance(obj, list) or (isinstance(obj, dict) and "edges" in obj):
                serialised += 1
            return real_encode(obj)

        monkeypatch.setattr(ledger_mod, "encode_json", counting_encode)
        ledger_path, ledger = self.run_replan(tmp_path)
        monkeypatch.undo()
        revisions = {frame.plan_revision for frame in ledger.frames}
        assert len(revisions) == 1 + self.SPLITS
        assert serialised == 1
        assert verify_replay(read_ledger_records(ledger_path)) == (len(ledger.frames),
                                                                   self.SPLITS)

    def test_a_diff_does_work_in_proportion_to_what_it_changes(self, tmp_path, monkeypatch):
        """Each diff pushes onto the sort's heap, writes entries of the dependents map and
        has its frame record read statuses, each at most as many times as it names ids,
        re-sorts ids of the order and resets statuses, together.  The map of the plan
        before is left as it was: its lists are copied, never changed."""
        pushes: list[str] = []
        steps = []  # per diff: the plan before and after, the diff, the ids pushed
        real_push, real_apply = plan_mod.heappush, plan_mod.apply_diff

        def counting_push(heap, item):
            pushes.append(item[1])
            real_push(heap, item)

        def recording_apply(plan, diff):
            before = {node_id: list(users) for node_id, users in plan.dependents.items()}
            pushes.clear()
            new_plan, invalidated = real_apply(plan, diff)
            assert plan.dependents == before
            steps.append((plan, new_plan, diff, pushes[:]))
            return new_plan, invalidated

        reads: list[list[str]] = []
        real_record = ledger_mod.frame_record

        def logged_record(previous, frame, change=None):
            if previous is None or previous.plan_revision == frame.plan_revision:
                return real_record(previous, frame, change)
            reads.append([])
            previous, frame = (ledger_mod.Frame(f.index, LookupLog(f.node_states, reads[-1]),
                                                f.edges, f.plan_revision)
                               for f in (previous, frame))
            return real_record(previous, frame, change)

        monkeypatch.setattr(plan_mod, "heappush", counting_push)
        monkeypatch.setattr(looper_mod, "apply_diff", recording_apply)
        monkeypatch.setattr(ledger_mod, "frame_record", logged_record)
        self.run_replan(tmp_path)
        assert len(steps) == len(reads) == self.SPLITS
        for (old, new, diff, pushed), read in zip(steps, reads):
            named = {*(node.node_id for node in diff.adds), *diff.removes,
                     *(rewrite.node_id for rewrite in diff.rewrites)}
            kept = [node_id for node_id in old.order if node_id not in diff.removes]
            same = 0  # the ids the two orders share at their start, then at their end
            while same < len(kept) and kept[same] == new.order[same]:
                same += 1
            tail = 0
            while tail < len(kept) - same and kept[-1 - tail] == new.order[-1 - tail]:
                tail += 1
            span = new.order[same:len(new.order) - tail]
            reset = [node_id for node_id in kept
                     if old.nodes[node_id].status is not new.nodes[node_id].status]
            bound = len(named) + len(span) + len(reset)
            written = [node_id for node_id, users in new.dependents.items()
                       if users is not old.dependents.get(node_id)]
            assert len(pushed) <= bound and len(written) <= bound and len(read) <= 2 * bound
            assert set(read) <= named | set(reset)

    def test_anchor_id_does_not_iterate_the_order(self, tmp_path, monkeypatch):
        iterations = 0

        class CountingOrder(tuple):
            def __iter__(self):
                nonlocal iterations
                iterations += 1
                return super().__iter__()

        real_sort = plan_mod._sort

        def counting_sort(*args):
            order, *span = real_sort(*args)
            return (CountingOrder(order), *span)

        monkeypatch.setattr(plan_mod, "_sort", counting_sort)
        real_anchor_id = plan_mod.ProofPlan.anchor_id
        lookups = []

        def counted_anchor_id(plan):
            before = iterations
            anchor_id = real_anchor_id.fget(plan)
            lookups.append(iterations - before)
            return anchor_id

        monkeypatch.setattr(plan_mod.ProofPlan, "anchor_id", property(counted_anchor_id))
        self.run_replan(tmp_path)
        # the initial plan's check and event, and one in each diff's apply_diff
        assert len(lookups) >= 2 + self.SPLITS
        assert set(lookups) == {0}

    def test_replanning_removes_only_files_that_exist(self, tmp_path, monkeypatch):
        writes: list[str] = []
        removes: list[str] = []
        real_write = Workspace.write_node_source
        real_remove = Workspace.remove_node_source

        def counting_write(ws, node_id, *args, **kwargs):
            writes.append(node_id)
            return real_write(ws, node_id, *args, **kwargs)

        def counting_remove(ws, node_id):
            removes.append(node_id)
            return real_remove(ws, node_id)

        monkeypatch.setattr(Workspace, "write_node_source", counting_write)
        monkeypatch.setattr(Workspace, "remove_node_source", counting_remove)
        self.run_replan(tmp_path)
        # Each diff invalidates the split root and every statement under it, but
        # only the root has a file; a restated helper has one too.
        assert removes == [stale for k in range(1, self.SPLITS + 1)
                           for stale in ["S0"] + ([f"X{k - 1}"] if k % 3 == 0 else [])]
        assert len(writes) == 2 * self.SPLITS + 1 + self.RESTATED
        on_disk = sorted(path.stem for path in (tmp_path / "ws").rglob("*.lean"))
        assert on_disk == ["S0"] + sorted(f"X{k}" for k in range(1, self.SPLITS + 1))


class LookupLog(dict):
    """A node or status map that logs each id looked up in it.  Copies and iteration
    are not logged: only lookups name the ids whose status is read."""

    def __init__(self, items, log: list):
        super().__init__(items)
        self.log = log

    def __getitem__(self, key):
        self.log.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.log.append(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.log.append(key)
        return super().__contains__(key)


def merge_two_status_frames(records: list[dict]) -> int:
    """Make the frames of the first two status events in a row, each the only event
    since the frame before, one delta that lists both, and renumber the frames after
    it.  Returns the position of the first of the two among the status events."""
    status_events: list[str] = []
    since: list[str] = []  # the status events since the last frame, or a diff's mark
    last = None  # the last frame, and the status events before it
    for position, record in enumerate(records):
        if record["rec"] == "event":
            if record["kind"] in (EventKind.NODE_CLOSED.value, EventKind.NODE_FAILING.value) or (
                    record["kind"] == EventKind.CHECK_FAIL.value
                    and record["detail"].startswith(ledger_mod.AUDIT_DETAIL)):
                status_events.append(record["node"])
                since.append(record["node"])
            elif record["kind"] in (EventKind.PLAN_CREATED.value, EventKind.DIFF_APPLIED.value):
                since.append("")
        elif record["rec"] == "frame":
            if (last and len(last[1]) == len(since) == 1 and "" not in last[1] + since
                    and last[1] != since):
                first = records.pop(last[0])
                record["nodes"] = {**first["nodes"], **record["nodes"]}
                for later in records[last[0]:]:
                    if later["rec"] == "frame":
                        later["index"] -= 1
                return len(status_events) - 2
            last, since = (position, since), []
    raise AssertionError("no two status frames in a row")


class TestStatusStepGuard:
    """A status frame reads the statuses of the nodes whose status changed, from the
    plan and from the frame before it, and no other, in the writer and in replay."""

    # Runs whose status steps are closes, closes between diffs, a failing mark, and the
    # audit-fail reopen.
    RUNS = {"wide": lambda: (TestLinearBuildGuard().wide_fixture(), cfg()),
            "replan": lambda: (replan_fixture(20, 4), cfg(replan_limit=4)),
            "exhaustion": lambda: (TestExhaustionPath().exhaust_fixture(), cfg()),
            "audit-reopen": lambda: (TestAuditFailRecovery().reopen_fixture(), cfg())}

    # Each run as written, and the wide run's ledger with the frames of two status
    # events made one, which replay derives from those two ids.
    @pytest.mark.parametrize("shape, merged", [*((shape, False) for shape in RUNS),
                                               ("wide", True)], ids=[*RUNS, "two-events"])
    def test_a_status_frame_reads_only_the_changed_status(self, tmp_path, monkeypatch, shape,
                                                          merged):
        plan_log: list[str] = []
        frame_log: list[str] = []
        reads: list[tuple[list[str] | None, list[str], list[str]]] = []  # per frame
        real_set_status, real_frame_of = plan_mod.set_status, ledger_mod.frame_of
        real_frame_record = ledger_mod.frame_record

        def logged_set_status(plan, node_id, status):
            plan = real_set_status(plan, node_id, status)
            return dataclasses.replace(plan, nodes=LookupLog(plan.nodes, plan_log))

        def logged_frame_of(plan, index, previous=None, change=None):
            plan_log.clear(), frame_log.clear()
            frame = real_frame_of(plan, index, previous, change)
            return ledger_mod.Frame(frame.index, LookupLog(frame.node_states, frame_log),
                                    frame.edges, frame.plan_revision)

        def logged_frame_record(previous, frame, change=None):
            record = real_frame_record(previous, frame, change)
            status_step = previous is not None and previous.plan_revision == frame.plan_revision
            reads.append((list(change.statuses) if status_step else None, plan_log[:],
                          frame_log[:]))
            return record

        fixture, config = self.RUNS[shape]()
        for module in (looper_mod, ledger_mod):
            monkeypatch.setattr(module, "set_status", logged_set_status)
        monkeypatch.setattr(ledger_mod, "frame_of", logged_frame_of)
        monkeypatch.setattr(ledger_mod, "frame_record", logged_frame_record)
        _, ledger, ledger_path = run_fixture(tmp_path, fixture, config)
        written = reads[:]
        reads.clear()
        status_steps = [event.node_id for event in ledger.events
                        if event.kind in (EventKind.NODE_CLOSED, EventKind.NODE_FAILING)
                        or (event.kind is EventKind.CHECK_FAIL
                            and event.detail.startswith(ledger_mod.AUDIT_DETAIL))]
        assert len(status_steps) >= 2
        steps = [[node_id] for node_id in status_steps]
        records = list(read_ledger_records(ledger_path))
        if merged:
            first = merge_two_status_frames(records)
            steps[first:first + 2] = [status_steps[first:first + 2]]
        assert verify_replay(records)[0] == len(ledger.frames) - merged
        for frames, expected in ((written, [[node_id] for node_id in status_steps]),
                                 (reads, steps)):
            assert [changed for changed, _, _ in frames if changed is not None] == expected
            for changed, from_plan, from_frames in frames:
                if changed is not None:
                    assert from_plan == changed and set(from_frames) == set(changed)


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", REPO_ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkTracerTargets:
    """The benchmark wraps names where the loop resolves them; a refactor must keep them."""

    def test_tracer_installs_and_uninstalls_on_every_target(self):
        tracing = load_perfbench("tracing")
        originals = [(owner, attr, owner.__dict__[attr])
                     for owner, attr, _, _ in tracing._targets()]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert all(owner.__dict__[attr] is not original
                       for owner, attr, original in originals)
        finally:
            tracer.uninstall()
        assert all(owner.__dict__[attr] is original for owner, attr, original in originals)

    def test_a_traced_run_records_the_loop_layers(self, tmp_path):
        builder = FixtureBuilder()
        builder.initial(PlanDiff(adds=(mk_node("Main", anchor=anchor_decl("Main")),)))
        builder.lean("Main", main_clean_src())
        builder.check("Main", CheckKind.FAITHFULNESS, False, "weakened")
        builder.revise("Main", PlanDiff(
            rewrites=(NodeRewrite("Main", "statement Main", "keep the statement", ()),),
            cause=DiffCause.FAITHFULNESS_FAIL))
        builder.lean("Main", main_clean_src())
        builder.check("Main", CheckKind.FAITHFULNESS, True)
        tracing = load_perfbench("tracing")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            outcome, _, _ = run_fixture(tmp_path, builder.fixture)
        finally:
            tracer.uninstall()
        assert outcome.verdict is Verdict.SOLVED
        names = {span[0] for span in tracer.spans}
        assert {"agents.invoke", "agents.context", "plan.select", "plan.set_status",
                "plan.apply_diff", "plan.serialize", "leanenv.build", "leanenv.scan",
                "leanenv.write", "leanenv.audit", "ledger.event", "ledger.frame",
                "ledger.usage"} - names == set()


class TestBenchmarkRunContract:
    """The benchmark checks each run on the ledger ``run()`` returns: its ``frames``,
    ``events`` and ``usage_records``. A refactor must keep them."""

    def test_one_burnside_iteration_passes_the_benchmark_checks(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))  # bench.py imports its siblings
        bench = load_perfbench("bench").Bench(REPO_ROOT, "burnside", 701, tmp_path)
        bench.iterate()
        assert bench.failures == []
        assert bench.attempted == 3  # run, replay and trace


class TestLinearityGate:
    """Work that grows faster than the plan, for the seed-701 benchmark shapes, counted
    exactly: the Python-level calls of a whole run, and the lines it executes in
    ``proofloop/plan.py``, ``leanenv.py`` and ``ledger.py``.

    Each count is taken as a measure that constant work cannot move.  ``wide`` does the
    same work for each statement, so linear work leaves nothing in the second difference
    over n = 100, 200 and 300, T(300) - 2*T(200) + T(100); quadratic work reads there.
    ``replan`` applies 64 diffs at every size, so its growth T(400) - T(100) holds no
    per-run or per-diff work, only work that grows with the plan.  A ratio of counts
    per unit rose whenever constant work per unit fell, so it could fail a change that
    removed work and pass one that added constant work together with growth.

    The counts do not move with the host, the filesystem or where collections land, and
    they read the same under every ``PYTHONHASHSEED``.  The line count sees a loop that
    makes no call, but only in those three modules (selection and plan mutation, the
    sim build, frames and replay), and neither count sees C-level work, such as
    ``set(frame.edges)``.  So this gate sits beside the
    counting guards of :class:`TestStructureWorkGuard`, not in their place.  Each
    ceiling is the count at the last change that lowered it; a change that makes the
    work more proportional lowers it, and none raises it.
    """

    # (size, weight) pairs of each measure, its ceilings (calls, lines), and the files
    # whose lines are counted
    MEASURES = {"wide": ((100, 1), (200, -2), (300, 1)), "replan": ((100, -1), (400, 1))}
    CEILINGS = {"wide": (0, 0), "replan": (67_190, 169_948)}
    LINE_FILES = frozenset(module.__file__ for module in (plan_mod, leanenv, ledger_mod))

    def counts(self, workloads, tmp_path, shape, n):
        """The calls of one run of ``shape`` at size ``n``, and its lines in ``LINE_FILES``."""
        inputs, prediction = getattr(workloads, shape)(tmp_path / f"{shape}{n}", 701, n)
        backend = ScriptedBackend(load_fixture(inputs.fixture_file))
        verifier = SimVerifier(load_sim_rules(inputs.rules_file))
        lines = 0

        def count_lines(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return count_lines

        def trace(frame, event, arg):  # a line tracer for the frames of the counted modules
            return count_lines if frame.f_code.co_filename in self.LINE_FILES else None

        # A collection calls the gc callbacks that other libraries install (hypothesis
        # does), at points that move with the heap, so they are left out of the run.
        profile, saved, callbacks = cProfile.Profile(), sys.gettrace(), gc.callbacks[:]
        gc.callbacks.clear()
        sys.settrace(trace)
        profile.enable()
        try:
            outcome, _ = run(inputs.input_file, backend, verifier, LoopConfig(),
                             workspace_dir=tmp_path / f"ws{n}",
                             ledger_path=tmp_path / f"{n}.jsonl")
        finally:
            profile.disable()
            sys.settrace(saved)
            gc.callbacks[:] = callbacks
        assert outcome.verdict.value == prediction.verdict
        return pstats.Stats(profile).total_calls, lines

    @pytest.mark.parametrize("shape", ["wide", "replan"])
    def test_work_grows_at_most_by_the_ceilings(self, tmp_path, monkeypatch, shape):
        monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))  # its dataclasses need a module
        workloads = importlib.import_module("workloads")
        self.counts(workloads, tmp_path, shape, 20)  # the first run fills the caches
        calls = lines = 0
        for n, weight in self.MEASURES[shape]:
            run_calls, run_lines = self.counts(workloads, tmp_path, shape, n)
            calls += weight * run_calls
            lines += weight * run_lines
        call_ceiling, line_ceiling = self.CEILINGS[shape]
        assert calls <= call_ceiling
        assert lines <= line_ceiling


class TestTrafficProbe:
    def test_a_burnside_run_lists_the_statements_it_never_executes(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "traffic.py"), "--workload", "burnside"],
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        missed: dict[str, set[int]] = {}  # module -> the lines listed
        for line in result.stdout.splitlines():
            module, _, ranges = line.partition(": ")
            assert re.fullmatch(r"\d+(?:-\d+)?(?:, \d+(?:-\d+)?)*", ranges), line
            missed[module] = set()
            for part in ranges.split(", "):
                first, _, last = part.partition("-")
                missed[module].update(range(int(first), int(last or first) + 1))
        # The benchmark never imports the CLI; every other module runs at import.
        assert missed["cli.py"] == set(range(1, max(missed["cli.py"]) + 1))
        assert "__init__.py" not in missed
        source = (REPO_ROOT / "src" / "proofloop" / "leanenv.py").read_text().splitlines()
        number = {text.strip(): i for i, text in enumerate(source, 1)}
        assert number['raise IoError(f"cannot read {path}: {exc}") from exc'] in missed["leanenv.py"]
        assert number["while ws.dirty:"] not in missed["leanenv.py"]


class TestGcTicksProbe:
    def test_one_burnside_iteration_prints_its_ticks_and_timed_calls(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "gc_ticks.py"), "--workload", "burnside",
             "--seed", "701", "--iterations", "1"],
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        calls = r"(?: \| \w+ \d+\.\d{3}s raw \d+\.\d{3}s scaled (?:-|G+))"
        assert re.fullmatch(rf"iteration 1: ticks [.G]{{3}}{calls}{{3}}\nclosing tick: [.G]\n",
                            result.stdout)
        assert [cell.split()[0] for cell in result.stdout.split(" | ")[1:]] == [
            "run_s", "replay_s", "trace_s"]

    def test_a_seed_range_prints_the_seeds_per_pattern(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "gc_ticks.py"), "--workload", "burnside",
             "--seeds", "701-702", "--iterations", "2"],
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        (workload, patterns), = json.loads(result.stdout).items()
        assert workload == "burnside"
        assert sum(patterns.values()) == 2
        assert all(re.fullmatch(r"[.G]{3} [.G]{3} close [.G]", pattern) for pattern in patterns)
