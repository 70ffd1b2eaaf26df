import gc
import io
import json
import random
import statistics
import tempfile
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    BURNSIDE_DIR, SIMPLE_INPUT, anchor_decl, chain_plan, expand_deltas, mk_node, oracle_frames,
    oracle_cost, oracle_delta, oracle_delta_accepted, oracle_ledger_records, oracle_levels,
    oracle_trace, random_dag_plan, random_diff, random_split_diff, replan_fixture,
)
import proofloop.ledger as ledger_mod
from proofloop.agents import TOKEN_CLASSES, ScriptedBackend, TokenUsage, load_fixture
from proofloop.leanenv import SimVerifier, load_sim_rules
from proofloop.looper import LoopConfig, run
from proofloop.ledger import (
    CostModel,
    EmptyInput,
    EventKind,
    FRAME_STATUS,
    Frame,
    LedgerClosed,
    LedgerError,
    Outcome,
    ReplayMismatch,
    RunLedger,
    StopReason,
    UnsolvedIncluded,
    UnsupportedFormat,
    Verdict,
    aggregate_stats,
    cost,
    depth_layout,
    export_trace,
    frame_of as ledger_frame_of,
    frame_record,
    load_ledger,
    open_ledger,
    read_frame,
    read_ledger_records,
    render_stats_row,
    verify_replay,
)
from proofloop.plan import (
    Change,
    CycleError,
    DiffCause,
    NodeRewrite,
    PlanDiff,
    PlanError,
    Status,
    apply_diff,
    create_plan,
    derive_change,
    diff_to_text,
    encode_json,
    plan_to_text,
    set_status,
)


real_frame_of = ledger_mod.frame_of


def frame_of(nodes: dict[str, str], edges: list[tuple[str, str]], index: int = 0) -> Frame:
    return Frame(index, nodes, tuple(edges), 0)


class TestRecording:
    def test_events_and_frames_accumulate(self):
        ledger = open_ledger("r1")
        plan = chain_plan(["A", "B"])
        ledger.record_event(EventKind.PLAN_CREATED, None, "x")
        ledger.snapshot_frame(plan)
        plan = set_status(plan, "A", Status.CLOSED)
        ledger.record_event(EventKind.NODE_CLOSED, "A")
        ledger.snapshot_frame(plan, Change(("A",)))
        assert [f.index for f in ledger.frames] == [0, 1]
        assert ledger.frames[1].node_states == {"A": "formalized", "B": "not-yet"}
        assert ledger.frames[1].edges == (("A", "B"),)

    def test_a_later_frame_without_the_change_of_its_step_is_refused(self):
        """After the first frame, a plan that carries no change (a created one) needs the
        change of its step; without one nothing is written."""
        sink = io.StringIO()
        ledger = RunLedger("r1", _sink=sink)
        ledger.snapshot_frame(chain_plan(["A"]))
        with pytest.raises(ValueError, match="change of its step"):
            ledger.snapshot_frame(set_status(chain_plan(["A"]), "A", Status.CLOSED))
        assert len(ledger.frames) == 1 and len(sink.getvalue().splitlines()) == 1

    def test_closed_ledger_rejects_writes(self):
        ledger = open_ledger("r1")
        ledger.record_event(EventKind.PLAN_CREATED)
        ledger.snapshot_frame(chain_plan(["A"]))
        ledger.record_usage("lean", None, "A", TokenUsage(10, 1, 0, 0), 0.1)
        outcome = Outcome("solved", None, 1.0, 1, 0)
        ledger.record_outcome(outcome)
        state = (list(ledger.events), list(ledger.frames), list(ledger.usage_records))
        writes = [
            lambda: ledger.record_event(EventKind.RESTART),
            lambda: ledger.snapshot_frame(chain_plan(["A"]), Change(("A",))),
            lambda: ledger.record_usage("check", "math", "A", TokenUsage(5, 2, 7, 0), 0.1),
            lambda: ledger.record_outcome(Outcome("unfinished", "time-budget", 2.0, 1, 0)),
        ]
        for write in writes:
            with pytest.raises(LedgerClosed):
                write()
            assert (ledger.events, ledger.frames, ledger.usage_records) == state
            assert ledger.outcome is outcome

    def test_a_record_the_sink_cannot_write_changes_nothing(self):
        ledger = open_ledger("r1")
        ledger._sink = io.StringIO()
        ledger._sink.close()  # every write now raises ValueError
        for write in (lambda: ledger.record_event(EventKind.RESTART),
                      lambda: ledger.snapshot_frame(chain_plan(["A"])),
                      lambda: ledger.record_usage("lean", None, "A", TokenUsage(1, 0, 0, 0), 0.1),
                      lambda: ledger.record_outcome(Outcome("solved", None, 1.0, 1, 0))):
            with pytest.raises(ValueError):
                write()
        assert (ledger.events, ledger.frames, ledger.usage_records, ledger.outcome) == (
            [], [], [], None)

    def test_usage_total_sums_records(self):
        ledger = open_ledger("r1")
        ledger.record_usage("lean", None, "A", TokenUsage(10, 1, 0, 0), 0.1)
        ledger.record_usage("check", "math", "A", TokenUsage(5, 2, 7, 0), 0.1)
        assert ledger.usage_total == TokenUsage(15, 3, 7, 0)


class TestLedgerFile:
    def test_mid_run_read_is_a_prefix(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = open_ledger("r1", path)
        ledger.record_event(EventKind.PLAN_CREATED, None, "start")
        ledger.snapshot_frame(chain_plan(["A"]))
        first = list(read_ledger_records(path))
        ledger.record_event(EventKind.NODE_CLOSED, "A")
        ledger.record_outcome(Outcome("solved", None, 2.0, 1, 0))
        final = list(read_ledger_records(path))
        assert final[:len(first)] == first
        assert len(final) > len(first)

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = open_ledger("r1", path)
        ledger.record_event(EventKind.PLAN_CREATED, None, "start")
        ledger.record_outcome(Outcome("solved", None, 2.0, 1, 0))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"rec": "event", "kind": "Nod')
        records = list(read_ledger_records(path))
        assert records[-1]["rec"] == "outcome"

    def test_corrupt_line_before_the_last_is_an_error(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = open_ledger("r1", path)
        ledger.record_event(EventKind.PLAN_CREATED, None, "start")
        ledger.record_outcome(Outcome("solved", None, 2.0, 1, 0))
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1][:len(lines[1]) // 2]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(LedgerError, match="line 2"):
            list(read_ledger_records(path))

    @pytest.mark.parametrize("line", ["[1, 2]", '"text"', "7", "null"])
    def test_a_line_that_is_not_an_object_is_an_error(self, tmp_path, line):
        path = tmp_path / "run.jsonl"
        ledger = open_ledger("r1", path)
        ledger.record_outcome(Outcome("solved", None, 2.0, 1, 0))
        with path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        with pytest.raises(LedgerError, match="not a JSON object"):
            list(read_ledger_records(path))

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = open_ledger("r7", path)
        ledger.record_usage("lean", None, "A", TokenUsage(3, 4, 5, 6), 0.2)
        ledger.record_event(EventKind.BUDGET_STOP, None, "time-budget: t")
        ledger.record_outcome(Outcome("unfinished", "time-budget", 9.5, 4, 2))
        loaded = load_ledger(path)
        assert loaded.run_id == "r7"
        assert loaded.usage_total == TokenUsage(3, 4, 5, 6)
        assert loaded.outcome.reason is StopReason.TIME_BUDGET
        assert loaded.outcome.verdict is Verdict.UNFINISHED
        assert loaded.outcome.final_plan_revision == 2
        assert loaded.events[0].kind is EventKind.BUDGET_STOP

    @pytest.mark.parametrize("verdict, reason", [
        ("solved", "time-budget"), ("unfinished", None), ("done", None),
        ("unfinished", "out-of-coffee"),
    ])
    def test_load_rejects_an_outcome_the_run_cannot_write(self, tmp_path, verdict, reason):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps({"rec": "run", "version": 1, "run_id": "r"}) + "\n"
                        + json.dumps({"rec": "outcome", "verdict": verdict, "reason": reason,
                                      "wall_clock": 1.0, "statement_count": 1, "revision": 0})
                        + "\n", encoding="utf-8")
        with pytest.raises(LedgerError, match="malformed ledger record"):
            load_ledger(path)


# Text that JSON escapes, or that str.isspace or str.splitlines takes for whitespace or a
# line end, but json.loads and a file's lines do not.
_AWKWARD = "\u2028\u2029\u0085\x0c\x1c\ud800\udc80\"\\\n\t"
_JSON_TEXT = st.text(st.one_of(st.characters(max_codepoint=0x3000), st.sampled_from(_AWKWARD)),
                     max_size=6)
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20), st.floats(), _JSON_TEXT),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(_JSON_TEXT, children,
                                                                       max_size=3),
    max_leaves=6)
# How a record's line is written: (text before it, the value in place of the record or
# None, text after it).
_LINE_SHAPES = st.one_of(
    st.just(("", None, "")),
    st.tuples(st.text(" \t\r\n", min_size=1, max_size=2), st.none(), st.just("")),
    st.tuples(st.just(""), st.none(), st.text(" \t\r", min_size=1, max_size=2)),
    st.tuples(st.just(""), st.none(), st.sampled_from(
        ["\u0085", "\u2028", "\x0c", "\x1c", " \u2028", "\u2029 "])),
    st.tuples(st.just(""), st.none(), st.sampled_from([" {}", "1", ' "x"', "[]", "{"])),
    st.tuples(st.just(""), _JSON_VALUES.filter(lambda value: type(value) is not dict),
              st.just("")),
)
_BLANK_LINES = st.sampled_from(["", " ", "\t", "\x0c", "\u2028", "\u0085 "])


def _json_line(value, ascii_only: bool) -> str:
    """``value`` as JSON; a lone surrogate, which UTF-8 cannot hold, is always escaped."""
    text = json.dumps(value, ensure_ascii=ascii_only)
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        text = json.dumps(value)
    return text


class TestSharedEncoder:
    @given(_JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_the_shared_encoder_writes_what_json_dumps_writes(self, value):
        """The writer's encoder, built once, gives the bytes json.dumps(..., ensure_ascii=False)
        builds a new encoder for."""
        assert encode_json(value) == json.dumps(value, ensure_ascii=False)


class TestReaderEqualsJsonLoads:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_each_line_reads_as_json_loads_reads_it(self, data):
        """The same records, and the same LedgerError at the same line, as json.loads
        reading one line at a time."""
        lines = []
        for _ in range(data.draw(st.integers(1, 5))):
            if data.draw(st.integers(0, 5)) == 0:
                lines.append(data.draw(_BLANK_LINES) + "\n")
            record = data.draw(st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=3))
            before, value, after = data.draw(_LINE_SHAPES)
            body = _json_line(record if value is None else value, data.draw(st.booleans()))
            lines.append(before + body + after + "\n")
        if data.draw(st.booleans()):  # the last line cut, as a crash leaves it
            lines[-1] = lines[-1][:data.draw(st.integers(0, len(lines[-1]) - 1))]
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "run.jsonl"
            path.write_bytes("".join(lines).encode("utf-8"))
            expected, fault = oracle_ledger_records(path)
            records, error = [], None
            try:
                for record in read_ledger_records(path):
                    records.append(record)
            except LedgerError as exc:
                error = str(exc)
        assert (repr(records), error) == (repr(expected), fault)  # repr: NaN is not NaN


class TestDepthLayout:
    def test_dep_free_nodes_sit_at_level_zero(self):
        frame = frame_of({"a": "not-yet", "b": "not-yet"}, [])
        assert depth_layout(frame) == {"a": 0, "b": 0}

    def test_chain_of_three(self):
        frame = frame_of({"a": "not-yet", "b": "not-yet", "c": "not-yet"},
                         [("a", "b"), ("b", "c")])
        assert depth_layout(frame) == {"a": 0, "b": 1, "c": 2}

    def test_diamond_with_shortcut_uses_deepest_dependency(self):
        frame = frame_of({n: "not-yet" for n in "abcd"},
                         [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("a", "d")])
        levels = depth_layout(frame)
        assert levels["d"] == 2
        assert levels == oracle_levels(list("abcd"), list(frame.edges))

    def test_cycle_detected(self):
        frame = frame_of({"a": "not-yet", "b": "not-yet", "c": "not-yet"},
                         [("a", "b"), ("b", "a"), ("a", "c")])
        with pytest.raises(CycleError) as exc:
            depth_layout(frame)
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1] and set(cycle) == {"a", "b"}

    def test_matches_relaxation_oracle_on_random_dags(self):
        rng = random.Random(4242)
        for _ in range(60):
            count = rng.randint(1, 40)
            ids = [f"n{i}" for i in range(count)]
            edges = []
            for i in range(count):
                for j in rng.sample(range(i), min(i, rng.randint(0, 3))):
                    edges.append((ids[j], ids[i]))
            # The topological order, its reverse and a shuffle: one result for any order.
            shuffled = rng.sample(ids, count)
            for order in (ids, ids[::-1], shuffled):
                frame = frame_of({n: "not-yet" for n in order}, rng.sample(edges, len(edges)))
                assert depth_layout(frame) == oracle_levels(ids, edges)

    @pytest.mark.parametrize("order", ["cab", "abc", "bca"])
    def test_a_cycle_below_a_dependent_is_reported_closed(self, order):
        frame = frame_of({n: "not-yet" for n in order}, [("a", "b"), ("b", "a"), ("b", "c")])
        with pytest.raises(CycleError) as exc:
            depth_layout(frame)
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1] and set(cycle) == {"a", "b"} and len(cycle) == 3

    def test_a_self_dependency_is_a_cycle(self):
        frame = frame_of({"a": "not-yet", "b": "not-yet"}, [("a", "b"), ("b", "b")])
        with pytest.raises(CycleError) as exc:
            depth_layout(frame)
        assert exc.value.cycle == ["b", "b"]


RATES = CostModel(Decimal("15"), Decimal("75"), Decimal("1.50"), Decimal("18.75"))


class TestCost:
    def test_zero_usage_costs_nothing(self):
        assert cost(TokenUsage(), RATES) == Decimal("0.00")

    def test_one_million_prompt_tokens_at_unit_rate(self):
        assert cost(TokenUsage(prompt=1_000_000), RATES) == Decimal("15.00")

    def test_rounding_is_half_up(self):
        # 300 prompt tokens at $15/M = $0.0045 -> 0.00; 334 -> 0.00501 -> 0.01
        assert cost(TokenUsage(prompt=300), RATES) == Decimal("0.00")
        assert cost(TokenUsage(prompt=334), RATES) == Decimal("0.01")
        # exactly half a cent rounds up
        model = CostModel(Decimal("1"), Decimal(0), Decimal(0), Decimal(0))
        assert cost(TokenUsage(prompt=5_000), model) == Decimal("0.01")

    def test_mixed_classes(self):
        usage = TokenUsage(1_000_000, 1_000_000, 2_000_000, 400_000)
        assert cost(usage, RATES) == Decimal("15.00") + Decimal("75.00") + Decimal("3.00") + Decimal("7.50")

    @given(st.tuples(*(st.integers(0, 10**7) for _ in range(4))),
           st.tuples(*(st.integers(0, 10**7) for _ in range(4))))
    @settings(max_examples=80, deadline=None)
    def test_additivity_within_one_cent_per_addend(self, a, b):
        ua, ub, both = TokenUsage(*a), TokenUsage(*b), TokenUsage(*(x + y for x, y in zip(a, b)))
        drift = abs(cost(both, RATES) - (cost(ua, RATES) + cost(ub, RATES)))
        assert drift <= Decimal("0.02")

    @given(st.lists(st.builds(TokenUsage, *(st.integers(0, 10**9) for _ in TOKEN_CLASSES)),
                    max_size=8),
           st.tuples(*(st.decimals(0, 1000, places=4) for _ in TOKEN_CLASSES)))
    @example([TokenUsage(5_000)], (Decimal(1), Decimal(0), Decimal(0), Decimal(0)))  # half a cent
    @settings(max_examples=100, deadline=None)
    def test_usage_survives_the_ledger_and_prices_like_the_oracle(self, usages, rates):
        sums = tuple(sum(getattr(usage, name) for usage in usages) for name in TOKEN_CLASSES)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ledger.jsonl"
            ledger = open_ledger("r", path)
            for usage in usages:
                ledger.record_usage("lean", None, "A", usage, 0.1)
            assert ledger.usage_total == TokenUsage(*sums)
            ledger.record_outcome(Outcome("solved", None, 1.0, 1, 0))
            *_, outcome = read_ledger_records(path)
            loaded = load_ledger(path)
        assert outcome["usage_total"] == dict(zip(TOKEN_CLASSES, sums))
        assert [record.usage for record in loaded.usage_records] == usages
        assert loaded.usage_total == TokenUsage(*sums)
        assert Fraction(cost(loaded.usage_total, CostModel(*rates))) == oracle_cost(sums, rates)

    def test_a_rate_outside_the_rules_is_named_by_class(self):
        with pytest.raises(LedgerError, match="rate for cache_write"):
            CostModel(1, 2, 3, "NaN")
        with pytest.raises(ValueError):
            CostModel(1, 2, 3)


def solved_ledger(hours: float, statements: int, run_id: str = "r") -> RunLedger:
    ledger = RunLedger(run_id=run_id)
    ledger.outcome = Outcome("solved", None, hours * 3600.0, statements, 1)
    return ledger


class TestStats:
    def test_constant_times(self):
        stats = aggregate_stats([solved_ledger(2, 4) for _ in range(3)])
        assert stats.mean_time_h == pytest.approx(2.0)
        assert stats.std_time_h == 0.0
        assert stats.median_time_h == pytest.approx(2.0)

    def test_two_runs_midpoint_median(self):
        stats = aggregate_stats([solved_ledger(1, 2), solved_ledger(3, 2)])
        assert stats.mean_time_h == pytest.approx(2.0)
        assert stats.median_time_h == pytest.approx(2.0)
        assert (stats.min_time_h, stats.max_time_h) == (1.0, 3.0)
        assert stats.std_time_h == pytest.approx(statistics.stdev([1.0, 3.0]))

    def test_minutes_per_statement_is_the_mean_of_per_run_ratios(self):
        stats = aggregate_stats([solved_ledger(1, 6), solved_ledger(2, 4)])
        assert stats.mean_min_per_stmt == pytest.approx(
            statistics.mean([60 / 6, 120 / 4]))

    def test_solved_run_without_statements_is_a_ledger_error(self):
        with pytest.raises(LedgerError, match="no statements"):
            aggregate_stats([solved_ledger(1, 2), solved_ledger(1, 0)])

    def test_errors(self):
        with pytest.raises(EmptyInput):
            aggregate_stats([])
        bad = RunLedger(run_id="u")
        bad.outcome = Outcome("unfinished", "time-budget", 10.0, 1, 0)
        with pytest.raises(UnsolvedIncluded):
            aggregate_stats([solved_ledger(1, 1), bad])

    def test_agrees_with_statistics_module_oracle(self):
        rng = random.Random(777)
        for _ in range(40):
            count = rng.randint(1, 12)
            runs = [solved_ledger(rng.uniform(0.05, 8.0), rng.randint(1, 60))
                    for _ in range(count)]
            stats = aggregate_stats(runs)
            hours = [r.outcome.wall_clock / 3600 for r in runs]
            stmts = [r.outcome.statement_count for r in runs]
            ratios = [r.outcome.wall_clock / 60 / r.outcome.statement_count for r in runs]
            assert stats.mean_time_h == pytest.approx(statistics.fmean(hours), rel=1e-9)
            assert stats.median_time_h == pytest.approx(statistics.median(hours), rel=1e-9)
            expected_std = statistics.stdev(hours) if count > 1 else 0.0
            assert stats.std_time_h == pytest.approx(expected_std, rel=1e-9, abs=1e-12)
            assert stats.mean_statements == pytest.approx(statistics.fmean(stmts), rel=1e-9)
            assert stats.mean_min_per_stmt == pytest.approx(statistics.fmean(ratios), rel=1e-9)

    def test_row_shape(self):
        row = render_stats_row(aggregate_stats([solved_ledger(0.22, 2)] * 2))
        assert row == "0.22±0.00h | 0.22h | 0.22-0.22h | 2.0±0.0 | 6.6±0.0"


class TestTraceExport:
    def _ledger_with_frames(self) -> RunLedger:
        ledger = open_ledger("r1")
        plan = create_plan([mk_node("Main", anchor=anchor_decl("Main"))])
        ledger.record_event(EventKind.PLAN_CREATED)
        ledger.snapshot_frame(plan)
        ledger.snapshot_frame(set_status(plan, "Main", Status.CLOSED), Change(("Main",)))
        return ledger

    def test_single_node_text_export(self):
        text = export_trace(self._ledger_with_frames(), "text")
        assert text.startswith("prooftrace v1\n")
        assert "frame 0 revision 0" in text
        assert "  0 Main not-yet" in text
        assert "  0 Main formalized" in text

    def test_export_is_deterministic(self):
        ledger = self._ledger_with_frames()
        assert export_trace(ledger, "text") == export_trace(ledger, "text")
        assert export_trace(ledger, "dot") == export_trace(ledger, "dot")

    def test_dot_export_has_status_classes(self):
        dot = export_trace(self._ledger_with_frames(), "dot")
        assert "digraph frame0" in dot
        assert 'class="not-yet"' in dot
        assert 'class="formalized"' in dot
        assert "#3B5B92" in dot

    def test_unknown_format_rejected(self):
        with pytest.raises(UnsupportedFormat):
            export_trace(self._ledger_with_frames(), "svg")

    def test_empty_ledger_rejected(self):
        from proofloop.ledger import LedgerError

        with pytest.raises(LedgerError):
            export_trace(open_ledger("r"), "text")


class TestReplayVerification:
    def test_mismatched_frame_is_detected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = open_ledger("r1", path)
        plan = chain_plan(["A", "B"])
        from proofloop.plan import plan_to_text

        ledger.record_event(EventKind.PLAN_CREATED, None, "", {"plan": plan_to_text(plan)})
        ledger.snapshot_frame(plan)
        ledger.record_outcome(Outcome("solved", None, 1.0, 2, 0))
        records = list(read_ledger_records(path))
        assert verify_replay(records) == (1, 0)
        records[2]["nodes"]["A"] = "formalized"  # corrupt the frame
        with pytest.raises(ReplayMismatch):
            verify_replay(records)


# ---------------------------------------------------------------------------
# Work shared between frames of one structure must not change what is written,
# checked or rendered for any single frame.

ID_CHARS = "aβ∀é_'\"\\\x01😀9"
STATUSES = [Status.OPEN, Status.FAILING, Status.CLOSED]


def keyframe_line(plan, index: int) -> str:
    """The full frame record built from scratch, as one JSON line: a keyframe, and
    every frame of a version 1 ledger."""
    return json.dumps({
        "rec": "frame", "index": index, "revision": plan.revision,
        "nodes": {nid: FRAME_STATUS[plan.nodes[nid].status] for nid in plan.order},
        "edges": [[dep, nid] for nid in plan.order for dep in plan.nodes[nid].deps],
    }, ensure_ascii=False)


def expected_frame_line(plan, previous, index: int) -> str:
    """The version 3 frame line: a keyframe first, then deltas that list the new ids
    and changed statuses in plan order and, when not empty, the removed ids, the ids
    whose predecessor in the node order changed and the ids whose deps changed."""
    if previous is None:
        return keyframe_line(plan, index)
    old = previous.nodes
    old_pred = {nid: previous.order[i - 1] if i else None for i, nid in enumerate(previous.order)}
    record = {
        "rec": "frame", "index": index, "revision": plan.revision,
        "nodes": {nid: FRAME_STATUS[plan.nodes[nid].status] for nid in plan.order
                  if nid not in old or plan.nodes[nid].status != old[nid].status},
        "removed": [nid for nid in previous.order if nid not in plan.nodes],
        "after": {nid: plan.order[i - 1] if i else None for i, nid in enumerate(plan.order)
                  if nid not in old_pred or old_pred[nid] != (plan.order[i - 1] if i else None)},
        "deps": {nid: list(plan.nodes[nid].deps) for nid in plan.order
                 if plan.nodes[nid].deps != (old[nid].deps if nid in old else ())},
    }
    return json.dumps({key: value for key, value in record.items()
                       if value or key not in ("removed", "after", "deps")}, ensure_ascii=False)


def draw_plan(data, ids):
    nodes = []
    for i, node_id in enumerate(ids):
        deps = tuple(dep for dep in ids[:i] if data.draw(st.booleans()))
        anchor = anchor_decl("T") if i == len(ids) - 1 else None
        nodes.append(mk_node(node_id, deps, anchor=anchor))
    return create_plan(nodes)


class TestFrameWriter:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_frame_line_equals_json_dumps_of_its_record(self, data):
        ids = data.draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=3),
                                 min_size=1, max_size=6, unique=True))
        plan = draw_plan(data, ids)
        sink = io.StringIO()
        ledger = RunLedger("r", _sink=sink)
        expected, v1_lines, plans = [], [], [None]

        def snapshot(change=None):
            ledger.snapshot_frame(plan, change)
            expected.append(expected_frame_line(plan, plans[-1], len(expected)))
            v1_lines.append(keyframe_line(plan, len(v1_lines)))
            plans.append(plan)

        snapshot()
        steps = data.draw(st.lists(st.sampled_from(["status", "status", "add", "rewrite",
                                                    "rebuild"]), max_size=8))
        for step in steps:
            order = list(plan.order)
            if step == "status":  # written from the changed id
                node_id = data.draw(st.sampled_from(order))
                plan = set_status(plan, node_id, data.draw(st.sampled_from(STATUSES)))
                snapshot(Change((node_id,)))
                continue
            elif step == "add":
                new_id = data.draw(st.text(ID_CHARS, min_size=1, max_size=4))
                deps = tuple(dep for dep in order if data.draw(st.booleans()))
                try:
                    plan, _ = apply_diff(plan, PlanDiff(adds=(mk_node(new_id, deps),)))
                except PlanError:
                    continue
            elif step == "rewrite":
                position = data.draw(st.integers(0, len(order) - 1))
                node = plan.nodes[order[position]]
                deps = tuple(dep for dep in order[:position] if data.draw(st.booleans()))
                plan, _ = apply_diff(plan, PlanDiff(rewrites=(
                    NodeRewrite(node.node_id, node.informal, node.sketch, deps),)))
            else:  # a different structure at revision 0, as a second plan would be
                plan = draw_plan(data, order)
                snapshot(derive_change(plans[-1], plan))
                continue
            snapshot()  # from the change the diff's plan carries
        lines = sink.getvalue().splitlines()
        assert lines == expected
        assert [json.loads(line) for line in lines] == [json.loads(line) for line in expected]
        # Written out in full, the deltas give the version 1 ledger line for line.
        expanded = expand_deltas([json.loads(line) for line in lines])
        assert [json.dumps(record, ensure_ascii=False) for record in expanded] == v1_lines


class TestChangedIdFrames:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_a_frame_from_the_changed_id_equals_the_full_derivation(self, seed):
        """After each status step, the frame derived from the previous frame and the ids
        it touched equals the full ``frame_of``, node order included, between diffs and
        across them, and its record equals the whole-frame comparison of
        ``oracle_delta``; from one id, the record's bytes are equal too."""
        rng = random.Random(seed)
        plan = random_dag_plan(rng, 15)
        previous = ledger_frame_of(plan, 0)
        for index in range(1, 16):
            if rng.random() < 0.2:
                try:
                    plan = apply_diff(plan, random_diff(rng, plan))[0]
                except PlanError:
                    continue
                previous = ledger_frame_of(plan, index)
                continue
            touched = [rng.choice(plan.order) for _ in range(rng.choice((1, 1, 2, 3)))]
            for node_id in touched:
                plan = set_status(plan, node_id, rng.choice(STATUSES))
            change = Change(list(dict.fromkeys(touched)))  # as replay keeps them, in event order
            frame, full = (ledger_frame_of(plan, index, previous, change),
                           ledger_frame_of(plan, index))
            assert frame == full
            assert list(frame.node_states.items()) == list(full.node_states.items())
            assert frame.edges is full.edges
            record = frame_record(previous, frame, change)
            full_record = oracle_delta(previous, full)
            assert record == full_record
            if len(change.statuses) == 1:
                assert json.dumps(record) == json.dumps(full_record)
            previous = frame


class TestFrameRecord:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_a_random_diff_reads_back_and_replays(self, seed):
        """After random diffs, order-breaking splits among them, the record that
        ``frame_record`` writes from the diff's ``Change`` is the whole-frame delta of
        ``oracle_delta``, byte for byte; ``read_frame`` of it is the new plan's frame,
        node order included, and replay accepts the records."""
        rng = random.Random(seed)
        plan = random_dag_plan(rng, 12)
        previous = ledger_frame_of(plan, 0)
        records = [{"rec": "run", "version": 3},
                   {"rec": "event", "kind": "PlanCreated", "data": {"plan": plan_to_text(plan)}},
                   frame_record(None, previous)]
        frames = [previous]
        for _ in range(4):
            diff = (random_split_diff if rng.random() < 0.5 else random_diff)(rng, plan)
            try:
                plan, invalidated = apply_diff(plan, diff)
            except PlanError:
                continue
            frame = ledger_frame_of(plan, len(frames), previous, plan.change)
            assert frame == ledger_frame_of(plan, len(frames))
            written = frame_record(previous, frame, plan.change)
            assert json.dumps(written) == json.dumps(oracle_delta(previous, frame))
            record = json.loads(json.dumps(written))
            read = read_frame(record, previous)
            assert read == frame
            assert list(read.node_states) == list(frame.node_states)
            records += [{"rec": "event", "kind": "DiffApplied", "data": {
                "diff": diff_to_text(diff), "invalidated": sorted(invalidated)}}, record]
            previous = frame
            frames.append(frame)
        assert verify_replay(records) == (len(frames), len(frames) - 1)
        assert [(list(f.node_states.items()), f.edges) for f in oracle_frames(records)] == [
            (list(f.node_states.items()), list(f.edges)) for f in frames]


class TestStepsBetweenFrames:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_more_steps_than_one_between_two_frames_replay(self, seed):
        """A frame after several steps (two diffs, status events after a diff, a new plan)
        is the whole-frame delta of the plan since the frame before, as ``oracle_delta``
        writes it; replay derives it from the ids the steps named."""
        rng = random.Random(seed)
        plan = random_dag_plan(rng, 12)
        previous = ledger_frame_of(plan, 0)
        records = [{"rec": "run", "version": 3},
                   {"rec": "event", "kind": "PlanCreated", "data": {"plan": plan_to_text(plan)}},
                   frame_record(None, previous)]
        diffs = 0
        for index in range(1, 7):
            for step in rng.sample(["diff", "diff", "status", "status", "plan"], rng.randint(1, 3)):
                if step == "diff":
                    diff = (random_split_diff if rng.random() < 0.5 else random_diff)(rng, plan)
                    try:
                        plan, invalidated = apply_diff(plan, diff)
                    except PlanError:
                        continue
                    diffs += 1
                    records.append({"rec": "event", "kind": "DiffApplied", "data": {
                        "diff": diff_to_text(diff), "invalidated": sorted(invalidated)}})
                elif step == "status":
                    node_id = rng.choice(plan.order)
                    plan = set_status(plan, node_id, Status.CLOSED)
                    records.append({"rec": "event", "kind": "NodeClosed", "node": node_id})
                else:
                    plan = random_dag_plan(rng, 12)
                    records.append({"rec": "event", "kind": "PlanCreated",
                                    "data": {"plan": plan_to_text(plan)}})
            frame = ledger_frame_of(plan, index)
            records.append(json.loads(json.dumps(oracle_delta(previous, frame))))
            previous = frame
        assert verify_replay(records) == (7, diffs)


def edit_delta(rng: random.Random, previous: dict, delta: dict, removed_before: list) -> None:
    """One random edit of ``delta``, whose full previous frame is ``previous``: drop,
    duplicate or re-point an ``after`` link, add a ``removed`` id, make a ``deps``
    entry name a removed id, by adding it or by dropping an entry whose old list names
    one, or list a dep of an entry twice."""
    old = list(previous["nodes"])
    after, removed = delta.get("after", {}), delta.get("removed", [])
    ids = old + [nid for nid in delta["nodes"] if nid not in old] + ["ghost"]
    carried = [nid for nid in delta.get("deps", {}) if any(
        dep in removed for dep, node in previous["edges"] if node == nid)]
    listed = [nid for nid, deps in delta.get("deps", {}).items() if deps]
    edits = ["remove", "dep"] + ["drop", "duplicate", "repoint"] * bool(after)
    edit = rng.choice(edits + ["carry"] * bool(carried) + ["twice"] * bool(listed))
    if edit == "drop":
        del after[rng.choice(list(after))]
    elif edit == "duplicate":
        after[rng.choice(ids)] = rng.choice(list(after.values()))
    elif edit == "repoint":
        after[rng.choice(list(after))] = rng.choice([None, *ids])
    elif edit == "remove":
        delta["removed"] = [*removed, rng.choice(ids + removed)]
    elif edit == "dep":
        gone = rng.choice(removed or removed_before or ["ghost"])
        nid = rng.choice([nid for nid in ids if nid not in removed])
        deps = delta.setdefault("deps", {})
        deps[nid] = [*deps.get(nid, []), gone]
    elif edit == "twice":
        deps = delta["deps"][rng.choice(listed)]
        deps.insert(rng.randint(0, len(deps)), rng.choice(deps))
    else:  # the entry's previous list, which names a removed id, is carried
        del delta["deps"][rng.choice(carried)]


class TestDeltaReader:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_random_deltas_load_as_the_oracle_reads_them(self, seed):
        """Frames of random diffs and status changes, written by ``frame_record`` from
        each step's ``Change``, load as ``oracle_frames`` reads them, node order included.  After one random edit of
        one delta, the file loads iff ``oracle_delta_accepted`` accepts the delta, and
        then still as the oracle reads it."""
        rng = random.Random(seed)
        plan = random_dag_plan(rng, 12)
        frames = [ledger_frame_of(plan, 0)]
        records = [{"rec": "run", "version": 3}, frame_record(None, frames[0])]
        for _ in range(rng.randint(1, 8)):
            if rng.random() < 0.6:
                try:
                    plan = apply_diff(plan, random_diff(rng, plan))[0]
                except PlanError:
                    continue
                change = plan.change
            else:
                change = Change((rng.choice(plan.order),))
                plan = set_status(plan, change.statuses[0], rng.choice(list(Status)))
            frames.append(ledger_frame_of(plan, len(frames), frames[-1], change))
            records.append(frame_record(frames[-2], frames[-1], change))
        records = json.loads(json.dumps(records))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.jsonl"
            loaded = load_ledger_of(path, records).frames
            assert loaded == frames
            assert [(f.index, f.plan_revision, list(f.node_states.items()), list(f.edges))
                    for f in loaded] == [
                (f.index, f.plan_revision, list(f.node_states.items()), f.edges)
                for f in oracle_frames(records)]
            if len(frames) == 1:
                return
            k = rng.randint(2, len(records) - 1)
            full = expand_deltas(records[:k])
            removed_before = [nid for r in records[2:k] for nid in r.get("removed", [])]
            edit_delta(rng, full[k - 1], records[k], removed_before)
            del records[k + 1:]
            if not oracle_delta_accepted(full[k - 1], records[k]):
                with pytest.raises(LedgerError, match=f"^malformed ledger record: frame {k - 1}: "):
                    load_ledger_of(path, records)
                return
            assert [(list(f.node_states.items()), list(f.edges))
                    for f in load_ledger_of(path, records).frames] == [
                (list(f.node_states.items()), f.edges) for f in oracle_frames(records)]


def one_frame_after_both_closes(records, nodes):
    """Drop frame 3 of :func:`three_closes_ledger`'s records, so that the frame after
    the closes of B and C, renumbered 3, lists ``nodes``."""
    frames = [record for record in records if record["rec"] == "frame"]
    records.remove(frames[3])
    frames[4].update(index=3, nodes=nodes)


def three_closes_ledger(path):
    """Plan A <- B <- C <- D, close A, a diff that adds E under D, close B and C.

    Frames 1, 4 and 5 each follow a frame of the same revision.
    """
    ledger = open_ledger("r", path)
    plan = chain_plan(["A", "B", "C", "D"])
    ledger.record_event(EventKind.PLAN_CREATED, "D", "", {"plan": plan_to_text(plan)})
    ledger.snapshot_frame(plan)
    plan = set_status(plan, "A", Status.CLOSED)
    ledger.record_event(EventKind.NODE_CLOSED, "A")
    ledger.snapshot_frame(plan, Change(("A",)))
    diff = PlanDiff(adds=(mk_node("E", ("B",)),),
                    rewrites=(NodeRewrite("D", "statement D", "", ("C", "E")),),
                    cause=DiffCause.DECOMPOSITION_SPLIT)
    plan, invalidated = apply_diff(plan, diff)
    ledger.record_event(EventKind.DIFF_APPLIED, "D", "", {
        "diff": diff_to_text(diff), "invalidated": sorted(invalidated)})
    ledger.snapshot_frame(plan)
    for node_id in ("B", "C"):
        plan = set_status(plan, node_id, Status.CLOSED)
        ledger.record_event(EventKind.NODE_CLOSED, node_id)
        ledger.snapshot_frame(plan, Change((node_id,)))
    ledger.record_outcome(Outcome("unfinished", "time-budget", 1.0, 5, 1))
    return list(read_ledger_records(path))


@pytest.mark.parametrize("recorded, accepted", [
    (["C", "D"], True), ("CD", True), (["D", "C"], False), (["C", "C"], False),
    (["C", "D", "D"], False), (["C"], False), (["C", ["D"]], False), ([1, 2], False)])
def test_a_diff_replays_only_if_it_records_its_invalidated_set_sorted(tmp_path, recorded,
                                                                      accepted):
    """The recorded invalidated ids must be the replayed set in sorted order, no id twice;
    anything else, whatever its items, is the mismatch that names both."""
    ledger = open_ledger("r", tmp_path / "run.jsonl")
    plan = chain_plan(["A", "B", "C", "D"])
    ledger.record_event(EventKind.PLAN_CREATED, "D", "", {"plan": plan_to_text(plan)})
    ledger.snapshot_frame(plan)
    diff = PlanDiff(rewrites=(NodeRewrite("C", "restated C", "", ("B",)),))
    plan, invalidated = apply_diff(plan, diff)
    assert sorted(invalidated) == ["C", "D"]
    ledger.record_event(EventKind.DIFF_APPLIED, "C", "", {
        "diff": diff_to_text(diff), "invalidated": recorded})
    ledger.snapshot_frame(plan)
    ledger.record_outcome(Outcome("unfinished", "time-budget", 1.0, 4, 1))
    records = list(read_ledger_records(tmp_path / "run.jsonl"))
    if accepted:
        assert verify_replay(records) == (2, 1)
    else:
        with pytest.raises(ReplayMismatch) as refused:
            verify_replay(records)
        assert str(refused.value) == (f"diff #1: invalidated set ['C', 'D'] "
                                      f"!= recorded {recorded}")


class TestReplayChecksEveryFrame:
    MID_REVISION = [1, 3, 4]

    def frames_of(self, records):
        return [record for record in records if record["rec"] == "frame"]

    def test_the_ledger_replays_and_has_mid_revision_frames(self, tmp_path):
        records = three_closes_ledger(tmp_path / "run.jsonl")
        frames = self.frames_of(records)
        assert verify_replay(records) == (5, 1)
        full = self.frames_of(expand_deltas(records))
        assert frames[0] == full[0]  # the one keyframe
        for index, frame in enumerate(frames[1:], 1):
            assert "edges" not in frame
            if index in self.MID_REVISION:
                assert frame["revision"] == frames[index - 1]["revision"]
                assert len(frame) == 4 and len(frame["nodes"]) == 1
                assert full[index]["edges"] == full[index - 1]["edges"]
        # The diff adds E between C and D and gives E and D new deps; no status changes.
        assert frames[2] == {"rec": "frame", "index": 2, "revision": 1, "nodes": {"E": "not-yet"},
                             "after": {"E": "C", "D": "E"}, "deps": {"E": ["B"], "D": ["C", "E"]}}
        assert verify_replay(expand_deltas(records)) == (5, 1)

    @pytest.mark.parametrize("index", MID_REVISION)
    @pytest.mark.parametrize("tamper", ["drop-change", "spurious-change", "unknown-id",
                                        "drop-edge", "add-edge", "swap-edge", "double-edge",
                                        "status"])
    def test_an_altered_mid_revision_frame_is_named(self, tmp_path, index, tamper):
        records = three_closes_ledger(tmp_path / "run.jsonl")
        frame = self.frames_of(records)[index]
        full = self.frames_of(expand_deltas(records))[index]
        if tamper == "drop-change":
            frame["nodes"] = {}
        elif tamper == "spurious-change":  # D is open in every frame
            frame["nodes"] = {**frame["nodes"], "D": "not-yet"}
        elif tamper == "unknown-id":
            frame["nodes"] = {**frame["nodes"], "Z": "formalized"}
        elif tamper.endswith("-edge"):  # the full frame, with an altered edges list
            frame["nodes"] = full["nodes"]
            frame["edges"] = {
                "drop-edge": full["edges"][:-1],
                "add-edge": full["edges"] + [["A", "D"]],
                "swap-edge": [[node, dep] for dep, node in full["edges"]],
                "double-edge": full["edges"] + full["edges"][:1],
            }[tamper]
        else:
            frame["nodes"] = {**frame["nodes"], "D": "formalized"}
        # A delta that names an unknown id, and a frame that lists a pair twice, stand for
        # no frame: each is a malformed record.
        malformed = tamper in ("unknown-id", "double-edge")
        prefix = "malformed ledger record: " if malformed else ""
        with pytest.raises(LedgerError, match=f"^{prefix}frame {index}: ") as exc:
            verify_replay(records)
        assert isinstance(exc.value, ReplayMismatch) is not malformed

    # Status deltas crafted against the status events before them: frames 3 and 4 follow
    # the closes of B and C, and the "two-events" ledgers hold one frame after both.
    STATUS_DELTAS = {
        "names-an-untouched-id": (lambda records: records[-2]["nodes"].update(B="formalized"),
                                  "frame 4: 'nodes' differs from replay"),
        "names-an-untouched-id-changed": (
            lambda records: records[-2]["nodes"].update(D="formalized"),
            "frame 4: 'nodes' differs from replay"),
        "names-an-untouched-unknown-id": (
            lambda records: records[-2]["nodes"].update(Z="formalized"),
            "malformed ledger record: frame 4: the delta names a node not in frame 3"),
        "omits-the-changed-id": (lambda records: records[-2].update(nodes={}),
                                 "frame 4: 'nodes' differs from replay"),
        "lists-another-status": (lambda records: records[-2].update(nodes={"C": "failing"}),
                                 "frame 4: 'nodes' differs from replay"),
        "two-events-both-listed": (
            lambda records: one_frame_after_both_closes(
                records, {"B": "formalized", "C": "formalized"}), None),
        "two-events-one-listed": (
            lambda records: one_frame_after_both_closes(records, {"C": "formalized"}),
            "frame 3: 'nodes' differs from replay"),
        "two-events-one-omitted": (
            lambda records: one_frame_after_both_closes(records, {"B": "formalized"}),
            "frame 3: 'nodes' differs from replay"),
    }

    @pytest.mark.parametrize("edit, message", STATUS_DELTAS.values(), ids=STATUS_DELTAS)
    def test_a_status_delta_is_checked_against_the_events_before_it(self, tmp_path, monkeypatch,
                                                                    edit, message):
        """A status delta derived from the ids the events before it touched gives the
        verdict and message of the full derivation, which is run for comparison: each
        frame from the plan alone, each record from ``oracle_delta``'s whole-frame
        comparison."""
        records = three_closes_ledger(tmp_path / "run.jsonl")
        assert records[-2]["rec"] == "frame" and records[-2]["nodes"] == {"C": "formalized"}
        edit(records)

        def outcome():
            try:
                return verify_replay(records)
            except LedgerError as exc:
                return type(exc), str(exc)

        derived = outcome()
        monkeypatch.setattr(ledger_mod, "frame_of", lambda plan, index, *hint: real_frame_of(
            plan, index))
        monkeypatch.setattr(ledger_mod, "frame_record", lambda previous, frame, *hint:
                            oracle_delta(previous, frame))
        assert outcome() == derived
        if message is None:
            assert derived == (4, 1)
        else:
            malformed = message.startswith("malformed")
            assert derived == (LedgerError if malformed else ReplayMismatch, message)

    @pytest.mark.parametrize("index, named", [(0, "a delta with no frame before it"),
                                              (2, "'nodes' differs from replay$")])
    def test_a_delta_on_a_new_structure_is_named(self, tmp_path, index, named):
        records = three_closes_ledger(tmp_path / "run.jsonl")
        frame = self.frames_of(records)[index]
        for key in ("edges", "after", "deps"):
            frame.pop(key, None)
        frame["nodes"] = {}
        with pytest.raises(ReplayMismatch, match=f"^frame {index}: {named}"):
            verify_replay(records)

    # Edits to frame 2, the delta of the diff that puts E between C and D.
    MISSTATED = {
        "no-deps": lambda frame: frame.pop("deps"),
        "deps-of-D-unchanged": lambda frame: frame["deps"].update(D=["C"]),
        "no-deps-of-E": lambda frame: frame["deps"].pop("E"),
        "E-first": lambda frame: frame.update(after={"E": None, "A": "E"}),
        "removes-D": lambda frame: frame.update(removed=["D"], after={"E": "C"},
                                                deps={"E": ["B"]}),
        "removes-A": lambda frame: frame.update(removed=["A"], after={"B": None, **frame["after"]},
                                                deps={"B": [], **frame["deps"]}),
    }

    @pytest.mark.parametrize("edit", MISSTATED.values(), ids=MISSTATED)
    def test_a_delta_that_omits_or_misstates_a_structure_change_is_named(self, tmp_path, edit):
        records = three_closes_ledger(tmp_path / "run.jsonl")
        edit(self.frames_of(records)[2])
        load_ledger_of(tmp_path / "edited.jsonl", records)  # a well-formed delta
        with pytest.raises(ReplayMismatch, match="^frame 2: '(removed|after|deps)' differs"):
            verify_replay(records)

    MALFORMED = {
        "removed-unknown": (lambda frame: frame.update(removed=["Z"]), "removed names an unknown"),
        "removed-and-in-nodes": (lambda frame: frame.update(removed=["E"]), "removed names an"),
        "removed-twice": (lambda frame: frame.update(removed=["A", "A"]), "removed names an id tw"),
        "removed-and-listed-again": (
            lambda frame: (frame.update(removed=["B"]), frame["nodes"].update(B="failing"),
                           frame["after"].update(B="A")),
            "removed names an id twice, or one that nodes lists"),
        "after-names-unknown": (lambda frame: frame["after"].update(Z="A"), "after names an"),
        "after-names-removed": (lambda frame: frame.update(removed=["A"], after={"A": None}),
                                "after names an unknown or removed id"),
        "new-id-not-placed": (lambda frame: frame["nodes"].update(Z="not-yet"),
                              "after names an unknown or removed id, or misses a new one"),
        "new-id-without-after": (lambda frame: frame["after"].pop("E"), "misses a new one"),
        "after-follows-unknown": (lambda frame: frame["after"].update(E="Z"), "not form one chain"),
        "follows-removed": (lambda frame: frame.update(removed=["A"]), "not form one chain"),
        "two-follow-one": (lambda frame: frame["after"].pop("D"), "not form one chain"),
        "not-one-chain": (lambda frame: frame["after"].update(A="D"), "not form one chain"),
        "deps-unknown": (lambda frame: frame["deps"].update(Z=[]), "deps is not an object of"),
        "deps-outside": (lambda frame: frame["deps"].update(D=["Z"]), "an edge names an id outside"),
        "deps-twice": (lambda frame: frame["deps"].update(D=["C", "E", "C"]), "is listed twice"),
        "removed-not-a-list": (lambda frame: frame.update(removed="A"), "removed is not a list"),
        "after-not-an-object": (lambda frame: frame.update(after=[["E", "C"]]), "after or deps"),
        "after-not-a-string": (lambda frame: frame["after"].update(E=5), "not form one chain"),
        "after-a-list": (lambda frame: frame["after"].update(E=["C"]), "an id or a status is not"),
        "deps-not-a-list": (lambda frame: frame["deps"].update(D="C"), "deps is not an object of"),
        "dep-not-a-string": (lambda frame: frame["deps"].update(D=[5]), "an edge names an id out"),
        "dep-a-list": (lambda frame: frame["deps"].update(D=[["C"]]), "an id or a status is not"),
    }

    @pytest.mark.parametrize("edit, fault", MALFORMED.values(), ids=MALFORMED)
    def test_a_malformed_structure_delta_is_a_ledger_error(self, tmp_path, edit, fault):
        records = three_closes_ledger(tmp_path / "run.jsonl")
        edit(self.frames_of(records)[2])
        path = tmp_path / "edited.jsonl"
        for read in (lambda: verify_replay(records), lambda: load_ledger_of(path, records)):
            with pytest.raises(LedgerError, match=f"^malformed ledger record: frame 2: .*{fault}") \
                    as exc:
                read()
            assert not isinstance(exc.value, ReplayMismatch)


def load_ledger_of(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return load_ledger(path)


class TestTraceReusesLayoutsByContent:
    def hand_built(self) -> RunLedger:
        """One revision whose structure changes and changes back, and a node set
        that changes under the same edges, in every combination of shared and
        equal-but-distinct edge tuples."""
        chain = (("a", "b"), ("b", "c"))
        three = {"a": "not-yet", "b": "not-yet", "c": "not-yet"}
        frames = [
            ({**three}, chain),
            ({**three, "b": "formalized"}, tuple(list(chain))),
            ({**three, "b": "failing"}, (("a", "c"),)),
            ({**three, "c": "formalized"}, chain),
            ({**three, "β": "not-yet"}, chain),
            ({"a": "formalized", "b": "not-yet"}, chain),
            ({"b": "formalized", "a": "not-yet"}, chain),
            ({"b": "formalized", "a": "not-yet"}, (("b", "a"),)),
            ({"a": "not-yet"}, ()),
            ({"a": "not-yet", "b": "not-yet"}, ()),
            ({**three}, chain),
        ]
        ledger = RunLedger("r")
        for index, (nodes, edges) in enumerate(frames):
            ledger.frames.append(Frame(index, nodes, edges, 4 if index < 9 else 5))
        return ledger

    @pytest.mark.parametrize("fmt", ["text", "dot"])
    def test_export_equals_a_per_frame_oracle(self, fmt):
        ledger = self.hand_built()
        assert export_trace(ledger, fmt) == oracle_trace(ledger.frames, fmt)

    @pytest.mark.parametrize("fmt", ["text", "dot"])
    def test_the_same_frames_loaded_from_a_file_export_like_the_oracle(self, tmp_path, fmt):
        """Every frame whose edges stay inside it; an edge that leaves its frame is a
        malformed record in a file."""
        frames = self.hand_built().frames
        inside = [f for f in frames if set(chain.from_iterable(f.edges)) <= f.node_states.keys()]
        assert [f.index for f in frames if f not in inside] == [5, 6]
        path = tmp_path / "run.jsonl"
        for written in (inside, frames):
            path.write_text("".join(json.dumps(record) + "\n" for record in [
                {"rec": "run", "version": 1, "run_id": "r"},
                *({"rec": "frame", "index": f.index, "revision": f.plan_revision,
                   "nodes": f.node_states, "edges": [list(e) for e in f.edges]} for f in written),
            ]), encoding="utf-8")
            if written is frames:
                with pytest.raises(LedgerError, match="frame 5: an edge names an id outside"):
                    load_ledger(path)
                continue
            loaded = load_ledger(path)
            assert loaded.frames == inside
            assert export_trace(loaded, fmt) == oracle_trace(inside, fmt)

    @pytest.mark.parametrize("fmt", ["text", "dot"])
    def test_a_cyclic_frame_after_a_valid_one_with_the_same_nodes(self, fmt):
        ledger = RunLedger("r")
        nodes = {"a": "not-yet", "b": "not-yet"}
        ledger.frames.append(Frame(0, dict(nodes), (("a", "b"),), 0))
        ledger.frames.append(Frame(1, dict(nodes), (("a", "b"), ("b", "a")), 0))
        with pytest.raises(CycleError):
            export_trace(ledger, fmt)


def random_frame_sequence(rng: random.Random) -> list[Frame]:
    """Frames of a plan under random diffs and status changes, mixed with frames no
    loop writes: ids dropped with their edges left in place (they come back in a later
    frame), a shuffled node order, a repeated pair, and last, now and then, a back edge."""
    plan = random_dag_plan(rng, 12)
    frames = [ledger_frame_of(plan, 0)]
    for _ in range(rng.randint(1, 10)):
        last = frames[-1]
        nodes, edges = dict(last.node_states), last.edges
        step = rng.choice(["diff", "diff", "status", "drop", "shuffle", "repeat"])
        if step in ("diff", "status"):
            if step == "status":
                plan = set_status(plan, rng.choice(plan.order), rng.choice(list(Status)))
            else:
                try:
                    plan = apply_diff(plan, random_diff(rng, plan))[0]
                except PlanError:
                    continue
            nodes, edges = ledger_frame_of(plan, 0).node_states, plan.edges
        elif step == "drop" and len(nodes) > 1:
            for nid in rng.sample(list(nodes), rng.randint(1, min(3, len(nodes) - 1))):
                del nodes[nid]
        elif step == "shuffle":
            items = list(nodes.items())
            rng.shuffle(items)
            nodes = dict(items)
        elif step == "repeat" and edges:
            edges += (rng.choice(edges),)
        frames.append(Frame(len(frames), nodes, edges, plan.revision))
    if frames[-1].edges and rng.random() < 0.3:
        dep, node = rng.choice(frames[-1].edges)
        frames.append(Frame(len(frames), frames[-1].node_states,
                            frames[-1].edges + ((node, dep),), plan.revision))
    return frames


class TestTracePatchesLayouts:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_export_equals_the_oracle_or_names_the_first_cycle(self, seed):
        frames = random_frame_sequence(random.Random(seed))
        cyclic = None
        for k, frame in enumerate(frames):
            try:
                oracle_levels(list(frame.node_states), [
                    (dep, node) for dep, node in frame.edges
                    if dep in frame.node_states and node in frame.node_states])
            except AssertionError:
                cyclic = k
                break
        for fmt in ("text", "dot"):
            ledger = RunLedger("r", frames=frames[:cyclic])
            if ledger.frames:
                assert export_trace(ledger, fmt) == oracle_trace(ledger.frames, fmt)
            if cyclic is not None:
                with pytest.raises(CycleError) as expected:
                    depth_layout(frames[cyclic])
                with pytest.raises(CycleError) as got:
                    export_trace(RunLedger("r", frames=frames), fmt)
                assert str(got.value) == str(expected.value)


def random_written_frames(rng: random.Random) -> list[Frame]:
    """Frames of a plan under random diffs and status changes, as the loop's frames but
    for two things: now and then one dep is listed twice in its id's deps, for as long
    as its pair lasts, and last, now and then, an edge is added backwards."""
    plan = random_dag_plan(rng, 12)
    doubled = None  # the (dep, node) pair listed twice

    def frame_now(index: int) -> Frame:
        edges = plan.edges
        if doubled in edges:
            at = edges.index(doubled)
            edges = edges[:at + 1] + edges[at:]
        return Frame(index, ledger_frame_of(plan, index).node_states, edges, plan.revision)

    frames = [frame_now(0)]
    for _ in range(rng.randint(1, 10)):
        step = rng.choice(["diff", "diff", "status", "double"])
        if step == "status":
            plan = set_status(plan, rng.choice(plan.order), rng.choice(list(Status)))
        elif step == "diff":
            try:
                plan = apply_diff(plan, random_diff(rng, plan))[0]
            except PlanError:
                continue
        elif plan.edges:
            doubled = rng.choice(plan.edges)
        frames.append(frame_now(len(frames)))
    if frames[-1].edges and rng.random() < 0.3:
        dep, node = rng.choice(frames[-1].edges)
        order = list(plan.order)  # a frame lists each id's pairs in node order
        edges = sorted(frames[-1].edges + ((node, dep),), key=lambda pair: order.index(pair[1]))
        frames.append(Frame(len(frames), frames[-1].node_states, tuple(edges), plan.revision))
    return frames


class TestTraceThroughTheLoader:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_layouts_in_small_blocks_export_like_the_oracle(self, seed, block):
        """With a few lines to a joined block, the steps of random diffs, splits among
        them, and status changes move lines across block bounds, empty blocks and insert
        before the first bound; the loaded ledger must still export as the oracle does."""
        rng = random.Random(seed)
        plan = random_dag_plan(rng, 12)
        frames = [ledger_frame_of(plan, 0)]
        for _ in range(rng.randint(1, 10)):
            if rng.random() < 0.4:
                plan = set_status(plan, rng.choice(plan.order), rng.choice(list(Status)))
            else:
                try:
                    plan = apply_diff(plan, (random_split_diff if rng.random() < 0.5
                                             else random_diff)(rng, plan))[0]
                except PlanError:
                    continue
            frames.append(ledger_frame_of(plan, len(frames)))
        records = [{"rec": "run", "version": 3}, *map(oracle_delta, [None, *frames], frames)]
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(ledger_mod, "_BLOCK", block)
            loaded = load_ledger_of(Path(tmp) / "run.jsonl", records)
            for fmt in ("text", "dot"):
                assert export_trace(loaded, fmt) == oracle_trace(frames, fmt)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_a_loaded_ledger_exports_like_the_oracle_or_names_the_first_cycle(self, seed):
        """Frames written as ``oracle_delta`` writes them and read back by ``load_ledger``
        carry what each delta named, so their export patches each layout from it.  It must render
        the written frames as the oracle does, up to the first cyclic frame, which must
        raise the CycleError that ``depth_layout`` raises for it; every other frame of
        them, whose deltas name changes from frames left out, too.  A frame that lists a
        pair twice stands for no plan: its ledger must fail to load, naming the first
        such frame, and the frames before it are checked as above."""
        frames = random_written_frames(random.Random(seed))
        records = [{"rec": "run", "version": 3}, *map(oracle_delta, [None, *frames], frames)]
        doubled = next((k for k, frame in enumerate(frames)
                        if len(set(frame.edges)) < len(frame.edges)), None)
        with tempfile.TemporaryDirectory() as tmp:
            if doubled is not None:
                with pytest.raises(LedgerError, match=f"^malformed ledger record: frame {doubled}: "
                                                      "an edge is listed twice$"):
                    load_ledger_of(Path(tmp) / "run.jsonl", records)
                frames, records = frames[:doubled], records[:doubled + 1]
            loaded = load_ledger_of(Path(tmp) / "run.jsonl", records).frames
        assert loaded == frames
        assert [frame.change is None for frame in loaded] == [True] + [False] * (len(frames) - 1)
        cyclic = None
        for k, frame in enumerate(frames):
            try:
                oracle_levels(list(frame.node_states), list(frame.edges))
            except AssertionError:
                cyclic = k
                break
        for fmt in ("text", "dot"):
            for step in (1, 2):
                if frames[:cyclic]:
                    assert export_trace(RunLedger("r", frames=loaded[:cyclic:step]),
                                        fmt) == oracle_trace(frames[:cyclic:step], fmt)
            if cyclic is not None:
                with pytest.raises(CycleError) as expected:
                    depth_layout(loaded[cyclic])
                with pytest.raises(CycleError) as got:
                    export_trace(RunLedger("r", frames=loaded), fmt)
                assert str(got.value) == str(expected.value)


class TestLoadShapes:
    def test_consecutive_equal_edge_lists_share_one_tuple(self, tmp_path):
        three_closes_ledger(tmp_path / "run.jsonl")
        frames = load_ledger(tmp_path / "run.jsonl").frames
        assert frames[1].edges is frames[0].edges
        assert frames[2].edges != frames[1].edges
        assert frames[4].edges is frames[3].edges is frames[2].edges

    @pytest.mark.parametrize("record", [
        {"rec": "usage", "prompt": "x"},
        {"rec": "usage", "prompt": -1},
        {"rec": "event", "kind": "NoSuchKind"},
        {"rec": "event"},
        {"rec": "frame", "index": 0, "revision": 0, "nodes": 5, "edges": []},
        {"rec": "frame", "index": 0, "revision": 0, "nodes": {}, "edges": [["a"]]},
        {"rec": "outcome"},
        {"rec": "frame", "index": 0, "revision": 0, "nodes": {"a": "bogus"}, "edges": []},
        {"rec": "frame", "index": 0, "revision": 0, "nodes": {"a": ["not-yet"]}, "edges": []},
        {"rec": "frame", "index": 0, "revision": 0, "nodes": [["a", "not-yet"]], "edges": []},
        {"rec": "frame", "index": 0, "revision": 0, "nodes": {}, "edges": ["ab"]},
        {"rec": "frame", "index": 0, "revision": 0, "nodes": {}, "edges": [["a", 5]]},
        {"rec": "frame", "index": 0, "revision": 0, "nodes": {}, "edges": {"a": "b"}},
        {"rec": "frame", "index": "0", "revision": 0, "nodes": {}, "edges": []},
        {"rec": "frame", "index": 0, "revision": 0.0, "nodes": {}, "edges": []},
    ])
    def test_a_record_of_the_wrong_shape_is_a_ledger_error(self, tmp_path, record):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps({"rec": "run", "version": 1}) + "\n"
                        + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(LedgerError, match="malformed ledger record"):
            load_ledger(path)

    @pytest.mark.parametrize("fields", [
        {"kind": 5}, {"kind": None}, {"check": 3}, {"check": ["math"]}, {"node": True},
        {"node": {"a": 1}}, {"elapsed": "soon"}, {"elapsed": -1.0}, {"elapsed": -1},
        {"elapsed": True}, {"elapsed": None}, {"elapsed": float("nan")},
        {"elapsed": float("inf")},
    ], ids=repr)
    def test_a_usage_record_with_a_field_of_the_wrong_type_is_a_ledger_error(self, tmp_path,
                                                                           fields):
        path = tmp_path / "run.jsonl"
        record = {"rec": "usage", "kind": "lean", "check": None, "node": "a", "prompt": 3,
                  "elapsed": 0.5, **fields}
        path.write_text(json.dumps({"rec": "run", "version": 3}) + "\n"
                        + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(LedgerError, match="malformed ledger record: ValueError..usage "):
            load_ledger(path)

    @pytest.mark.parametrize("fields", [
        {}, {"check": "math"}, {"node": None}, {"elapsed": 0}, {"elapsed": 7}, {"elapsed": 0.0},
    ], ids=repr)
    def test_a_usage_record_of_the_documented_types_loads(self, tmp_path, fields):
        path = tmp_path / "run.jsonl"
        record = {"rec": "usage", "kind": "check", "check": None, "node": "a", "prompt": 3,
                  **fields}
        path.write_text(json.dumps({"rec": "run", "version": 3}) + "\n"
                        + json.dumps(record) + "\n", encoding="utf-8")
        (loaded,) = load_ledger(path).usage_records
        assert (loaded.check_kind, loaded.node_id) == (record["check"], record["node"])
        assert loaded.elapsed == fields.get("elapsed", 0.0)

    @pytest.mark.parametrize("index, edit", [
        (0, lambda frame: frame["nodes"].update(A="bogus-status")),
        (0, lambda frame: frame.update(nodes=list(frame["nodes"].items()))),
        (0, lambda frame: frame.update(edges=[edge + ["C"] for edge in frame["edges"]])),
        (0, lambda frame: frame.update(revision=True)),
        (1, lambda frame: frame["nodes"].update(A="closed")),
        (1, lambda frame: frame.update(index=1.5)),
        (1, lambda frame: frame["nodes"].update(Z="formalized")),
    ], ids=["keyframe-unknown-status", "keyframe-nodes-a-list", "keyframe-edges-of-three",
            "keyframe-revision-true", "delta-unknown-status", "delta-index-1.5",
            "delta-unknown-id"])
    def test_replay_and_load_reject_the_same_malformed_frames(self, tmp_path, index, edit):
        records = three_closes_ledger(tmp_path / "run.jsonl")
        edit([r for r in records if r["rec"] == "frame"][index])
        path = tmp_path / "edited.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        for read in (lambda: verify_replay(read_ledger_records(path)), lambda: load_ledger(path)):
            with pytest.raises(LedgerError, match="^malformed ledger record: frame ") as exc:
                read()
            assert not isinstance(exc.value, ReplayMismatch)

    def test_a_delta_loads_as_the_frame_it_stands_for(self, tmp_path):
        records = three_closes_ledger(tmp_path / "run.jsonl")
        twin = tmp_path / "expanded.jsonl"
        twin.write_text("".join(json.dumps(r) + "\n" for r in expand_deltas(records)),
                        encoding="utf-8")
        frames = load_ledger(tmp_path / "run.jsonl").frames
        assert frames == load_ledger(twin).frames
        assert [f.node_states["C"] for f in frames] == ["not-yet"] * 4 + ["formalized"]

    @pytest.mark.parametrize("frames", [
        [{"rec": "frame", "index": 0, "revision": 0, "nodes": dict.fromkeys("ab", "not-yet"),
          "edges": [["a", "b"], ["a", "b"]]}],
        [{"rec": "frame", "index": 0, "revision": 0, "nodes": dict.fromkeys("ab", "not-yet"),
          "edges": [["a", "b"]]},
         {"rec": "frame", "index": 1, "revision": 1, "nodes": {}, "deps": {"b": ["a", "a"]}}],
    ], ids=["keyframe-edges", "delta-deps-entry"])
    def test_a_pair_listed_twice_is_a_ledger_error(self, tmp_path, frames):
        path = tmp_path / "run.jsonl"
        path.write_text("".join(json.dumps(record) + "\n" for record in [
            {"rec": "run", "version": 3}, *frames]), encoding="utf-8")
        with pytest.raises(LedgerError, match=f"^malformed ledger record: frame {len(frames) - 1}: "
                                              "an edge is listed twice$"):
            load_ledger(path)

    KEYFRAME = {"rec": "frame", "index": 0, "revision": 0, "nodes": {"a": "not-yet"}, "edges": []}
    CHAIN = {"rec": "frame", "index": 0, "revision": 0,  # a -> b -> c
             "nodes": dict.fromkeys("abc", "not-yet"), "edges": [["a", "b"], ["b", "c"]]}

    @pytest.mark.parametrize("frames", [
        [{"rec": "frame", "index": 0, "revision": 0, "nodes": {}}],
        [KEYFRAME, {"rec": "frame", "index": 1, "revision": 0, "nodes": {"Z": "formalized"}}],
        [KEYFRAME, {"rec": "frame", "index": 1, "revision": 0, "nodes": ["a"]}],
        [KEYFRAME, {"rec": "frame", "index": 1, "revision": 0}],
        [CHAIN, {"rec": "frame", "index": 1, "revision": 1, "nodes": {"b": "failing"},
                 "removed": ["b"], "after": {"b": "a"}}],
        [CHAIN, {"rec": "frame", "index": 1, "revision": 1, "nodes": {}, "removed": ["c", "c"]}],
    ], ids=["delta-first", "unknown-id", "nodes-not-an-object", "no-nodes",
            "removed-and-listed-again", "removed-twice"])
    def test_a_delta_of_the_wrong_shape_is_a_ledger_error(self, tmp_path, frames):
        path = tmp_path / "run.jsonl"
        path.write_text("".join(json.dumps(record) + "\n" for record in [
            {"rec": "run", "version": 2}, *frames]), encoding="utf-8")
        with pytest.raises(LedgerError, match=f"^malformed ledger record: frame {len(frames) - 1}: "):
            load_ledger(path)

    @pytest.mark.parametrize("delta, fault", [
        ({"nodes": {"b": "failing"}, "removed": ["b"], "after": {"b": "a"}},
         "a delta that removes an id twice"),
        ({"nodes": {}, "removed": ["c", "c"]}, "a delta that removes an id twice"),
        ({"nodes": {}, "deps": {"c": ["b", "b"]}}, "a pair listed twice"),
    ], ids=["removed-and-listed-again", "removed-twice", "dep-listed-twice"])
    def test_the_oracle_refuses_a_contradictory_delta_with_its_own_assertion(self, delta, fault):
        records = [self.CHAIN, {"rec": "frame", "index": 1, "revision": 1, **delta}]
        with pytest.raises(AssertionError, match=f"^frame 1: {fault}"):
            expand_deltas(records)


class TestLedgerVersion:
    def test_a_new_ledger_is_version_3(self, tmp_path):
        open_ledger("r", tmp_path / "run.jsonl")
        assert next(read_ledger_records(tmp_path / "run.jsonl"))["version"] == 3

    @pytest.mark.parametrize("version", [4, 0, "2", 2.0, "3", 3.0, True, None])
    def test_an_unknown_version_is_a_ledger_error(self, tmp_path, version):
        path = tmp_path / "run.jsonl"
        records = three_closes_ledger(path)
        records[0]["version"] = version
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        with pytest.raises(LedgerError, match="unsupported ledger version") as exc:
            verify_replay(read_ledger_records(path))
        assert not isinstance(exc.value, ReplayMismatch)
        with pytest.raises(LedgerError, match="unsupported ledger version"):
            load_ledger(path)

    def test_records_without_a_run_header_do_not_replay(self, tmp_path):
        records = three_closes_ledger(tmp_path / "run.jsonl")
        with pytest.raises(LedgerError, match="is not a run ledger"):
            verify_replay(records[1:])

    @pytest.mark.parametrize("version", [1, 2])
    def test_versions_1_and_2_are_read(self, tmp_path, version):
        path = tmp_path / "run.jsonl"
        records = three_closes_ledger(path)
        records[0]["version"] = version
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert verify_replay(read_ledger_records(path)) == (5, 1)
        assert len(load_ledger(path).frames) == 5


DATA_DIR = Path(__file__).resolve().parent / "data"
V1_LEDGER = DATA_DIR / "v1-replan-4x3.jsonl"
V2_LEDGER = DATA_DIR / "v2-replan-4x3.jsonl"
TIMING_FIELDS = ("ts", "elapsed", "wall_clock", "started")


def without_timing(records):
    """Records minus the timing fields and the header's version."""
    return [{key: value for key, value in record.items()
             if key not in TIMING_FIELDS and not (record["rec"] == "run" and key == "version")}
            for record in records]


def replan_ledger(directory: Path, statements: int, splits: int) -> Path:
    """The ledger of ``replan_fixture(statements, splits)`` on ``SIMPLE_INPUT``, run
    with the replan limit ``splits``."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "input.lean").write_text(SIMPLE_INPUT, encoding="utf-8")
    config = LoopConfig(wall_clock_budget=60.0, compile_budget=2, replan_limit=splits,
                        check_retry_limit=2)
    run(directory / "input.lean", ScriptedBackend(replan_fixture(statements, splits)),
        SimVerifier({}), config, workspace_dir=directory / "ws",
        ledger_path=directory / "ledger.jsonl")
    return directory / "ledger.jsonl"


class TestVersion1Ledger:
    """A ledger the version 1 writer recorded (every frame in full), with its traces:
    ``replan_fixture(4, 3)`` on ``SIMPLE_INPUT`` with the replan limit 3."""

    def run_it_today(self, tmp_path):
        return replan_ledger(tmp_path, 4, 3)

    def test_it_replays_and_traces_as_when_it_was_written(self):
        records = list(read_ledger_records(V1_LEDGER))
        assert records[0]["version"] == 1
        assert all("edges" in r for r in records if r["rec"] == "frame")
        assert_replays_and_traces_as_written(V1_LEDGER)

    def test_the_same_run_today_writes_it_with_deltas(self, tmp_path):
        path = self.run_it_today(tmp_path)
        records = list(read_ledger_records(path))
        old = list(read_ledger_records(V1_LEDGER))
        assert records[0]["version"] == 3
        assert without_timing(expand_deltas(records)) == without_timing(old)
        # The one keyframe is the version 1 line of frame 0, and every status delta
        # is the version 2 line of the same frame.
        v1_lines, v2_lines, new_lines = ([line for line in ledger.read_text(encoding="utf-8")
                                          .splitlines() if line.startswith('{"rec": "frame"')]
                                         for ledger in (V1_LEDGER, V2_LEDGER, path))
        assert [i for i, line in enumerate(new_lines) if '"edges": ' in line] == [0]
        assert new_lines[0] == v1_lines[0]
        structure = [i for i, line in enumerate(new_lines) if '"after": ' in line]
        assert structure == [1, 3, 5]
        assert [line for i, line in enumerate(new_lines) if i not in structure] == [
            line for i, line in enumerate(v2_lines) if i not in structure]
        assert path.stat().st_size < V2_LEDGER.stat().st_size < V1_LEDGER.stat().st_size
        assert load_ledger(path).frames == load_ledger(V1_LEDGER).frames
        assert load_ledger(path).frames == load_ledger(V2_LEDGER).frames


class TestVersion2Ledger:
    """A ledger the version 2 writer recorded (a keyframe at every structure change,
    status deltas otherwise) for the same run as the version 1 ledger."""

    def test_it_replays_and_traces_as_when_it_was_written(self):
        records = list(read_ledger_records(V2_LEDGER))
        assert records[0]["version"] == 2
        frames = [r for r in records if r["rec"] == "frame"]
        assert [i for i, r in enumerate(frames) if "edges" in r] == [0, 1, 3, 5]
        assert not any(r.keys() & {"removed", "after", "deps"} for r in frames)
        assert_replays_and_traces_as_written(V2_LEDGER)
        assert without_timing(expand_deltas(records)) == without_timing(
            list(read_ledger_records(V1_LEDGER)))


def assert_replays_and_traces_as_written(path: Path) -> None:
    """The ledger replays to 8 frames and 3 diffs, and traces to its checked-in traces."""
    assert verify_replay(read_ledger_records(path)) == (8, 3)
    ledger = load_ledger(path)
    for fmt, suffix in (("text", "txt"), ("dot", "dot")):
        written = path.with_name(path.name.replace(".jsonl", f".trace.{suffix}"))
        assert export_trace(ledger, fmt) == written.read_text(encoding="utf-8")


def traced_peak(fn):
    """``fn()`` and the peak of the memory traced while it ran, in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def written_ledgers(tmp_path_factory):
    """Ledgers the loop writes: Burnside, and replan_fixture(200, splits) for 8 and 32 splits."""
    base = tmp_path_factory.mktemp("written")
    run(BURNSIDE_DIR / "input.lean", ScriptedBackend(load_fixture(BURNSIDE_DIR / "agents.fx")),
        SimVerifier(load_sim_rules(BURNSIDE_DIR / "sim-rules.txt")), LoopConfig(),
        workspace_dir=base / "burnside" / "ws", ledger_path=base / "burnside" / "ledger.jsonl")
    ledgers = {"burnside": base / "burnside" / "ledger.jsonl", "v1-replan-4x3": V1_LEDGER,
               "v2-replan-4x3": V2_LEDGER}
    for splits in (8, 32):
        ledgers[f"replan-200x{splits}"] = replan_ledger(base / f"replan{splits}", 200, splits)
    return ledgers


class TestStreamingReaders:
    @pytest.mark.parametrize("fmt", ["text", "dot"])
    @pytest.mark.parametrize("name", ["burnside", "replan-200x8", "v1-replan-4x3",
                                      "v2-replan-4x3"])
    def test_a_written_ledger_exports_like_the_oracle_of_its_records(self, written_ledgers,
                                                                      name, fmt):
        path = written_ledgers[name]
        expected = oracle_trace(oracle_frames(list(read_ledger_records(path))), fmt)
        assert export_trace(load_ledger(path), fmt) == expected

    @pytest.mark.parametrize("name", ["burnside", "replan-200x8", "v1-replan-4x3",
                                      "v2-replan-4x3"])
    def test_loaded_frames_equal_the_oracle_frames(self, written_ledgers, name):
        path = written_ledgers[name]
        oracle = oracle_frames(list(read_ledger_records(path)))
        loaded = load_ledger(path).frames
        assert [(f.index, f.plan_revision, list(f.node_states.items()), list(f.edges))
                for f in loaded] == [(f.index, f.plan_revision, list(f.node_states.items()),
                                      f.edges) for f in oracle]

    def test_loaded_frames_share_ids_statuses_and_pairs(self, written_ledgers):
        for name in ("replan-200x8", "v2-replan-4x3"):  # one keyframe, and one at each diff
            frames = load_ledger(written_ledgers[name]).frames
            for values in (lambda f: f.node_states, lambda f: f.node_states.values(),
                           lambda f: f.edges):
                objects = [value for frame in frames for value in values(frame)]
                assert len({id(value) for value in objects}) == len(set(objects))

    def test_replay_memory_does_not_grow_with_the_ledger(self, written_ledgers):
        peaks = {}
        for splits in (8, 32):
            path = written_ledgers[f"replan-200x{splits}"]
            result, peaks[splits] = traced_peak(lambda: verify_replay(read_ledger_records(path)))
            assert result[1] == splits
        assert peaks[32] <= 1.5 * peaks[8]

    @pytest.mark.parametrize("splits", [8, 32])
    def test_trace_memory_is_bounded_by_its_text(self, written_ledgers, splits):
        path = written_ledgers[f"replan-200x{splits}"]
        text, peak = traced_peak(lambda: export_trace(load_ledger(path), "text"))
        assert peak <= 8 * len(text)
