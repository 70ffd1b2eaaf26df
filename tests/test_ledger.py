import random
import statistics
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from helpers import anchor_decl, chain_plan, mk_node, oracle_levels
from proofloop.agents import TokenUsage
from proofloop.ledger import (
    CostModel,
    EmptyInput,
    EventKind,
    Frame,
    LedgerClosed,
    LedgerError,
    Outcome,
    ReplayMismatch,
    RunLedger,
    UnsolvedIncluded,
    UnsupportedFormat,
    aggregate_stats,
    cost,
    depth_layout,
    export_trace,
    load_ledger,
    open_ledger,
    read_ledger_records,
    render_stats_row,
    verify_replay,
)
from proofloop.plan import CycleError, Status, create_plan, set_status


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
        ledger.snapshot_frame(plan)
        assert [f.index for f in ledger.frames] == [0, 1]
        assert ledger.frames[1].node_states == {"A": "formalized", "B": "not-yet"}
        assert ledger.frames[1].edges == (("A", "B"),)

    def test_closed_ledger_rejects_writes(self):
        ledger = open_ledger("r1")
        ledger.record_outcome(Outcome("solved", None, 1.0, 1, 0))
        with pytest.raises(LedgerClosed):
            ledger.record_event(EventKind.RESTART)
        with pytest.raises(LedgerClosed):
            ledger.snapshot_frame(chain_plan(["A"]))

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
        first = read_ledger_records(path)
        ledger.record_event(EventKind.NODE_CLOSED, "A")
        ledger.record_outcome(Outcome("solved", None, 2.0, 1, 0))
        final = read_ledger_records(path)
        assert final[:len(first)] == first
        assert len(final) > len(first)

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = open_ledger("r1", path)
        ledger.record_event(EventKind.PLAN_CREATED, None, "start")
        ledger.record_outcome(Outcome("solved", None, 2.0, 1, 0))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"rec": "event", "kind": "Nod')
        records = read_ledger_records(path)
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
            read_ledger_records(path)

    @pytest.mark.parametrize("line", ["[1, 2]", '"text"', "7", "null"])
    def test_a_line_that_is_not_an_object_is_an_error(self, tmp_path, line):
        path = tmp_path / "run.jsonl"
        ledger = open_ledger("r1", path)
        ledger.record_outcome(Outcome("solved", None, 2.0, 1, 0))
        with path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        with pytest.raises(LedgerError, match="not a JSON object"):
            read_ledger_records(path)

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        ledger = open_ledger("r7", path)
        ledger.record_usage("lean", None, "A", TokenUsage(3, 4, 5, 6), 0.2)
        ledger.record_event(EventKind.BUDGET_STOP, None, "time-budget: t")
        ledger.record_outcome(Outcome("unfinished", "time-budget", 9.5, 4, 2))
        loaded = load_ledger(path)
        assert loaded.run_id == "r7"
        assert loaded.usage_total == TokenUsage(3, 4, 5, 6)
        assert loaded.outcome.reason == "time-budget"
        assert loaded.events[0].kind is EventKind.BUDGET_STOP


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
            frame = frame_of({n: "not-yet" for n in ids}, edges)
            assert depth_layout(frame) == oracle_levels(ids, edges)


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
        ua, ub = TokenUsage(*a), TokenUsage(*b)
        drift = abs(cost(ua + ub, RATES) - (cost(ua, RATES) + cost(ub, RATES)))
        assert drift <= Decimal("0.02")


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
        ledger.snapshot_frame(set_status(plan, "Main", Status.CLOSED))
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
        records = read_ledger_records(path)
        assert verify_replay(records) == (1, 0)
        records[2]["nodes"]["A"] = "formalized"  # corrupt the frame
        with pytest.raises(ReplayMismatch):
            verify_replay(records)
