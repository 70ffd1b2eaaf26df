import io
import json
import random
import statistics
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from helpers import anchor_decl, chain_plan, mk_node, oracle_levels, oracle_trace
from proofloop.agents import TokenUsage
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
    load_ledger,
    open_ledger,
    read_ledger_records,
    render_stats_row,
    verify_replay,
)
from proofloop.plan import (
    CycleError,
    DiffCause,
    NodeRewrite,
    PlanDiff,
    PlanError,
    Status,
    apply_diff,
    create_plan,
    diff_to_text,
    plan_to_text,
    set_status,
)


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


# ---------------------------------------------------------------------------
# Work shared between frames of one structure must not change what is written,
# checked or rendered for any single frame.

ID_CHARS = "aβ∀é_'\"\\\x01😀9"
STATUSES = [Status.OPEN, Status.FAILING, Status.CLOSED]


def expected_frame_line(plan, index: int) -> str:
    """The frame record built from scratch, as one JSON line."""
    return json.dumps({
        "rec": "frame", "index": index, "revision": plan.revision,
        "nodes": {nid: FRAME_STATUS[plan.nodes[nid].status] for nid in plan.order},
        "edges": [[dep, nid] for nid in plan.order for dep in plan.nodes[nid].deps],
    }, ensure_ascii=False)


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
        expected = []

        def snapshot():
            ledger.snapshot_frame(plan)
            expected.append(expected_frame_line(plan, len(expected)))

        snapshot()
        steps = data.draw(st.lists(st.sampled_from(["status", "status", "add", "rewrite",
                                                    "rebuild"]), max_size=8))
        for step in steps:
            order = list(plan.order)
            if step == "status":
                node_id = data.draw(st.sampled_from(order))
                plan = set_status(plan, node_id, data.draw(st.sampled_from(STATUSES)))
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
            snapshot()
        lines = sink.getvalue().splitlines()
        assert lines == expected
        assert [json.loads(line) for line in lines] == [json.loads(line) for line in expected]


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
    ledger.snapshot_frame(plan)
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
        ledger.snapshot_frame(plan)
    ledger.record_outcome(Outcome("unfinished", "time-budget", 1.0, 5, 1))
    return read_ledger_records(path)


class TestReplayChecksEveryFrame:
    MID_REVISION = [1, 3, 4]

    def frames_of(self, records):
        return [record for record in records if record["rec"] == "frame"]

    def test_the_ledger_replays_and_has_mid_revision_frames(self, tmp_path):
        records = three_closes_ledger(tmp_path / "run.jsonl")
        frames = self.frames_of(records)
        assert verify_replay(records) == (5, 1)
        for index in self.MID_REVISION:
            assert frames[index]["revision"] == frames[index - 1]["revision"]
            assert frames[index]["edges"] == frames[index - 1]["edges"]

    @pytest.mark.parametrize("index", MID_REVISION)
    @pytest.mark.parametrize("tamper", ["drop-edge", "add-edge", "swap-edge", "status"])
    def test_an_altered_mid_revision_frame_is_named(self, tmp_path, index, tamper):
        records = three_closes_ledger(tmp_path / "run.jsonl")
        frame = self.frames_of(records)[index]
        if tamper == "drop-edge":
            frame["edges"] = frame["edges"][:-1]
        elif tamper == "add-edge":
            frame["edges"] = frame["edges"] + [["A", "D"]]
        elif tamper == "swap-edge":
            frame["edges"] = [[node, dep] for dep, node in frame["edges"]]
        else:
            frame["nodes"] = {**frame["nodes"], "D": "formalized"}
        with pytest.raises(ReplayMismatch, match=f"^frame {index}: "):
            verify_replay(records)


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
        frames = self.hand_built().frames
        path = tmp_path / "run.jsonl"
        path.write_text("".join(json.dumps(record) + "\n" for record in [
            {"rec": "run", "version": 1, "run_id": "r"},
            *({"rec": "frame", "index": f.index, "revision": f.plan_revision,
               "nodes": f.node_states, "edges": [list(e) for e in f.edges]} for f in frames),
        ]), encoding="utf-8")
        loaded = load_ledger(path)
        assert loaded.frames == frames
        assert export_trace(loaded, fmt) == oracle_trace(frames, fmt)

    @pytest.mark.parametrize("fmt", ["text", "dot"])
    def test_a_cyclic_frame_after_a_valid_one_with_the_same_nodes(self, fmt):
        ledger = RunLedger("r")
        nodes = {"a": "not-yet", "b": "not-yet"}
        ledger.frames.append(Frame(0, dict(nodes), (("a", "b"),), 0))
        ledger.frames.append(Frame(1, dict(nodes), (("a", "b"), ("b", "a")), 0))
        with pytest.raises(CycleError):
            export_trace(ledger, fmt)


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
    ])
    def test_a_record_of_the_wrong_shape_is_a_ledger_error(self, tmp_path, record):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps({"rec": "run", "version": 1}) + "\n"
                        + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(LedgerError, match="malformed ledger record"):
            load_ledger(path)
