import argparse
import json
from pathlib import Path

import pytest

from helpers import BURNSIDE_DIR, SIMPLE_INPUT, anchor_decl, mk_node, single_node_fixture
from proofloop import leanenv
from proofloop.agents import ScriptedBackend, fixture_to_text, load_fixture
from proofloop.cli import OPTION_READERS, build_parser, main, parse_duration, UsageError
from proofloop.leanenv import SimVerifier, find_anchor, load_sim_rules, read_anchor, write_anchor
from proofloop.ledger import Outcome, open_ledger
from proofloop.looper import LoopConfig, run
from proofloop.plan import create_plan, plan_to_text


def burnside_args(tmp_path, *extra):
    return [
        "run", str(BURNSIDE_DIR / "input.lean"),
        "--backend", "scripted",
        "--fixture", str(BURNSIDE_DIR / "agents.fx"),
        "--verifier", "sim",
        "--sim-rules", str(BURNSIDE_DIR / "sim-rules.txt"),
        "--out", str(tmp_path / "out"),
        *extra,
    ]


def simple_run_args(tmp_path, *extra):
    input_file = tmp_path / "input.lean"
    input_file.write_text(SIMPLE_INPUT, encoding="utf-8")
    fixture_file = tmp_path / "simple.fx"
    fixture_file.write_text(fixture_to_text(single_node_fixture()), encoding="utf-8")
    return [
        "run", str(input_file),
        "--backend", "scripted",
        "--fixture", str(fixture_file),
        "--verifier", "sim",
        "--out", str(tmp_path / "out"),
        *extra,
    ]


def summary_of(capsys) -> dict:
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1, f"expected one summary line, got {out!r}"
    return json.loads(out[0])


class TestParseDuration:
    @pytest.mark.parametrize("text, seconds", [
        ("4h", 14400.0), ("90m", 5400.0), ("10s", 10.0), ("1h30m", 5400.0),
        ("0s", 0.0), ("45", 45.0), ("1h2m3s", 3723.0),
    ])
    def test_accepted_forms(self, text, seconds):
        assert parse_duration(text) == seconds

    @pytest.mark.parametrize("text", ["", "h", "4x", "one hour", "nan", "inf", "-Infinity", "1e400",
                                      pytest.param("9" * 400 + "h", id="400-digit-hours")])
    def test_rejected_forms(self, text):
        with pytest.raises(UsageError):
            parse_duration(text)


class TestRunCommand:
    def test_solved_run_exits_zero_with_summary(self, tmp_path, capsys):
        code = main(simple_run_args(tmp_path))
        summary = summary_of(capsys)
        assert code == 0
        assert summary["verdict"] == "solved"
        assert summary["plan_size"] == 1
        assert (tmp_path / "out" / "ledger.jsonl").is_file()
        assert (tmp_path / "out" / "workspace" / ".proofloop-anchor.json").is_file()

    def test_missing_input_is_a_usage_error(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "missing.lean"),
                     "--backend", "scripted", "--fixture", "x"])
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_zero_wall_clock_is_unfinished(self, tmp_path, capsys):
        code = main(simple_run_args(tmp_path, "--wall-clock", "0s"))
        summary = summary_of(capsys)
        assert code == 1
        assert summary["verdict"] == "unfinished"
        assert summary["reason"] == "time-budget"

    def test_input_without_sorry_is_a_usage_error(self, tmp_path, capsys):
        input_file = tmp_path / "done.lean"
        input_file.write_text("theorem t : True := trivial\n", encoding="utf-8")
        fixture_file = tmp_path / "simple.fx"
        fixture_file.write_text(fixture_to_text(single_node_fixture()), encoding="utf-8")
        code = main(["run", str(input_file), "--backend", "scripted",
                     "--fixture", str(fixture_file), "--verifier", "sim",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "sorry" in capsys.readouterr().err

    def test_missing_fixture_flag_is_usage_error(self, tmp_path, capsys):
        input_file = tmp_path / "input.lean"
        input_file.write_text(SIMPLE_INPUT, encoding="utf-8")
        code = main(["run", str(input_file), "--backend", "scripted",
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_lock_file_blocks_concurrent_runs(self, tmp_path, capsys):
        args = simple_run_args(tmp_path)
        workspace = tmp_path / "out" / "workspace"
        workspace.mkdir(parents=True)
        (workspace / ".proofloop.lock").write_text("12345", encoding="utf-8")
        code = main(args)
        assert code == 2

    def test_lock_file_is_released_after_a_run(self, tmp_path):
        args = simple_run_args(tmp_path)
        assert main(args) == 0
        assert not (tmp_path / "out" / "workspace" / ".proofloop.lock").exists()

    def test_rates_file_prices_the_run(self, tmp_path, capsys):
        rates = tmp_path / "rates.json"
        rates.write_text(json.dumps({"prompt": 15, "completion": 75,
                                     "cache_read": 1.5, "cache_write": 18.75}))
        code = main(burnside_args(tmp_path, "--rates", str(rates)))
        summary = summary_of(capsys)
        assert code == 0
        assert summary["cost_usd"] == "147.03"

    def test_a_class_the_rates_file_leaves_out_costs_nothing(self, tmp_path, capsys):
        path = tmp_path / "rates.json"
        path.write_text(json.dumps({"prompt": 15, "completion": 75, "cache_write": 18.75}))
        assert main(burnside_args(tmp_path, "--rates", str(path))) == 0
        assert summary_of(capsys)["cost_usd"] == "138.90"

    def test_a_rates_key_that_is_no_token_class_is_named(self, tmp_path, capsys):
        path = tmp_path / "rates.json"
        path.write_text(json.dumps({"prompt": 15, "cache-read": 1.5}))
        assert main(simple_run_args(tmp_path, "--rates", str(path))) == 2
        assert "'cache-read'" in capsys.readouterr().err


class TestPrecedence:
    def test_flag_beats_config_beats_env(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"wall_clock": "0s"}))
        monkeypatch.setenv("PROOFLOOP_WALL_CLOCK", "1h")

        # Env alone: runs fine (1h budget).
        assert main(simple_run_args(tmp_path)) == 0
        capsys.readouterr()

        # Config overrides env: 0s budget, unfinished.
        args = simple_run_args(tmp_path, "--config", str(config))
        (tmp_path / "out" / "workspace" / ".proofloop.lock").unlink(missing_ok=True)
        assert main(args) == 1
        capsys.readouterr()

        # Flag overrides config: back to a real budget.
        args = simple_run_args(tmp_path, "--config", str(config), "--wall-clock", "5m")
        assert main(args) == 0
        capsys.readouterr()

    def test_compile_budget_from_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PROOFLOOP_COMPILE_BUDGET", "1")
        # The single-node fixture closes on the first attempt either way.
        assert main(simple_run_args(tmp_path)) == 0
        capsys.readouterr()


class TestOptionReaders:
    def test_unset_options_take_the_library_defaults(self, tmp_path, capsys):
        assert main(burnside_args(tmp_path / "cli")) == 0
        capsys.readouterr()
        _, ledger = run(BURNSIDE_DIR / "input.lean",
                        ScriptedBackend(load_fixture(BURNSIDE_DIR / "agents.fx")),
                        SimVerifier(load_sim_rules(BURNSIDE_DIR / "sim-rules.txt")),
                        LoopConfig(), workspace_dir=tmp_path / "lib" / "workspace")
        header = json.loads((tmp_path / "cli" / "out" / "ledger.jsonl").read_text().split("\n")[0])
        assert header["run_id"] == ledger.run_id

    def test_each_option_of_run_and_audit_has_a_reader(self):
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        dests = {action.dest for command in ("run", "audit")
                 for action in subparsers.choices[command]._actions
                 if not isinstance(action, argparse._HelpAction)}
        options = dests - {"file", "workspace", "decl", "anchor", "config"}
        assert options <= OPTION_READERS.keys(), "an option without a reader"
        assert OPTION_READERS.keys() - {"toolchain_root"} <= options, "a reader without a flag"


class TestAuditCommand:
    def _run_burnside(self, tmp_path, capsys):
        assert main(burnside_args(tmp_path)) == 0
        capsys.readouterr()
        return tmp_path / "out" / "workspace"

    def test_final_workspace_passes(self, tmp_path, capsys):
        workspace = self._run_burnside(tmp_path, capsys)
        code = main(["audit", str(workspace), "--verifier", "sim",
                     "--sim-rules", str(BURNSIDE_DIR / "sim-rules.txt")])
        summary = summary_of(capsys)
        assert code == 0
        assert summary["pass"] is True
        assert summary["axioms"] == ["Classical.choice", "Quot.sound", "propext"]

    def test_the_target_is_found_without_tokenizing_the_other_files(self, tmp_path, capsys,
                                                                    monkeypatch):
        workspace = self._run_burnside(tmp_path, capsys)
        files = sorted(workspace.rglob("*.lean"))
        assert len(files) > 30
        holding = [path for path in files if "MainTheorem" in path.read_text(encoding="utf-8")]
        lookups, headed = [], []
        real_lookup, real_heads = leanenv.find_signature, leanenv.declaration_heads
        monkeypatch.setattr(leanenv, "find_signature",
                            lambda texts, name: lookups.append(name) or real_lookup(texts, name))
        monkeypatch.setattr(leanenv, "declaration_heads",
                            lambda tokens: headed.append(tokens) or real_heads(tokens))
        code = main(["audit", str(workspace), "--verifier", "sim",
                     "--sim-rules", str(BURNSIDE_DIR / "sim-rules.txt")])
        assert code == 0 and summary_of(capsys)["pass"] is True
        assert lookups == ["MainTheorem"]
        assert len(headed) == len(holding) == 1  # only the file holding the name is tokenized

    def test_the_audit_reads_each_workspace_file_once(self, tmp_path, capsys, monkeypatch):
        workspace = self._run_burnside(tmp_path, capsys)
        reads: list[Path] = []
        real_read_text = Path.read_text

        def counting_read_text(path, *args, **kwargs):
            if path.suffix == ".lean":
                reads.append(path)
            return real_read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        code = main(["audit", str(workspace), "--verifier", "sim",
                     "--sim-rules", str(BURNSIDE_DIR / "sim-rules.txt")])
        monkeypatch.undo()
        assert code == 0 and summary_of(capsys)["pass"] is True
        assert sorted(reads) == sorted(workspace.rglob("*.lean"))

    def test_two_declarations_of_the_anchored_name_fail_the_audit(self, tmp_path, capsys):
        """A namespaced namesake in a file that sorts first cannot stand in for the target."""
        workspace = tmp_path / "ws"
        (workspace / "Proofws").mkdir(parents=True)
        (workspace / "Proofws" / "A.lean").write_text(
            "namespace Evil\ntheorem Main : True := trivial\nend Evil\n", encoding="utf-8")
        (workspace / "Proofws" / "Main.lean").write_text(
            "theorem Main : 1 = 1 ∨ True := Or.inr trivial\n", encoding="utf-8")
        (workspace / ".proofloop-anchor.json").write_text(
            json.dumps({"decl_name": "Main", "signature": "theorem Main : True"}), encoding="utf-8")
        code = main(["audit", str(workspace), "--verifier", "sim"])
        summary = summary_of(capsys)
        assert code == 1 and summary["pass"] is False
        assert summary["detail"] == ("target not found: multiple declarations named Main in "
                                     "Proofws/A.lean, Proofws/Main.lean")

    def test_admit_occurrence_fails_and_is_listed(self, tmp_path, capsys):
        workspace = self._run_burnside(tmp_path, capsys)
        (workspace / "Proofws" / "Extra.lean").write_text(
            "theorem extra : True := by admit\n", encoding="utf-8")
        code = main(["audit", str(workspace), "--verifier", "sim",
                     "--sim-rules", str(BURNSIDE_DIR / "sim-rules.txt")])
        summary = summary_of(capsys)
        assert code == 1
        assert ["admit", "Proofws/Extra.lean", 1] in summary["forbidden"]

    def test_tightened_permitted_set_fails(self, tmp_path, capsys):
        workspace = self._run_burnside(tmp_path, capsys)
        code = main(["audit", str(workspace), "--verifier", "sim",
                     "--sim-rules", str(BURNSIDE_DIR / "sim-rules.txt"),
                     "--permit", "propext"])
        summary = summary_of(capsys)
        assert code == 1
        assert summary["pass"] is False

    def test_permit_via_environment_splits_on_whitespace(self, tmp_path, capsys,
                                                         monkeypatch):
        workspace = self._run_burnside(tmp_path, capsys)
        monkeypatch.setenv("PROOFLOOP_PERMIT", "propext Quot.sound Classical.choice")
        code = main(["audit", str(workspace), "--verifier", "sim",
                     "--sim-rules", str(BURNSIDE_DIR / "sim-rules.txt")])
        assert code == 0
        capsys.readouterr()
        monkeypatch.setenv("PROOFLOOP_PERMIT", "propext")
        code = main(["audit", str(workspace), "--verifier", "sim",
                     "--sim-rules", str(BURNSIDE_DIR / "sim-rules.txt")])
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize("helper", [
        "-- sim: error boom\ntheorem Helper : True := trivial\n",
        "/- unterminated\ntheorem Main2 : True := sorry\n",
        'def s : String := "unterminated\ntheorem Main2 : True := sorry\n',
    ], ids=["error-directive", "unterminated-comment", "unterminated-string"])
    def test_a_helper_that_does_not_build_fails_the_sim_audit(self, tmp_path, capsys, helper):
        anchor = tmp_path / "in.lean"
        anchor.write_text("theorem Main : True := by\n  sorry\n", encoding="utf-8")
        ws = tmp_path / "ws"
        ws.mkdir()
        (ws / "Main.lean").write_text("theorem Main : True := trivial\n", encoding="utf-8")
        (ws / "Helper.lean").write_text(helper, encoding="utf-8")
        code = main(["audit", str(ws), "--anchor", str(anchor), "--verifier", "sim"])
        summary = summary_of(capsys)
        assert code == 1
        assert summary["pass"] is False and summary["signature_match"] is True
        assert "axiom audit failed" in summary["detail"]

    def test_files_that_share_a_stem_are_all_audited(self, tmp_path, capsys):
        anchor = tmp_path / "in.lean"
        anchor.write_text("theorem Main : True := by\n  sorry\n", encoding="utf-8")
        ws = tmp_path / "ws"
        (ws / "A").mkdir(parents=True)
        (ws / "Main.lean").write_text("theorem Main : True := trivial\n", encoding="utf-8")
        (ws / "A" / "Main.lean").write_text("theorem h : True := sorry\n", encoding="utf-8")
        code = main(["audit", str(ws), "--anchor", str(anchor), "--verifier", "sim"])
        summary = summary_of(capsys)
        assert code == 1
        assert summary["forbidden"] == [["sorry", "A/Main.lean", 1]]

    def test_a_real_audit_imports_only_the_run_files(self, tmp_path, capsys, monkeypatch):
        workspace = solved_run(tmp_path) / "workspace"
        capsys.readouterr()
        # What a real run leaves beside the node files: the root module and Lake's packages.
        (workspace / "Proofws.lean").write_text("import Proofws.Main\n", encoding="utf-8")
        package = workspace / ".lake" / "packages" / "dep" / "Dep.lean"
        package.parent.mkdir(parents=True)
        package.write_text("theorem dep : True := sorry\n", encoding="utf-8")
        lake = tmp_path / "toolchain" / "bin" / "lake"
        lake.parent.mkdir(parents=True)
        lake.write_text("#!/bin/sh\necho \"'Main' does not depend on any axioms\"\n",
                        encoding="utf-8")
        lake.chmod(0o755)
        monkeypatch.setenv("PROOFLOOP_TOOLCHAIN_ROOT", str(tmp_path / "toolchain"))
        for _ in range(2):  # the second audit finds the first one's driver
            code = main(["audit", str(workspace), "--verifier", "real"])
            summary = summary_of(capsys)
            assert code == 0, summary
            assert summary["forbidden"] == []
            assert (workspace / "AxiomAudit.lean").read_text(encoding="utf-8") == (
                "import Proofws.Main\n\n#print axioms Main\n")

    def test_workspace_without_anchor_information(self, tmp_path, capsys):
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "A.lean").write_text("theorem a : True := trivial\n", encoding="utf-8")
        code = main(["audit", str(bare), "--verifier", "sim"])
        assert code == 2


class TestReplayTraceStats:
    def test_replay_burnside_ledger(self, tmp_path, capsys):
        assert main(burnside_args(tmp_path)) == 0
        capsys.readouterr()
        code = main(["replay", str(tmp_path / "out" / "ledger.jsonl")])
        summary = summary_of(capsys)
        assert code == 0
        assert summary["consistent"] is True
        assert summary["note"] == "frames consistent"

    def test_replay_detects_tampering(self, tmp_path, capsys):
        assert main(simple_run_args(tmp_path)) == 0
        capsys.readouterr()
        ledger_path = tmp_path / "out" / "ledger.jsonl"
        lines = ledger_path.read_text().splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record["rec"] == "frame":
                record["nodes"] = {k: "failing" for k in record["nodes"]}
                lines[i] = json.dumps(record)
                break
        ledger_path.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(ledger_path)]) == 1

    def test_trace_text_and_dot(self, tmp_path, capsys):
        assert main(simple_run_args(tmp_path)) == 0
        capsys.readouterr()
        ledger_path = tmp_path / "out" / "ledger.jsonl"
        for fmt in ("text", "dot"):
            out_file = tmp_path / f"trace.{fmt}"
            code = main(["trace", str(ledger_path), "--format", fmt,
                         "--out", str(out_file)])
            summary = summary_of(capsys)
            assert code == 0
            assert out_file.is_file()
            assert summary["frames"] == 2

    def test_trace_unknown_format_is_rejected_by_the_parser(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "whatever.jsonl", "--format", "svg"])
        assert exc.value.code == 2

    def _write_solved_ledger(self, path, hours, statements):
        ledger = open_ledger("r-" + path.stem, path)
        ledger.record_outcome(Outcome("solved", None, hours * 3600, statements, 1))

    def test_stats_renders_a_mean_std_row(self, tmp_path, capsys):
        paths = []
        for i, hours in enumerate([0.17, 0.18, 0.20, 0.21, 0.21, 0.24, 0.26, 0.29]):
            path = tmp_path / f"run{i}.jsonl"
            self._write_solved_ledger(path, hours, 2)
            paths.append(str(path))
        code = main(["stats", *paths])
        summary = summary_of(capsys)
        assert code == 0
        assert summary["runs"] == 8
        assert summary["row"].startswith("0.22±0.04h | 0.21h | 0.17-0.29h | 2.0±0.0")

    def test_stats_rejects_unsolved_ledgers(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        ledger = open_ledger("r-bad", path)
        ledger.record_outcome(Outcome("unfinished", "time-budget", 100.0, 1, 0))
        assert main(["stats", str(path)]) == 2

    def test_replay_of_missing_file_is_usage_error(self, tmp_path):
        assert main(["replay", str(tmp_path / "none.jsonl")]) == 2


@pytest.mark.skipif(__import__("shutil").which("lake") is not None,
                    reason="a real toolchain is present")
class TestMissingToolchain:
    def test_run_with_real_verifier_is_an_environment_error(self, tmp_path):
        input_file = tmp_path / "input.lean"
        input_file.write_text(SIMPLE_INPUT, encoding="utf-8")
        fixture_file = tmp_path / "simple.fx"
        fixture_file.write_text(fixture_to_text(single_node_fixture()), encoding="utf-8")
        code = main(["run", str(input_file), "--backend", "scripted",
                     "--fixture", str(fixture_file), "--verifier", "real",
                     "--out", str(tmp_path / "out")])
        assert code == 3

    def test_audit_with_real_verifier_is_an_environment_error(self, tmp_path, capsys):
        args = simple_run_args(tmp_path)
        assert main(args) == 0
        capsys.readouterr()
        code = main(["audit", str(tmp_path / "out" / "workspace"),
                     "--verifier", "real"])
        assert code == 3


class TestStdoutDiscipline:
    def test_logs_go_to_stderr_not_stdout(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "missing.lean"),
                     "--backend", "scripted", "--fixture", "x"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "does not exist" in captured.err


# ---------------------------------------------------------------------------
# One row per fault: how each command reports it on its exit code.

NO_LAKE = pytest.mark.skipif(__import__("shutil").which("lake") is not None,
                             reason="a real toolchain is present")


def write_records(path, *records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def solved_run(tmp_path):
    assert main(simple_run_args(tmp_path)) == 0
    return tmp_path / "out"


def fault_bad_fixture(tmp_path):
    args = simple_run_args(tmp_path)
    (tmp_path / "simple.fx").write_text("not a fixture\n", encoding="utf-8")
    return args


def burnside_fixture_with(tmp_path, edit):
    """Burnside run arguments whose fixture is the shipped one passed through ``edit``."""
    fixture = tmp_path / "agents.fx"
    fixture.write_text(edit((BURNSIDE_DIR / "agents.fx").read_text(encoding="utf-8")),
                       encoding="utf-8")
    args = burnside_args(tmp_path)
    args[args.index("--fixture") + 1] = str(fixture)
    return args


def verdict_in_the_first_lean_entry(text):
    start = text.index("entry lean ")
    header_end = text.index("\n", start)
    return text[:header_end] + "\nverdict pass" + text[text.index("\nend\n", start):]


def negative_usage_in_the_first_entry(text):
    start = text.index("\nusage ") + 1
    return text[:start] + "usage -1 0 0 0" + text[text.index("\n", start):]


def fault_bad_sim_rules(tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text("simrules v1\nrule k\nsorries three\nend\n", encoding="utf-8")
    return burnside_args(tmp_path, "--sim-rules", str(rules))


def run_with_config(config):
    def make_args(tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return simple_run_args(tmp_path, "--config", str(path))
    return make_args


def fault_locked_workspace(tmp_path):
    args = simple_run_args(tmp_path)
    (tmp_path / "out" / "workspace").mkdir(parents=True)
    (tmp_path / "out" / "workspace" / ".proofloop.lock").write_text("1", encoding="utf-8")
    return args


def run_with_input(text):
    def make_args(tmp_path):
        args = simple_run_args(tmp_path)
        (tmp_path / "input.lean").write_text(text, encoding="utf-8")
        return args
    return make_args


SORRY_IN_AN_EXAMPLE = "theorem a : True := trivial\n\nexample : 1 = 1 := by sorry\n"
EQUATION_STYLE = "theorem t : Nat → Nat\n  | 0 => sorry\n  | n + 1 => n\n"
BARE_NAME_REUSED = ("namespace A\ntheorem foo : True := trivial\nend A\n"
                    "namespace B\ntheorem foo : True := sorry\nend B\n")


def audit_with_sidecar(text: str | bytes):
    def make_args(tmp_path):
        workspace = solved_run(tmp_path) / "workspace"
        data = text if isinstance(text, bytes) else text.encode("utf-8")
        (workspace / ".proofloop-anchor.json").write_bytes(data)
        return ["audit", str(workspace), "--verifier", "sim"]
    return make_args


def fault_audit_missing_anchor_file(tmp_path):
    workspace = solved_run(tmp_path) / "workspace"
    return ["audit", str(workspace), "--verifier", "sim", "--anchor", str(tmp_path / "none.lean")]


def fault_audit_without_anchor(tmp_path):
    (tmp_path / "bare").mkdir()
    (tmp_path / "bare" / "A.lean").write_text("theorem a : True := trivial\n", encoding="utf-8")
    return ["audit", str(tmp_path / "bare"), "--verifier", "sim"]


def fault_replay_mismatch(tmp_path):
    ledger_path = solved_run(tmp_path) / "ledger.jsonl"
    records = [json.loads(line) for line in ledger_path.read_text().splitlines()]
    frame = next(r for r in records if r["rec"] == "frame")
    frame["nodes"] = {node: "failing" for node in frame["nodes"]}
    write_records(ledger_path, *records)
    return ["replay", str(ledger_path)]


def replay_of_diff(diff):
    def make_args(tmp_path):
        plan = create_plan([mk_node("Main", anchor=anchor_decl("Main"))])
        path = write_records(
            tmp_path / "ledger.jsonl",
            {"rec": "run", "version": 1, "run_id": "r"},
            {"rec": "event", "kind": "PlanCreated", "data": {"plan": plan_to_text(plan)}},
            {"rec": "event", "kind": "DiffApplied", "data": {"diff": diff}},
        )
        return ["replay", str(path)]
    return make_args


def ledger_of_version(command, version):
    def make_args(tmp_path):
        ledger_path = solved_run(tmp_path) / "ledger.jsonl"
        records = [json.loads(line) for line in ledger_path.read_text().splitlines()]
        records[0]["version"] = version
        write_records(ledger_path, *records)
        return [command, str(ledger_path)]
    return make_args


def fault_trace_not_a_run_ledger(tmp_path):
    path = write_records(tmp_path / "ledger.jsonl", {"rec": "frame"})
    return ["trace", str(path)]


def fault_replay_not_a_run_ledger(tmp_path):
    return ["replay", fault_trace_not_a_run_ledger(tmp_path)[1]]


def fault_trace_frame_without_edges(tmp_path):
    path = write_records(tmp_path / "ledger.jsonl", {"rec": "run", "version": 1},
                         {"rec": "frame", "index": 0, "revision": 0, "nodes": {}})
    return ["trace", str(path)]


def fault_trace_cyclic_frame(tmp_path):
    path = write_records(
        tmp_path / "ledger.jsonl",
        {"rec": "run", "version": 1, "run_id": "r"},
        {"rec": "frame", "index": 0, "revision": 0,
         "nodes": {"a": "not-yet", "b": "not-yet"}, "edges": [["a", "b"], ["b", "a"]]},
    )
    return ["trace", str(path)]


def fault_trace_cyclic_frame_after_a_valid_one(tmp_path):
    nodes = {"a": "not-yet", "b": "not-yet"}
    path = write_records(
        tmp_path / "ledger.jsonl",
        {"rec": "run", "version": 1, "run_id": "r"},
        {"rec": "frame", "index": 0, "revision": 0, "nodes": nodes, "edges": [["a", "b"]]},
        {"rec": "frame", "index": 1, "revision": 0, "nodes": nodes,
         "edges": [["a", "b"], ["b", "a"]]},
    )
    return ["trace", str(path)]


def ledger_with_usage(command, **fields):
    def make_args(tmp_path):
        path = write_records(
            tmp_path / "ledger.jsonl",
            {"rec": "run", "version": 1, "run_id": "r"},
            {"rec": "frame", "index": 0, "revision": 0, "nodes": {"a": "formalized"},
             "edges": []},
            {"rec": "usage", "kind": "lean", **fields},
            {"rec": "outcome", "verdict": "solved", "wall_clock": 60.0,
             "statement_count": 1, "revision": 0},
        )
        return [command, str(path)]
    return make_args


# Edits to the two frames of a solved simple run (a keyframe, then a delta) that
# leave a record of the wrong shape, and the commands that read frames.
MALFORMED_FRAMES = {
    "keyframe-unknown-status": lambda key, delta: key["nodes"].update(Main="bogus-status"),
    "keyframe-nodes-not-an-object": lambda key, delta: key.update(nodes=[["Main", "not-yet"]]),
    "delta-unknown-status": lambda key, delta: delta["nodes"].update(Main="bogus-status"),
    "edge-not-a-pair": lambda key, delta: key.update(edges=[["Main"]]),
    "index-not-an-integer": lambda key, delta: key.update(index="0"),
    "revision-not-an-integer": lambda key, delta: delta.update(revision=0.0),
    "edge-outside-the-frame": lambda key, delta: key.update(edges=[["ghost", "Main"]]),
}
FRAME_READERS = {"replay": ["replay"], "trace-text": ["trace"],
                 "trace-dot": ["trace", "--format", "dot"], "stats": ["stats"]}


def malformed_frame(reader, edit):
    def make_args(tmp_path):
        ledger_path = solved_run(tmp_path) / "ledger.jsonl"
        records = [json.loads(line) for line in ledger_path.read_text().splitlines()]
        edit(*(r for r in records if r["rec"] == "frame"))
        write_records(ledger_path, *records)
        return [reader[0], str(ledger_path), *reader[1:]]
    return make_args


# Edits to the first delta of the Burnside ledger that changes the structure: two
# new lemmas, each placed after another id, with new dependency lists.
MALFORMED_DELTAS = {
    "delta-removes-an-unknown-id": lambda delta: delta.update(removed=["ghost"]),
    "delta-places-an-unknown-id": lambda delta: delta["after"].update(ghost=None),
    "delta-places-after-a-removed-id": lambda delta: delta.update(
        removed=[delta["after"][next(iter(delta["after"]))]]),
    "delta-two-ids-follow-one": lambda delta: delta["after"].update(
        {key: next(iter(delta["after"].values())) for key in delta["after"]}),
    "delta-links-not-one-chain": lambda delta: delta["after"].update(  # the last id of all
        {next(iter(delta["after"])): "Thm_MainTheorem"}),
    "delta-removed-not-a-list": lambda delta: delta.update(removed="ghost"),
    "delta-deps-not-an-object": lambda delta: delta.update(deps=[]),
    "delta-dep-outside-the-frame": lambda delta: delta["deps"].update(
        {next(iter(delta["deps"])): ["ghost"]}),
    "delta-lists-a-dep-twice": lambda delta: delta["deps"].update(
        {nid: deps + deps[:1] for nid, deps in delta["deps"].items() if deps}),
}
_BURNSIDE_LEDGER: list[str] = []  # the text of one Burnside run's ledger, read once


def structure_delta(reader, edit):
    def make_args(tmp_path):
        if not _BURNSIDE_LEDGER:
            assert main(burnside_args(tmp_path / "burnside")) == 0
            _BURNSIDE_LEDGER.append((tmp_path / "burnside" / "out" / "ledger.jsonl").read_text())
        records = [json.loads(line) for line in _BURNSIDE_LEDGER[0].splitlines()]
        edit(next(r for r in records if r["rec"] == "frame" and "after" in r))
        ledger_path = write_records(tmp_path / "ledger.jsonl", *records)
        return [reader[0], str(ledger_path), *reader[1:]]
    return make_args


def fault_stats_solved_without_statements(tmp_path):
    path = write_records(
        tmp_path / "ledger.jsonl",
        {"rec": "run", "version": 1, "run_id": "r"},
        {"rec": "outcome", "verdict": "solved", "wall_clock": 60.0,
         "statement_count": 0, "revision": 0},
    )
    return ["stats", str(path)]


def run_with_rates_text(text):
    def make_args(tmp_path):
        path = tmp_path / "rates.json"
        path.write_text(text, encoding="utf-8")
        return simple_run_args(tmp_path, "--rates", str(path))
    return make_args


def run_with_rates(rates):
    return run_with_rates_text(json.dumps(rates))


def fault_stats_missing_ledger(tmp_path):
    return ["stats", str(tmp_path / "none.jsonl")]


def fault_audit_real_verifier(tmp_path):
    return ["audit", str(solved_run(tmp_path) / "workspace"), "--verifier", "real"]


@pytest.mark.parametrize("make_args, code", [
    pytest.param(fault_bad_fixture, 2, id="run-bad-fixture"),
    pytest.param(lambda tmp_path: burnside_fixture_with(tmp_path, verdict_in_the_first_lean_entry),
                 2, id="run-fixture-payload-of-the-wrong-kind"),
    pytest.param(lambda tmp_path: burnside_fixture_with(tmp_path, negative_usage_in_the_first_entry),
                 2, id="run-fixture-negative-usage"),
    pytest.param(fault_bad_sim_rules, 2, id="run-bad-sim-rules"),
    pytest.param(lambda tmp_path: simple_run_args(tmp_path, "--wall-clock", "soon"), 2,
                 id="run-bad-wall-clock"),
    pytest.param(lambda tmp_path: simple_run_args(tmp_path, "--wall-clock", "nan"), 2,
                 id="run-wall-clock-nan"),
    pytest.param(lambda tmp_path: simple_run_args(tmp_path, "--verifier", "real",
                                                  "--build-timeout", "inf"), 2,
                 id="run-build-timeout-inf"),
    pytest.param(run_with_config({"compile_budget": "many"}), 2, id="run-bad-config-value"),
    pytest.param(run_with_config(["wall_clock"]), 2, id="run-config-not-an-object"),
    pytest.param(run_with_config({"permit": 5}), 2, id="run-config-permit-not-a-list"),
    pytest.param(run_with_config({"sim_rules": 5}), 2, id="run-config-sim-rules-not-a-string"),
    pytest.param(run_with_config({"compile_budget": True}), 2, id="run-config-budget-bool"),
    pytest.param(run_with_config({"compile_budget": 3.7}), 2, id="run-config-budget-fraction"),
    pytest.param(lambda tmp_path: simple_run_args(tmp_path, "--build-timeout", "soon",
                                                  "--verifier", "sim"), 2,
                 id="run-build-timeout-malformed-under-sim"),
    pytest.param(fault_locked_workspace, 2, id="run-locked-workspace"),
    pytest.param(run_with_input("theorem t : True := trivial\n"), 2,
                 id="run-input-without-sorry"),
    pytest.param(lambda tmp_path: simple_run_args(tmp_path, "--verifier", "real"), 3,
                 marks=NO_LAKE, id="run-real-verifier"),
    pytest.param(run_with_input(SORRY_IN_AN_EXAMPLE), 2, id="run-input-sorry-in-an-example"),
    pytest.param(run_with_input(EQUATION_STYLE), 2, id="run-input-equation-style"),
    pytest.param(run_with_input(BARE_NAME_REUSED), 2, id="run-input-bare-name-reused"),
    pytest.param(audit_with_sidecar("{"), 2, id="audit-corrupt-sidecar"),
    pytest.param(audit_with_sidecar('["Main"]'), 2, id="audit-sidecar-not-an-object"),
    pytest.param(audit_with_sidecar('{"decl_name": 5, "signature": "theorem Main : True"}'), 2,
                 id="audit-sidecar-name-not-a-string"),
    pytest.param(fault_audit_missing_anchor_file, 2, id="audit-missing-anchor-file"),
    pytest.param(fault_audit_without_anchor, 2, id="audit-without-anchor"),
    pytest.param(fault_audit_real_verifier, 3, marks=NO_LAKE, id="audit-real-verifier"),
    pytest.param(fault_replay_mismatch, 1, id="replay-mismatch"),
    pytest.param(replay_of_diff("not a diff"), 2, id="replay-unparseable-diff"),
    pytest.param(replay_of_diff(5), 2, id="replay-diff-of-the-wrong-type"),
    pytest.param(ledger_of_version("replay", 4), 2, id="replay-version-4"),
    pytest.param(ledger_of_version("trace", 4), 2, id="trace-version-4"),
    pytest.param(ledger_of_version("stats", 4), 2, id="stats-version-4"),
    pytest.param(fault_trace_not_a_run_ledger, 2, id="trace-not-a-run-ledger"),
    pytest.param(fault_replay_not_a_run_ledger, 2, id="replay-not-a-run-ledger"),
    pytest.param(fault_trace_frame_without_edges, 2, id="trace-frame-without-edges"),
    pytest.param(fault_trace_cyclic_frame, 2, id="trace-cyclic-frame"),
    pytest.param(fault_trace_cyclic_frame_after_a_valid_one, 2,
                 id="trace-cyclic-frame-after-a-valid-one"),
    pytest.param(ledger_with_usage("trace", prompt="x"), 2, id="trace-non-numeric-usage"),
    pytest.param(ledger_with_usage("trace", prompt=1.5), 2, id="trace-fractional-usage"),
    pytest.param(ledger_with_usage("stats", prompt=True), 2, id="stats-bool-usage"),
    pytest.param(ledger_with_usage("stats", prompt="x"), 2, id="stats-non-numeric-usage"),
    pytest.param(ledger_with_usage("stats", prompt=-1), 2, id="stats-negative-usage"),
    pytest.param(ledger_with_usage("stats", elapsed="soon"), 2, id="stats-usage-elapsed-string"),
    pytest.param(ledger_with_usage("trace", kind=5), 2, id="trace-usage-kind-not-a-string"),
    pytest.param(ledger_with_usage("trace", elapsed=-1.0), 2, id="trace-usage-negative-elapsed"),
    pytest.param(fault_stats_solved_without_statements, 2,
                 id="stats-solved-without-statements"),
    pytest.param(fault_stats_missing_ledger, 2, id="stats-missing-ledger"),
    *(pytest.param(malformed_frame(reader, edit), 2, id=f"{name}-{fault}")
      for name, reader in FRAME_READERS.items() for fault, edit in MALFORMED_FRAMES.items()),
    *(pytest.param(structure_delta(reader, edit), 2, id=f"{name}-{fault}")
      for name, reader in FRAME_READERS.items() for fault, edit in MALFORMED_DELTAS.items()),
    pytest.param(structure_delta(["replay"], lambda delta: delta.pop("deps")), 1,
                 id="replay-delta-omits-deps"),
    pytest.param(run_with_rates({"prompt": "abc"}), 2, id="run-non-numeric-rate"),
    pytest.param(run_with_rates({"prompt": "NaN"}), 2, id="run-nan-rate"),
    pytest.param(run_with_rates({"cache_write": "Infinity"}), 2, id="run-infinite-rate"),
    pytest.param(run_with_rates([15, 75]), 2, id="run-rates-not-an-object"),
    pytest.param(run_with_rates({"cache-read": 1.5}), 2, id="run-rates-unknown-class"),
])
def test_exit_code_of_each_fault(tmp_path, capsys, make_args, code):
    args = make_args(tmp_path)
    capsys.readouterr()
    assert main(args) == code
    if code == 2:
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("make_args, path, reason", [
    pytest.param(audit_with_sidecar("not json"), "out/workspace/.proofloop-anchor.json",
                 "Expecting value: line 1 column 1 (char 0)", id="sidecar-not-json"),
    pytest.param(audit_with_sidecar(b"\xff{}"), "out/workspace/.proofloop-anchor.json",
                 "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
                 id="sidecar-not-utf-8"),
    pytest.param(run_with_rates_text("nope"), "rates.json",
                 "Expecting value: line 1 column 1 (char 0)", id="rates-not-json"),
])
def test_a_json_file_that_cannot_be_parsed_is_named(tmp_path, capsys, make_args, path, reason):
    args = make_args(tmp_path)
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err.endswith(
        f"ERROR proofloop: cannot read {tmp_path / path}: {reason}\n")


def not_utf_8(path):
    path.write_bytes(b"\xff" + path.read_bytes() if path.exists() else b"\xff")
    return path


@pytest.mark.parametrize("make_args, path", [
    pytest.param(lambda tmp_path: (simple_run_args(tmp_path),
                                   not_utf_8(tmp_path / "input.lean"))[0],
                 "input.lean", id="run-input"),
    pytest.param(lambda tmp_path: ["audit", str(solved_run(tmp_path) / "workspace"),
                                   "--verifier", "sim",
                                   "--anchor", str(not_utf_8(tmp_path / "anchor.lean"))],
                 "anchor.lean", id="audit-anchor"),
    pytest.param(lambda tmp_path: (simple_run_args(tmp_path),
                                   not_utf_8(tmp_path / "simple.fx"))[0],
                 "simple.fx", id="fixture"),
    pytest.param(lambda tmp_path: simple_run_args(
        tmp_path, "--sim-rules", str(not_utf_8(tmp_path / "rules.sim"))), "rules.sim",
                 id="sim-rules"),
])
def test_an_input_file_that_is_not_utf_8_is_named(tmp_path, capsys, make_args, path):
    args = make_args(tmp_path)
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err.endswith(
        f"ERROR proofloop: cannot read {tmp_path / path}: 'utf-8' codec can't decode byte "
        "0xff in position 0: invalid start byte\n")


def test_the_sidecar_carries_a_non_ascii_primed_name_to_the_audit(tmp_path, capsys):
    ws = tmp_path / "ws"
    (ws / "Proofws").mkdir(parents=True)
    write_anchor(ws, find_anchor("theorem α_lemma' : True := by\n  sorry\n"))
    assert (ws / ".proofloop-anchor.json").read_text(encoding="utf-8") == (
        '{"decl_name": "α_lemma\'", "signature": "theorem α_lemma\' : True"}\n')
    assert read_anchor(ws) == ("α_lemma'", "theorem α_lemma' : True")
    (ws / "Proofws" / "Main.lean").write_text("theorem α_lemma' : True := trivial\n",
                                              encoding="utf-8")
    assert main(["audit", str(ws), "--verifier", "sim"]) == 0
    assert summary_of(capsys)["pass"] is True


def test_an_equation_style_input_is_refused_with_its_cause(tmp_path, capsys):
    assert main(run_with_input(EQUATION_STYLE)(tmp_path)) == 2
    assert "the sorry of t lies in its header, before any top-level :=" in capsys.readouterr().err


def test_an_input_whose_target_reuses_a_bare_name_is_refused_before_the_run(tmp_path, capsys):
    assert main(run_with_input(BARE_NAME_REUSED)(tmp_path)) == 2
    err = capsys.readouterr().err
    assert ("cannot extract target signature: multiple declarations named foo in <input>"
            in err)


class TestLedgerSoundness:
    def test_replay_rejects_a_corrupt_line_before_the_last(self, tmp_path, capsys):
        assert main(burnside_args(tmp_path)) == 0
        capsys.readouterr()
        ledger_path = tmp_path / "out" / "ledger.jsonl"
        lines = ledger_path.read_text(encoding="utf-8").splitlines()
        lines[10] = lines[10][:len(lines[10]) // 2]
        ledger_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["replay", str(ledger_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 11" in captured.err

    @pytest.mark.parametrize("reader", FRAME_READERS.values(), ids=FRAME_READERS)
    def test_every_reader_names_a_malformed_frame(self, tmp_path, capsys, reader):
        args = malformed_frame(reader, MALFORMED_FRAMES["keyframe-unknown-status"])(tmp_path)
        capsys.readouterr()
        assert main(args) == 2
        assert "frame 0: unknown status 'bogus-status'" in capsys.readouterr().err

    @pytest.mark.parametrize("mismatch_first, code", [(True, 1), (False, 2)],
                             ids=["mismatch-then-corrupt-line", "corrupt-line-then-mismatch"])
    def test_the_first_fault_in_file_order_decides_the_replay_exit_code(
            self, tmp_path, capsys, mismatch_first, code):
        assert main(burnside_args(tmp_path)) == 0
        capsys.readouterr()
        ledger_path = tmp_path / "out" / "ledger.jsonl"
        lines = ledger_path.read_text(encoding="utf-8").splitlines()
        frame_lines = [i for i, line in enumerate(lines) if line.startswith('{"rec": "frame"')]
        at = frame_lines[3]
        record = json.loads(lines[at])
        assert record["index"] == 3 and at < 39 < len(lines) - 1
        node, status = next(iter(record["nodes"].items()))
        record["nodes"][node] = "failing" if status != "failing" else "not-yet"
        lines[at] = json.dumps(record)
        corrupt = 39 if mismatch_first else at - 1
        lines[corrupt] = lines[corrupt][:len(lines[corrupt]) // 2]
        ledger_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["replay", str(ledger_path)]) == code
        captured = capsys.readouterr()
        if mismatch_first:
            assert json.loads(captured.out)["error"].startswith("frame 3: ")
        else:
            assert captured.out == "" and f"line {corrupt + 1} " in captured.err

    def test_trace_and_stats_reject_a_record_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        open_ledger("r", path).record_outcome(Outcome("solved", None, 3600.0, 2, 1))
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([lines[0], "[1, 2]", *lines[1:]]) + "\n", encoding="utf-8")
        assert main(["trace", str(path)]) == 2
        assert main(["stats", str(path)]) == 2
        assert capsys.readouterr().out == ""


class TestMissingCredentials:
    def test_live_run_without_a_token_is_an_environment_error(self, tmp_path, capsys,
                                                              monkeypatch):
        monkeypatch.delenv("PROOFLOOP_API_TOKEN", raising=False)
        input_file = tmp_path / "input.lean"
        input_file.write_text(SIMPLE_INPUT, encoding="utf-8")
        code = main(["run", str(input_file), "--backend", "live",
                     "--endpoint", "http://localhost:9", "--model", "m",
                     "--verifier", "sim", "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "PROOFLOOP_API_TOKEN" in captured.err
        assert not (tmp_path / "out" / "ledger.jsonl").exists()
