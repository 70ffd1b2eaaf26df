"""Golden-file checks: regenerated reports must match the committed bytes.

The goldens live beside the fixture.  They pin the simulated verifier's
reports for the shipped replay and the trace exporter's output; regenerate
with tools/gen_goldens.py after an intentional format change.
"""

import importlib.util
import json

import pytest

from helpers import BURNSIDE_DIR, REPO_ROOT, expand_deltas
from proofloop.agents import ScriptedBackend, load_fixture
from proofloop.leanenv import (
    SimVerifier, audit_verdict, find_anchor, load_sim_rules, read_workspace,
)
from proofloop.ledger import export_trace, load_ledger, read_ledger_records
from proofloop.looper import LoopConfig, run

GOLDEN_DIR = BURNSIDE_DIR / "golden"


@pytest.fixture(scope="module")
def solved_state(tmp_path_factory):
    base = tmp_path_factory.mktemp("golden-run")
    verifier = SimVerifier(load_sim_rules(BURNSIDE_DIR / "sim-rules.txt"))
    outcome, ledger = run(BURNSIDE_DIR / "input.lean",
                          ScriptedBackend(load_fixture(BURNSIDE_DIR / "agents.fx")),
                          verifier, LoopConfig(), workspace_dir=base / "ws",
                          ledger_path=base / "ledger.jsonl")
    assert outcome.verdict.value == "solved"
    return verifier, read_workspace(base / "ws"), ledger


def test_final_build_report_matches_golden(solved_state):
    verifier, ws, _ = solved_state
    build = verifier.build(ws)
    expected = json.loads((GOLDEN_DIR / "final-build-report.json").read_text())
    assert {
        "clean": build.clean,
        "compiled": build.compiled,
        "sorry_sites": [list(site) for site in build.sorry_sites],
        "diagnostics": build.diagnostics,
    } == expected


def test_final_audit_report_matches_golden(solved_state):
    verifier, ws, _ = solved_state
    anchor = find_anchor((BURNSIDE_DIR / "input.lean").read_text(encoding="utf-8"))
    audit = audit_verdict(ws, anchor.signature_text, anchor.decl_name, verifier)
    expected = json.loads((GOLDEN_DIR / "final-audit-report.json").read_text())
    assert {
        "passed": audit.passed,
        "signature_match": audit.signature_match,
        "axioms_used": sorted(audit.axioms_used),
        "forbidden_occurrences": [list(hit) for hit in audit.forbidden_occurrences],
        "detail": audit.detail,
    } == expected


def test_trace_export_matches_golden_bytes(solved_state):
    _, _, ledger = solved_state
    trace = export_trace(ledger, "text")
    assert trace == (GOLDEN_DIR / "trace-full.txt").read_text(encoding="utf-8")
    head_lines = trace.splitlines()[:60]
    golden_head = (GOLDEN_DIR / "trace-head.txt").read_text(encoding="utf-8")
    assert "\n".join(head_lines) + "\n" == golden_head


def test_the_ledger_file_and_its_expanded_twin_load_to_the_golden_trace(solved_state, tmp_path):
    _, ws, ledger = solved_state
    path = ws.root_dir.parent / "ledger.jsonl"
    records = list(read_ledger_records(path))
    twin = tmp_path / "expanded.jsonl"
    twin.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n"
                            for r in expand_deltas(records)), encoding="utf-8")
    assert any(r["rec"] == "frame" and "edges" not in r for r in records)
    golden = (GOLDEN_DIR / "trace-full.txt").read_text(encoding="utf-8")
    for source in (path, twin):
        loaded = load_ledger(source)
        assert loaded.frames == ledger.frames
        assert export_trace(loaded, "text") == golden


def test_the_fixture_generator_writes_the_shipped_fixture():
    """tools/gen_burnside_fixture.py regenerates fixtures/burnside byte for byte."""
    spec = importlib.util.spec_from_file_location(
        "gen_burnside_fixture", REPO_ROOT / "tools" / "gen_burnside_fixture.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    for name, text in [("agents.fx", generator.fixture_to_text(generator.build())),
                       ("input.lean", generator.INPUT_LEAN),
                       ("sim-rules.txt", generator.SIM_RULES)]:
        assert text.encode("utf-8") == (BURNSIDE_DIR / name).read_bytes(), name
