#!/usr/bin/env python3
"""Regenerate the golden report files stored beside the Burnside fixture.

Runs the shipped fixture against the simulated verifier and freezes the
final-workspace build report, audit report, and the head of the text trace.
When the real toolchain is available the same files can be diffed against
real-mode reports (see docs/formats.md).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from proofloop.agents import ScriptedBackend, load_fixture  # noqa: E402
from proofloop.leanenv import (  # noqa: E402
    SimVerifier, audit_verdict, find_anchor, load_sim_rules, read_workspace,
)
from proofloop.ledger import export_trace  # noqa: E402
from proofloop.looper import LoopConfig, run  # noqa: E402

TRACE_HEAD_LINES = 60


def main() -> None:
    fixture_dir = ROOT / "fixtures" / "burnside"
    golden_dir = fixture_dir / "golden"
    golden_dir.mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        backend = ScriptedBackend(load_fixture(fixture_dir / "agents.fx"))
        verifier = SimVerifier(load_sim_rules(fixture_dir / "sim-rules.txt"))
        outcome, ledger = run(fixture_dir / "input.lean", backend, verifier,
                              LoopConfig(), workspace_dir=base / "ws",
                              ledger_path=base / "ledger.jsonl")
        assert outcome.verdict.value == "solved", outcome

        ws = read_workspace(base / "ws")
        anchor = find_anchor((fixture_dir / "input.lean").read_text(encoding="utf-8"))
        build = verifier.build(ws)
        audit = audit_verdict(ws, anchor.signature_text, anchor.decl_name, verifier)

        (golden_dir / "final-build-report.json").write_text(json.dumps({
            "clean": build.clean,
            "compiled": build.compiled,
            "sorry_sites": [list(site) for site in build.sorry_sites],
            "diagnostics": build.diagnostics,
        }, indent=2, sort_keys=True) + "\n", encoding="utf-8")

        (golden_dir / "final-audit-report.json").write_text(json.dumps({
            "passed": audit.passed,
            "signature_match": audit.signature_match,
            "axioms_used": sorted(audit.axioms_used),
            "forbidden_occurrences": [list(hit) for hit in audit.forbidden_occurrences],
            "detail": audit.detail,
        }, indent=2, sort_keys=True) + "\n", encoding="utf-8")

        trace = export_trace(ledger, "text")
        head = "\n".join(trace.splitlines()[:TRACE_HEAD_LINES]) + "\n"
        (golden_dir / "trace-head.txt").write_text(head, encoding="utf-8")
        (golden_dir / "trace-full.txt").write_text(trace, encoding="utf-8")
    print(f"wrote golden reports under {golden_dir}")


if __name__ == "__main__":
    main()
